package metrics

import (
	"io"
	"net"
	"testing"
	"time"
)

// A peer that sends half a header line and then nothing is disconnected
// by the server rather than parked forever. The limits themselves are
// checked as set; the stall is then driven at a shortened one so the
// test takes milliseconds, not readHeaderTimeout.
func TestServerDisconnectsStalledHeader(t *testing.T) {
	srv := NewServer(Handler(NewRegistry(), nil))
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.ReadTimeout != readTimeout ||
		srv.IdleTimeout != idleTimeout || srv.WriteTimeout != 0 {
		t.Fatalf("timeouts header=%v read=%v idle=%v write=%v", srv.ReadHeaderTimeout, srv.ReadTimeout,
			srv.IdleTimeout, srv.WriteTimeout)
	}
	srv.ReadHeaderTimeout = 50 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /metrics HTTP/1.1\r\nHost: stalled"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("server kept the stalled connection open: %v", err)
	}
}
