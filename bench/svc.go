package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"time"

	"github.com/quartz-dcn/quartz/internal/experiments"
	"github.com/quartz-dcn/quartz/internal/service"
)

// The svc_mix op mix: one block is 50 ops, 40 cache hits, 9 uncached
// zero-work jobs and 1 fresh scenario job, in seeded order. One block
// is the workload's pass.
const (
	blockOps     = 50
	blockNocache = 9
	blockCold    = 1
	hotKeys      = 8
	queueCap     = 64
)

type opKind uint8

const (
	opHit opKind = iota
	opNocache
	opCold
)

var opNames = [...]string{"hit", "nocache", "cold"}

func (k opKind) String() string { return opNames[k] }

// op is one generated quartzd operation.
type op struct {
	kind opKind
	key  int   // hit: which pre-warmed key
	seed int64 // cold: the scenario's fresh seed
}

// splitmix is the splitmix64 step: it spreads (seed, client, block)
// triples into unrelated generator seeds.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func derive(seed int64, a, b int) int64 {
	x := splitmix(uint64(seed))
	x = splitmix(x ^ uint64(int64(a)))
	x = splitmix(x ^ uint64(int64(b)))
	return int64(x>>1) | 1 // positive and never 0: a 0 seed means "default"
}

// genBlock generates block number block of client's op sequence. The
// same (seed, client, block) always gives the same ops.
func genBlock(seed int64, client, block int) []op {
	rng := rand.New(rand.NewSource(derive(seed, client, block)))
	ops := make([]op, 0, blockOps)
	for i := 0; i < blockOps-blockNocache-blockCold; i++ {
		ops = append(ops, op{kind: opHit, key: rng.Intn(hotKeys)})
	}
	for i := 0; i < blockNocache; i++ {
		ops = append(ops, op{kind: opNocache})
	}
	for i := 0; i < blockCold; i++ {
		ops = append(ops, op{kind: opCold, seed: derive(seed, client, block) ^ int64(i+1)<<40})
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// coldDoc is the raw scenario document of a cold op: a small
// packet-level simulation nobody has submitted before.
func coldDoc(seed int64) []byte {
	doc := map[string]interface{}{
		"schema": "quartz-scenario/v1",
		"name":   "bench-cold",
		"seed":   seed,
		"sim": map[string]interface{}{
			"topology":    map[string]interface{}{"kind": "tree3", "quartz": "edge"},
			"workload":    map[string]interface{}{"kind": "scattergather", "tasks": 2, "fanout": 8},
			"duration_ms": 2,
		},
	}
	b, _ := json.Marshal(doc)
	return b
}

func hitBody(keySeed int64) []byte {
	return sweepBody("fig14", experiments.Params{Seed: keySeed, Trials: 5000, Tasks: 4, RPCs: 100})
}

var nocacheBody = []byte(`{"experiment":"table2","no_cache":true}`)

var deliveredRE = regexp.MustCompile(`delivered (\d+) packets, dropped (\d+)`)

// svcFixture is an in-process quartzd on loopback with its hot set
// filled, and the closed-loop clients that call it.
type svcFixture struct {
	svc     *service.Service
	srv     *httptest.Server
	clients []*qdClient
	hitBody [hotKeys][]byte
	hitText [hotKeys]string // the first body seen for each key
	table2  string          // the registry's table2 text
	digest  string
}

func newSvcFixture(e *env) (*svcFixture, error) {
	f := &svcFixture{svc: service.New(service.Config{QueueCapacity: queueCap})}
	f.srv = httptest.NewServer(f.svc.Handler(nil))
	for c := 0; c < e.parallelism(); c++ {
		f.clients = append(f.clients, newQDClient(f.srv.URL, nil, c))
	}
	t2, err := findOne("table2")
	if err != nil {
		f.close()
		return nil, err
	}
	out, err := t2.Run(context.Background(), experiments.Params{Seed: e.seed, Trials: 5000, Tasks: 4, RPCs: 200})
	if err != nil {
		f.close()
		return nil, fmt.Errorf("table2: %w", err)
	}
	f.table2 = out.Text

	h := sha256.New()
	for k := 0; k < hotKeys; k++ {
		f.hitBody[k] = hitBody(derive(e.seed, -1, k))
		res, _, err := f.clients[0].runJob(0, f.hitBody[k])
		if err != nil {
			f.close()
			return nil, fmt.Errorf("filling hot key %d: %w", k, err)
		}
		f.hitText[k] = res.Text
		h.Write([]byte(res.Text))
	}
	h.Write([]byte(f.table2))
	f.digest = hex.EncodeToString(h.Sum(nil))
	return f, nil
}

func (f *svcFixture) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, c := range f.clients {
		c.close()
	}
	f.srv.Close()
	_ = f.svc.Drain(ctx) // nothing is in flight: every job was waited for
}

// do performs one op and checks its output; it returns the size of the
// result body.
func (f *svcFixture) do(c *qdClient, o op, parent int) (int, error) {
	switch o.kind {
	case opHit:
		status, v, err := c.submit(parent, f.hitBody[o.key])
		if err != nil {
			return 0, err
		}
		if status != http.StatusOK || !v.CacheHit {
			return 0, fmt.Errorf("hit key %d: HTTP %d cache_hit=%v, want a 200 cache hit", o.key, status, v.CacheHit)
		}
		res, n, err := c.result(parent, v.ID)
		if err == nil && res.Text != f.hitText[o.key] {
			err = fmt.Errorf("hit key %d: body differs from the first one seen", o.key)
		}
		return n, err
	case opNocache:
		res, n, err := c.runJob(parent, nocacheBody)
		if err == nil && res.Text != f.table2 {
			err = fmt.Errorf("nocache: body differs from the registry's table2 text")
		}
		return n, err
	default:
		res, n, err := c.runJob(parent, coldDoc(o.seed))
		if err != nil {
			return n, err
		}
		m := deliveredRE.FindStringSubmatch(res.Text)
		if m == nil {
			return n, fmt.Errorf("cold seed %d: no delivered/dropped line in %q", o.seed, res.Text)
		}
		if delivered, _ := strconv.Atoi(m[1]); delivered <= 0 {
			return n, fmt.Errorf("cold seed %d: delivered %s packets", o.seed, m[1])
		}
		return n, nil
	}
}

// blockStats is what one client measured over its blocks.
type blockStats struct {
	blockS      sample
	classMS     [len(opNames)]sample
	resultBytes sample
	attempted   int
	failed      int
	firstErr    error
	tracedHit   sample
	untracedHit sample
}

// runBlock runs one block on client c, timing every op.
func (f *svcFixture) runBlock(c *qdClient, ops []op, tr *tracer, st *blockStats) {
	c.tr = tr
	t0 := time.Now()
	pass := tr.begin("pass", 0, 0, c.track)
	for _, o := range ops {
		start := time.Now()
		sp := tr.begin("op:"+o.kind.String(), pass, tr.opOf(pass), c.track)
		n, err := f.do(c, o, sp)
		tr.finish(sp)
		ms := time.Since(start).Seconds() * 1e3
		st.attempted++
		if err != nil {
			st.failed++
			if st.firstErr == nil {
				st.firstErr = err
			}
			continue
		}
		st.classMS[o.kind] = append(st.classMS[o.kind], ms)
		st.resultBytes = append(st.resultBytes, float64(n))
		if o.kind == opHit {
			if tr != nil {
				st.tracedHit = append(st.tracedHit, ms)
			} else {
				st.untracedHit = append(st.untracedHit, ms)
			}
		}
	}
	tr.finish(pass)
	st.blockS = append(st.blockS, time.Since(t0).Seconds())
}

// svcMix runs the service workload: set-up (server, hot-set fill, one
// warm-up block per client) repeated for setup_s, then every client
// replaying its block sequence until the timed part is over.
func svcMix(e *env) (*runResult, error) {
	res := &runResult{
		workload: "svc_mix", gomaxprocs: e.nproc, clients: e.parallelism(),
		params:  fmt.Sprintf("hit=fig14{Trials:5000 Tasks:4 RPCs:100} x%d keys, mix %d:%d:%d per %d ops, queue %d", hotKeys, blockOps-blockNocache-blockCold, blockNocache, blockCold, blockOps, queueCap),
		classMS: map[string]sample{},
	}
	runtime.GOMAXPROCS(res.gomaxprocs)

	fx, took, err := setUp(e, func(rep int) (*svcFixture, error) {
		fx, err := newSvcFixture(e)
		if err != nil {
			return nil, err
		}
		for c, cl := range fx.clients {
			var warm blockStats
			fx.runBlock(cl, genBlock(e.seed, c, -1-rep), nil, &warm)
			if warm.failed > 0 {
				fx.close()
				return nil, fmt.Errorf("warm-up block: %d of %d ops failed: %v", warm.failed, warm.attempted, warm.firstErr)
			}
		}
		return fx, nil
	}, (*svcFixture).close)
	if err != nil {
		return nil, fmt.Errorf("svc_mix: set-up: %w", err)
	}
	res.setupS = took
	defer fx.close()
	res.digest = fx.digest

	smokeBlocks := 200 / blockOps / len(fx.clients)
	stats := make([]blockStats, len(fx.clients))
	runtime.GC()
	mem0 := readMem()
	start := time.Now()
	var wg sync.WaitGroup
	for c, cl := range fx.clients {
		wg.Add(1)
		go func(c int, cl *qdClient) {
			defer wg.Done()
			for b := 0; ; b++ {
				if e.smoke && b >= smokeBlocks {
					return
				}
				if !e.smoke && b > 0 && time.Since(start).Seconds() >= e.seconds {
					return
				}
				tr := e.tr
				if b%2 == 1 {
					tr = nil // the traced run alternates traced and untraced blocks
				}
				fx.runBlock(cl, genBlock(e.seed, c, b), tr, &stats[c])
			}
		}(c, cl)
	}
	wg.Wait()
	res.wallS = time.Since(start).Seconds()
	res.mem = readMem().since(mem0)

	for _, st := range stats {
		res.passS = append(res.passS, st.blockS...)
		res.attempted += st.attempted
		res.jobs += st.attempted - st.failed
		res.fail(st.failed, st.firstErr)
		for k, name := range opNames {
			res.classMS[name] = append(res.classMS[name], st.classMS[k]...)
		}
		res.resultBytes = append(res.resultBytes, st.resultBytes...)
		res.tracedT = append(res.tracedT, st.tracedHit...)
		res.untracedT = append(res.untracedT, st.untracedHit...)
	}

	t0 := time.Now()
	text, err := get(fx.clients[0].hc, fx.srv.URL+"/metrics")
	if err != nil {
		return nil, fmt.Errorf("svc_mix: %w", err)
	}
	res.scrapeMS = time.Since(t0).Seconds() * 1e3
	res.metricsText = string(text)
	return res, nil
}
