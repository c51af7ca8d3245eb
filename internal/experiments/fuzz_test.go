package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

// FuzzCellBlocks feeds arbitrary block lists to the merge a cluster
// coordinator runs on workers' results: mergeBlocks returns exactly n
// values, each block's in its cells' places, or an error — never a
// panic — and every block survives its wire form (DecodeBlock of the
// marshalled block), event count included. The seeds are real fig20
// and validate blocks, split at cell 1.
func FuzzCellBlocks(f *testing.F) {
	for _, name := range []string{"fig20", "validate"} {
		exp, ok := Find(name)
		if !ok {
			f.Fatalf("no experiment %q", name)
		}
		sw := exp.Sweep
		n := sw.Cells(sweepTestParams)
		var blocks []CellBlock
		for _, r := range [][2]int{{0, 1}, {1, n}} {
			b, err := sw.RunCells(context.Background(), sweepTestParams, r[0], r[1])
			if err != nil {
				f.Fatal(err)
			}
			blocks = append(blocks, b)
		}
		data, err := json.Marshal(blocks)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(n), data)
	}
	f.Fuzz(func(t *testing.T, n uint8, data []byte) {
		var blocks []CellBlock
		if json.Unmarshal(data, &blocks) != nil {
			return
		}
		for _, b := range blocks {
			enc, err := json.Marshal(b)
			if err != nil {
				t.Fatalf("marshalling decoded block %+v: %v", b, err)
			}
			got, err := DecodeBlock(string(enc))
			if b.Hi <= b.Lo {
				if err == nil {
					t.Errorf("DecodeBlock accepted empty range [%d,%d)", b.Lo, b.Hi)
				}
				continue
			}
			if err != nil {
				t.Fatalf("DecodeBlock(%s): %v", enc, err)
			}
			again, err := json.Marshal(got)
			if err != nil || !bytes.Equal(again, enc) || got.Events != b.Events {
				t.Errorf("block %s decoded to %+v, which marshals to %s (%v)", enc, got, again, err)
			}
		}
		vals, err := mergeBlocks[json.RawMessage](int(n), blocks)
		if err != nil {
			return
		}
		if len(vals) != int(n) {
			t.Fatalf("merged %d values for %d cells", len(vals), n)
		}
		for _, b := range blocks {
			var part []json.RawMessage
			if err := json.Unmarshal(b.Data, &part); err != nil || b.Lo < 0 || b.Hi > int(n) || len(part) != b.Hi-b.Lo {
				t.Fatalf("merge accepted block [%d,%d) carrying %d values (%v) into %d cells", b.Lo, b.Hi, len(part), err, n)
			}
			for i, v := range part {
				if !bytes.Equal(v, vals[b.Lo+i]) {
					t.Fatalf("cell %d merged as %s, its block carries %s", b.Lo+i, vals[b.Lo+i], v)
				}
			}
		}
	})
}
