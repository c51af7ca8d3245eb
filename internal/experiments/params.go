package experiments

// Params and its hooks: the knobs shared by every experiment runner,
// plus the service-layer concerns that ride along with them — a
// progress callback for long sweeps and a canonical hash that gives
// each (experiment, parameters) execution a stable identity for result
// caching.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"github.com/quartz-dcn/quartz/internal/trace"
)

// Progress is the experiment progress hook: done units of work are
// complete out of total. The unit is the cell of a grid experiment
// (sweep.go); total is constant for the lifetime of one run. Callbacks
// may arrive from the worker goroutines of the cell pool, but never
// concurrently — the pool serializes them.
type Progress func(done, total int)

// Params carries the knobs shared by the experiment runners. Zero
// values are replaced by DefaultParams' fields.
type Params struct {
	// Seed makes every experiment deterministic.
	Seed int64
	// Trials scales the validation experiment's packet count (30 ×
	// Trials); Figure 6 is exact and takes none.
	Trials int
	// Tasks caps concurrent tasks (Figures 17/18).
	Tasks int
	// RPCs is the RPC count per point (Figure 14 and extensions).
	RPCs int

	// Progress, when non-nil, receives coarse completion callbacks as
	// an experiment finishes internal units of work. It is a hook, not
	// a parameter: it does not affect results, is excluded from
	// CacheKey, and is omitted from JSON reports.
	Progress Progress `json:"-"`

	// Trace, when non-nil, records execution spans as the experiment
	// runs: per-cell wall spans under forEachCell. Like Progress it is a
	// hook — it never affects results, is excluded from CacheKey, and is
	// omitted from JSON.
	Trace *trace.Recorder `json:"-"`
}

// DefaultParams returns the registry's defaults: what quartzsim -run
// NAME and a quartzd job with no params run at.
func DefaultParams() Params {
	return Params{Seed: 2014, Trials: 5000, Tasks: 8, RPCs: 2000}
}

// WithDefaults returns p with zero-valued knobs replaced by
// DefaultParams' fields. Hooks pass through unchanged.
func (p Params) WithDefaults() Params {
	d := DefaultParams()
	if p.Seed == 0 {
		p.Seed = d.Seed
	}
	if p.Trials == 0 {
		p.Trials = d.Trials
	}
	if p.Tasks == 0 {
		p.Tasks = d.Tasks
	}
	if p.RPCs == 0 {
		p.RPCs = d.RPCs
	}
	return p
}

// CacheKey returns the canonical identity of one experiment execution:
// a stable hash over the experiment name and every result-affecting
// parameter, with defaults applied first — so a zero-valued Params and
// an explicit DefaultParams() hash identically, and two submissions
// that would produce the same output share a key. Hook fields
// (Progress) are excluded. The result-cache of internal/service keys
// on this.
func CacheKey(name string, p Params) string {
	sum := sha256.Sum256(keyPreimage(name, p))
	return hex.EncodeToString(sum[:16])
}

// CacheKeyRange returns the sub-key identifying a partial execution —
// cells [lo, hi) of the experiment's sweep grid. The cluster tier keys
// cell-range sub-jobs on this, so a range a worker computed once (for
// any client, under any coordinator) serves every later request for
// the same cells. The degenerate whole-grid request (lo=0, hi=0) keys
// identically to CacheKey.
func CacheKeyRange(name string, p Params, lo, hi int) string {
	if lo == 0 && hi == 0 {
		return CacheKey(name, p)
	}
	key := fmt.Appendf(keyPreimage(name, p), "|cells=%d-%d", lo, hi)
	sum := sha256.Sum256(key)
	return hex.EncodeToString(sum[:16])
}

// keyPreimage builds the canonical hash input shared by CacheKey and
// CacheKeyRange.
func keyPreimage(name string, p Params) []byte {
	p = p.WithDefaults()
	return fmt.Appendf(nil, "quartz-exp/v1|%s|seed=%d|trials=%d|tasks=%d|rpcs=%d",
		strings.ToLower(strings.TrimSpace(name)), p.Seed, p.Trials, p.Tasks, p.RPCs)
}
