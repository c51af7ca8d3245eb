package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"github.com/quartz-dcn/quartz/internal/experiments"
)

// env is what one benchmark run was asked to do.
type env struct {
	seed    int64
	seconds float64 // length of the timed part
	smoke   bool    // 1 pass / 200 ops, for tests
	nproc   int
	tr      *tracer // nil in the untraced run
	// oneSetup: the traced run and a probe reusing a workload set it up
	// once, not three times: they report no setup_s.
	oneSetup bool
}

// setupReps is how often a workload's set-up (fixtures, servers,
// hot-set fill, warm-up pass) is repeated; setup_s is the median.
func (e *env) setupReps() int {
	if e.smoke || e.oneSetup {
		return 1
	}
	return 3
}

// setUp builds a workload's fixture — servers, hot set and warm-up
// pass included — setupReps times, closing every one but the last, and
// returns the last one with how long each build took.
func setUp[F any](e *env, build func(rep int) (F, error), closeFixture func(F)) (fx F, took sample, err error) {
	for rep := 0; rep < e.setupReps(); rep++ {
		if rep > 0 {
			closeFixture(fx)
		}
		start := time.Now()
		if fx, err = build(rep); err != nil {
			return fx, nil, err
		}
		took = append(took, time.Since(start).Seconds())
	}
	return fx, took, nil
}

// parallelism is the client and worker count of the service workloads:
// two, or one on a single-CPU box (flagged as not comparable).
func (e *env) parallelism() int { return min(e.nproc, 2) }

// runResult is everything a workload run measured.
type runResult struct {
	workload   string
	gomaxprocs int
	clients    int // closed-loop callers (service workloads)
	params     string

	attempted, failed int
	firstError        string

	setupS sample // seconds per set-up repetition
	passS  sample // seconds per timed pass
	jobs   int    // jobs completed in the timed part
	wallS  float64
	mem    memCounters // over the timed part
	digest string      // of the warm-up pass's outputs

	// Service workload only: submit→result latency by op class, ms.
	classMS     map[string]sample
	resultBytes sample
	metricsText string  // GET /metrics at the end of the timed part
	scrapeMS    float64 // how long that scrape took

	// Traced run only: the timings of traced and untraced passes (or
	// cache-hit ops) that alternate, for bench.trace_overhead_frac.
	tracedT, untracedT sample
}

func (r *runResult) fail(n int, err error) {
	r.failed += n
	if r.firstError == "" && err != nil {
		r.firstError = err.Error()
	}
}

// passResult is what one pass of a batch workload produced.
type passResult struct {
	digest string // SHA-256 over the output texts, in order
	jobs   int
	bad    int // jobs that failed or returned the wrong output
	err    error
}

// batchFixture is a batch workload after set-up. pass runs pass i
// (-1 is the warm-up) under parent span passSpan; verify asks for the
// workload's expensive output check, if it has one.
type batchFixture struct {
	pass  func(i int, tr *tracer, passSpan int, verify bool) passResult
	close func()
}

// batchWorkload is a workload whose timed part is a sequence of
// passes, each a fixed amount of work.
type batchWorkload struct {
	name       string
	gomaxprocs int // 0: every CPU
	params     experiments.Params
	// sameOutput: every pass runs the same inputs, so its digest must
	// equal the warm-up pass's.
	sameOutput bool
	setup      func(e *env) (*batchFixture, error)
}

func (w *batchWorkload) run(e *env) (*runResult, error) {
	res := &runResult{workload: w.name, gomaxprocs: w.gomaxprocs, params: paramsString(w.params)}
	if res.gomaxprocs == 0 {
		res.gomaxprocs = e.nproc
	}
	runtime.GOMAXPROCS(res.gomaxprocs)

	var warm passResult
	fx, took, err := setUp(e, func(int) (*batchFixture, error) {
		fx, err := w.setup(e)
		if err != nil {
			return nil, err
		}
		if warm = fx.pass(-1, nil, 0, true); warm.bad > 0 {
			fx.close()
			return nil, fmt.Errorf("warm-up pass: %d of %d jobs failed: %v", warm.bad, warm.jobs, warm.err)
		}
		return fx, nil
	}, func(fx *batchFixture) { fx.close() })
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	res.setupS = took
	defer fx.close()
	res.digest = warm.digest

	minPasses := 3
	switch {
	case e.smoke && e.tr != nil:
		minPasses = 2
	case e.smoke:
		minPasses = 1
	case e.tr != nil:
		minPasses = 4
	}
	runtime.GC()
	mem0 := readMem()
	start := time.Now()
	for i := 0; i < minPasses || (!e.smoke && time.Since(start).Seconds() < e.seconds); i++ {
		tr := e.tr
		if i%2 == 1 {
			tr = nil // the traced run alternates traced and untraced passes
		}
		t0 := time.Now()
		sp := tr.begin("pass", 0, 0, 0)
		pr := fx.pass(i, tr, sp, e.tr != nil)
		tr.finish(sp)
		dt := time.Since(t0).Seconds()

		res.passS = append(res.passS, dt)
		if e.tr != nil {
			if tr != nil {
				res.tracedT = append(res.tracedT, dt)
			} else {
				res.untracedT = append(res.untracedT, dt)
			}
		}
		res.attempted += pr.jobs
		res.jobs += pr.jobs - pr.bad
		res.fail(pr.bad, pr.err)
		if w.sameOutput && pr.bad == 0 && pr.digest != warm.digest {
			res.fail(pr.jobs, fmt.Errorf("pass %d: outputs digest %s differs from the warm-up's %s", i, pr.digest, warm.digest))
			res.jobs -= pr.jobs
		}
	}
	res.wallS = time.Since(start).Seconds()
	res.mem = readMem().since(mem0)
	return res, nil
}

// paramsString renders the resolved Params for the header, hooks left out.
func paramsString(p experiments.Params) string {
	return fmt.Sprintf("Seed:%d Trials:%d Tasks:%d RPCs:%d", p.Seed, p.Trials, p.Tasks, p.RPCs)
}

// registryWorkload builds a batch workload whose pass runs the named
// registry experiments in order, in this process, at GOMAXPROCS(1).
func registryWorkload(name string, names []string, p experiments.Params) *batchWorkload {
	return &batchWorkload{
		name: name, gomaxprocs: 1, params: p, sameOutput: true,
		setup: func(*env) (*batchFixture, error) {
			exps, err := findAll(names)
			if err != nil {
				return nil, err
			}
			return &batchFixture{
				pass: func(_ int, tr *tracer, passSpan int, _ bool) passResult {
					return runExperiments(exps, p, tr, passSpan)
				},
				close: func() {},
			}, nil
		},
	}
}

func findOne(name string) (experiments.Experiment, error) {
	exp, ok := experiments.Find(name)
	if !ok {
		return exp, fmt.Errorf("experiment %q is not in the registry", name)
	}
	return exp, nil
}

func findAll(names []string) ([]experiments.Experiment, error) {
	exps := make([]experiments.Experiment, 0, len(names))
	for _, n := range names {
		exp, err := findOne(n)
		if err != nil {
			return nil, err
		}
		exps = append(exps, exp)
	}
	return exps, nil
}

func runExperiments(exps []experiments.Experiment, p experiments.Params, tr *tracer, passSpan int) passResult {
	pr := passResult{jobs: len(exps)}
	h := sha256.New()
	for _, exp := range exps {
		sp := tr.begin("experiment:"+exp.Name, passSpan, tr.opOf(passSpan), 0)
		out, err := exp.Run(context.Background(), p)
		tr.finish(sp)
		if err != nil || out.Text == "" {
			pr.bad++
			if pr.err == nil {
				pr.err = fmt.Errorf("%s: %v (%d bytes of output)", exp.Name, err, len(out.Text))
			}
			continue
		}
		h.Write([]byte(out.Text))
	}
	pr.digest = hex.EncodeToString(h.Sum(nil))
	return pr
}

// The two in-process paper workloads. Params are fully specified:
// registry Run applies no defaults.
var (
	packetNames   = []string{"fig17", "fig18", "fig20"}
	analyticNames = []string{"fig5", "fig6", "table9", "fig10", "oversub", "fig1"}
)

// paperParams are the paper workloads' parameters; the smoke path
// shrinks them so that tests stay fast.
func paperParams(e *env) experiments.Params {
	p := experiments.Params{Seed: e.seed, Trials: 5000, Tasks: 4, RPCs: 200}
	if e.smoke {
		p.Trials, p.Tasks = 100, 1
	}
	return p
}

func paperPacket(e *env) *batchWorkload {
	return registryWorkload("paper_packet", packetNames, paperParams(e))
}

func paperAnalytic(e *env) *batchWorkload {
	return registryWorkload("paper_analytic", analyticNames, paperParams(e))
}
