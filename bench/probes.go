package main

// The per-layer probes of the traced run. Each times calls into one
// layer's public functions from outside, under a "probe:<layer>" span.
// They take the run's seed but not its workload: a traced run of any
// workload prints every per-layer metric.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/quartz-dcn/quartz/internal/core"
	"github.com/quartz-dcn/quartz/internal/experiments"
	"github.com/quartz-dcn/quartz/internal/netsim"
	"github.com/quartz-dcn/quartz/internal/routing"
	"github.com/quartz-dcn/quartz/internal/scenario"
	"github.com/quartz-dcn/quartz/internal/service"
	"github.com/quartz-dcn/quartz/internal/sim"
	"github.com/quartz-dcn/quartz/internal/topology"
)

// metrics is a set of named values; the names are those of metricDefs.
type metrics map[string]float64

// probeSet runs every probe. smoke shrinks the amounts of work.
func probeSet(e *env) (metrics, error) {
	m := metrics{}
	probes := []struct {
		layer string
		run   func(e *env, m metrics, span int) error
	}{
		{"sim", probeSim},
		{"netsim", probeNetsim},
		{"experiments", probeExperiments},
		{"scenario", probeScenario},
		{"service", probeService},
		{"cluster", probeCluster},
	}
	for _, p := range probes {
		runtime.GOMAXPROCS(1)
		sp := e.tr.begin("probe:"+p.layer, 0, 0, 0)
		err := p.run(e, m, sp)
		e.tr.finish(sp)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.layer, err)
		}
	}
	return m, nil
}

// --- sim: the hold model ---

// holder is the hold model's event handler on the Action path: each
// execution schedules the next one after an exponential delay.
type holder struct {
	eng    *sim.Engine
	delays []sim.Time
	left   int
}

func (h *holder) Run(a, _ int64) {
	if h.left > 0 {
		h.left--
		h.eng.AfterAction(h.delays[a&int64(len(h.delays)-1)], h, a+1, 0)
	}
}

func expDelays(seed int64) []sim.Time {
	rng := rand.New(rand.NewSource(seed))
	d := make([]sim.Time, 1<<13)
	for i := range d {
		d[i] = sim.Time(rng.ExpFloat64()*1000)*sim.Nanosecond + 1
	}
	return d
}

// hold runs events events through a fresh engine holding pending
// events in flight, and returns ns and mallocs per event.
func hold(seed int64, pending, events int, closure bool) (nsPerEvent, allocsPerEvent float64) {
	eng := sim.NewEngine()
	delays := expDelays(seed)
	h := &holder{eng: eng, delays: delays, left: events - pending}
	var step func(a int64)
	step = func(a int64) {
		if h.left > 0 {
			h.left--
			next := a + 1
			eng.After(delays[a&int64(len(delays)-1)], func() { step(next) })
		}
	}
	for i := 0; i < pending; i++ {
		a := int64(i * 7)
		if closure {
			eng.Schedule(delays[i&(len(delays)-1)], func() { step(a) })
		} else {
			eng.ScheduleAction(delays[i&(len(delays)-1)], h, a, 0)
		}
	}
	mem0 := readMem()
	start := time.Now()
	eng.Run()
	wall := time.Since(start)
	mem := readMem().since(mem0)
	n := float64(eng.Processed())
	return float64(wall.Nanoseconds()) / n, float64(mem.mallocs) / n
}

func probeSim(e *env, m metrics, _ int) error {
	events := 2_000_000
	if e.smoke {
		events = 200_000
	}
	m["sim.hold_ns_per_event"], m["sim.hold_allocs_per_event"] = hold(e.seed, 4096, events, false)
	m["sim.hold_ns_per_event_64k"], _ = hold(e.seed, 65536, events, false)
	m["sim.hold_ns_per_event_closure"], _ = hold(e.seed, 4096, events, true)
	return nil
}

// --- netsim, core, routing ---

// injector sends one host's packets to its permutation partner at a
// fixed interval.
type injector struct {
	net      *netsim.Network
	src, dst topology.NodeID
	gap      sim.Time
}

func (in *injector) Run(left, _ int64) {
	in.net.Unicast(routing.FlowID(in.src), in.src, in.dst, 400, 0)
	if left > 1 {
		in.net.Scheduler().AfterAction(in.gap, in, left-1, 0)
	}
}

// fig17Archs builds the five Figure 17 architectures, routers included.
func fig17Archs(seed int64) ([]*core.Architecture, error) {
	var p core.ArchParams
	var out []*core.Architecture
	for _, build := range []func() (*core.Architecture, error){
		func() (*core.Architecture, error) { return core.ThreeTierTree(p) },
		func() (*core.Architecture, error) { return core.Jellyfish(p, rand.New(rand.NewSource(seed))) },
		func() (*core.Architecture, error) { return core.QuartzInCore(p) },
		func() (*core.Architecture, error) { return core.QuartzInEdge(p) },
		func() (*core.Architecture, error) { return core.QuartzInEdgeAndCore(p) },
	} {
		a, err := build()
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

func probeNetsim(e *env, m metrics, _ int) error {
	packets := 200_000
	if e.smoke {
		packets = 20_000
	}
	start := time.Now()
	if _, err := fig17Archs(e.seed); err != nil {
		return err
	}
	m["core.arch_build_ms"] = time.Since(start).Seconds() * 1e3

	start = time.Now()
	arch, err := core.QuartzInEdge(core.ArchParams{})
	if err != nil {
		return err
	}
	net, err := netsim.New(netsim.Config{Graph: arch.Graph, Router: arch.Router, SwitchModel: arch.Model})
	if err != nil {
		return err
	}
	m["netsim.build_ms"] = time.Since(start).Seconds() * 1e3

	// A seeded derangement of the hosts: host i sends to perm[i], one
	// 400-byte packet per microsecond (a third of its 10 Gb/s link).
	hosts := arch.Graph.Hosts()
	rng := rand.New(rand.NewSource(e.seed))
	perm := rng.Perm(len(hosts))
	for i := range perm {
		if perm[i] == i {
			j := (i + 1) % len(perm)
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	perHost := packets / len(hosts)
	for i, h := range hosts {
		in := &injector{net: net, src: h, dst: hosts[perm[i]], gap: sim.Microsecond}
		net.Scheduler().AfterAction(sim.Time(i)*sim.Nanosecond, in, int64(perHost), 0)
	}
	mem0 := readMem()
	start = time.Now()
	net.Run()
	wall := time.Since(start)
	mem := readMem().since(mem0)
	delivered, dropped := float64(net.Delivered()), float64(net.Dropped())
	sent := float64(perHost * len(hosts))
	if delivered+dropped != sent {
		return fmt.Errorf("netsim: sent %v packets, delivered %v + dropped %v", sent, delivered, dropped)
	}
	if delivered == 0 {
		return fmt.Errorf("netsim: no packet was delivered")
	}
	m["netsim.ns_per_pkt"] = float64(wall.Nanoseconds()) / sent
	m["netsim.events_per_pkt"] = float64(net.Scheduler().Processed()) / delivered
	m["netsim.allocs_per_pkt"] = float64(mem.mallocs) / sent
	m["netsim.drop_frac"] = dropped / sent

	// routing: walk seeded host pairs hop by hop through NextPort.
	calls, pairs := 0, 20_000
	if e.smoke {
		pairs = 2_000
	}
	start = time.Now()
	for i := 0; i < pairs; i++ {
		src, dst := hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]
		meta := routing.PacketMeta{Flow: routing.FlowID(i), Seq: uint64(i), Src: src, Dst: dst, Waypoint: -1}
		for node, hops := src, 0; node != dst; hops++ {
			port, err := arch.Router.NextPort(node, meta)
			if err != nil {
				return fmt.Errorf("routing: %w", err)
			}
			if hops > 16 {
				return fmt.Errorf("routing: no path from %d to %d within 16 hops", src, dst)
			}
			node = port.Peer
			calls++
		}
	}
	m["routing.next_port_ns"] = float64(time.Since(start).Nanoseconds()) / float64(max(calls, 1))
	return nil
}

// --- experiments and the analytic modules behind them ---

// timeRun runs exp repeatedly — at most three times, and no further
// once 1.5 s have gone — and returns the median wall time and mallocs.
func timeRun(e *env, exp experiments.Experiment, p experiments.Params, span int) (secs, mallocs float64, err error) {
	var walls, allocs sample
	began := time.Now()
	for rep := 0; rep < 3 && (rep == 0 || (!e.smoke && time.Since(began).Seconds() < 1.5)); rep++ {
		mem0 := readMem()
		sp := e.tr.begin("experiment:"+exp.Name, span, e.tr.opOf(span), 0)
		start := time.Now()
		out, rerr := exp.Run(context.Background(), p)
		wall := time.Since(start).Seconds()
		e.tr.finish(sp)
		if rerr != nil {
			return 0, 0, fmt.Errorf("%s: %w", exp.Name, rerr)
		}
		if out.Text == "" {
			return 0, 0, fmt.Errorf("%s: empty output", exp.Name)
		}
		walls = append(walls, wall)
		allocs = append(allocs, float64(readMem().since(mem0).mallocs))
	}
	return walls.p(50), allocs.p(50), nil
}

// analyticModule names the module whose time an analytic registry
// entry mostly measures.
var analyticModule = map[string]string{
	"fig5": "wdm", "fig6": "fault", "fig10": "flowsim", "oversub": "flowsim", "table9": "topology",
}

func probeExperiments(e *env, m metrics, span int) error {
	packet, sweep := paperParams(e), sweepParams(e, e.seed)
	for _, name := range []string{"fig17", "fig18", "fig20", "validate", "table8", "ablations"} {
		exp, err := findOne(name)
		if err != nil {
			return err
		}
		p := packet
		if exp.Sweep != nil {
			p = sweep
		}
		secs, mallocs, err := timeRun(e, exp, p, span)
		if err != nil {
			return err
		}
		m["experiments."+name+"_s"] = secs
		m["experiments."+name+"_allocs"] = mallocs
	}
	for name, module := range analyticModule {
		exp, err := findOne(name)
		if err != nil {
			return err
		}
		secs, _, err := timeRun(e, exp, packet, span)
		if err != nil {
			return err
		}
		m[module+"."+name+"_s"] = secs
	}

	// How well the cell executor uses the cores: table8 on one core
	// against table8 on all of them.
	t8, err := findOne("table8")
	if err != nil {
		return err
	}
	one := m["experiments.table8_s"]
	runtime.GOMAXPROCS(e.nproc)
	many, _, err := timeRun(e, t8, sweep, span)
	runtime.GOMAXPROCS(1)
	if err != nil {
		return err
	}
	m["experiments.cell_parallel_eff"] = one / (float64(e.nproc) * many)
	return nil
}

// --- scenario ---

func probeScenario(e *env, m metrics, _ int) error {
	reps := 30
	if e.smoke {
		reps = 3
	}
	var decode, compile, run sample
	for i := 0; i < reps; i++ {
		doc := coldDoc(derive(e.seed, -2, i))
		t0 := time.Now()
		file, err := scenario.Decode(doc, "bench-cold.json")
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("decode: %w", err)
		}
		compiled, err := scenario.Compile(file)
		t2 := time.Now()
		if err != nil {
			return fmt.Errorf("compile: %w", err)
		}
		out, err := compiled.Experiment.Run(context.Background(), compiled.Params)
		t3 := time.Now()
		if err != nil {
			return fmt.Errorf("run: %w", err)
		}
		if !deliveredRE.MatchString(out.Text) {
			return fmt.Errorf("run: no delivered/dropped line in %q", out.Text)
		}
		decode = append(decode, t1.Sub(t0).Seconds()*1e6)
		compile = append(compile, t2.Sub(t1).Seconds()*1e6)
		run = append(run, t3.Sub(t2).Seconds()*1e3)
	}
	m["scenario.decode_us"], m["scenario.compile_us"], m["scenario.run_ms"] = decode.p(50), compile.p(50), run.p(50)
	return nil
}

// --- service ---

// promValue finds one series in Prometheus text; 0 when absent (an
// empty histogram prints no quantiles).
func promValue(text, series string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}

func probeService(e *env, m metrics, _ int) error {
	// Direct calls: Submit + Wait on a service of its own, no HTTP.
	svc := service.New(service.Config{QueueCapacity: queueCap})
	ctx := context.Background()
	submit := func(req service.Request) (float64, error) {
		start := time.Now()
		job, err := svc.Submit(req)
		if err != nil {
			return 0, err
		}
		if err := job.Wait(ctx); err != nil {
			return 0, err
		}
		return time.Since(start).Seconds() * 1e6, nil
	}
	hot := service.Request{Experiment: "fig14", Params: service.ParamSpec{Seed: derive(e.seed, -1, 0), Trials: 5000, Tasks: 4, RPCs: 100}}
	if _, err := submit(hot); err != nil {
		return fmt.Errorf("filling the hot key: %w", err)
	}
	reps := 2000
	if e.smoke {
		reps = 50
	}
	var hit, nocache sample
	for i := 0; i < reps; i++ {
		us, err := submit(hot)
		if err != nil {
			return fmt.Errorf("submit hit: %w", err)
		}
		hit = append(hit, us)
		if us, err = submit(service.Request{Experiment: "table2", NoCache: true}); err != nil {
			return fmt.Errorf("submit nocache: %w", err)
		}
		nocache = append(nocache, us)
	}
	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	err := svc.Drain(dctx)
	cancel()
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	m["service.submit_hit_us"], m["service.submit_nocache_us"] = hit.p(50), nocache.p(50)

	// Over HTTP: a short untraced run of the svc_mix op sequence.
	sub := *e
	sub.tr, sub.seconds, sub.oneSetup = nil, 2, true
	res, err := svcMix(&sub)
	runtime.GOMAXPROCS(1)
	if err != nil {
		return err
	}
	if res.failed > 0 {
		return fmt.Errorf("HTTP run: %d of %d ops failed: %s", res.failed, res.attempted, res.firstError)
	}
	serviceMetrics(res, m)
	return nil
}

// serviceMetrics derives the service layer's figures from a svc_mix
// run and its closing /metrics scrape.
func serviceMetrics(res *runResult, m metrics) {
	m["service.hit_ms_p50"] = res.classMS["hit"].p(50)
	m["service.hit_ms_p99"] = res.classMS["hit"].p(99)
	m["service.nocache_ms_p50"] = res.classMS["nocache"].p(50)
	m["service.nocache_ms_p99"] = res.classMS["nocache"].p(99)
	m["service.cold_ms_p50"] = res.classMS["cold"].p(50)
	m["service.cold_ms_p95"] = res.classMS["cold"].p(95)
	m["service.result_bytes_p50"] = res.resultBytes.p(50)
	m["service.metrics_scrape_ms"] = res.scrapeMS
	text := res.metricsText
	m["service.queue_wait_ms_p50"] = promValue(text, `quartzd_queue_wait_us{quantile="0.5"}`) / 1e3
	m["service.run_ms_p50"] = promValue(text, `quartzd_job_run_us{quantile="0.5"}`) / 1e3
	hits, misses := promValue(text, "quartzd_cache_hits_total"), promValue(text, "quartzd_cache_misses_total")
	m["service.cache_hit_ratio"] = hits / math.Max(hits+misses, 1)
	m["service.rejected_429"] = promValue(text, `quartzd_submissions_total{outcome="rejected_full"}`)
}

// --- cluster ---

func probeCluster(e *env, m metrics, span int) error {
	runtime.GOMAXPROCS(e.nproc)
	defer runtime.GOMAXPROCS(1)
	reps, first := 3, -1 // iteration -1 is a warm-up
	if e.smoke {
		reps, first = 1, 0
	}
	p := func(fx, name, i int) experiments.Params {
		return sweepParams(e, derive(e.seed, -3-fx, name*100+i))
	}

	// Two workers against interleaved local runs of the same sweeps.
	w2, err := newClusterFixture(e.parallelism(), nil)
	if err != nil {
		return err
	}
	defer w2.close()
	cells := 0
	clusterS, localS := make([]sample, len(w2.exps)), make([]sample, len(w2.exps))
	before := w2.wire.snapshot()
	for i := first; i < reps; i++ {
		for n, exp := range w2.exps {
			params := p(0, n, i)
			t0 := time.Now()
			text, err := w2.sweep(exp, params, nil, 0)
			t1 := time.Now()
			if err != nil {
				return fmt.Errorf("%s: %w", exp.Name, err)
			}
			local, err := exp.Run(context.Background(), params)
			t2 := time.Now()
			if err != nil {
				return fmt.Errorf("%s locally: %w", exp.Name, err)
			}
			if local.Text != text {
				return fmt.Errorf("%s: cluster-merged text differs from a local run", exp.Name)
			}
			if i < 0 {
				before = w2.wire.snapshot()
				continue
			}
			cells += exp.Sweep.Cells(params)
			clusterS[n] = append(clusterS[n], t1.Sub(t0).Seconds())
			localS[n] = append(localS[n], t2.Sub(t1).Seconds())
		}
	}
	wire := w2.wire.snapshot().since(before)
	sweeps := float64(reps * len(w2.exps))
	for n, exp := range w2.exps {
		m["cluster.overhead_frac_"+exp.Name] = clusterS[n].p(50)/localS[n].p(50) - 1
	}
	m["cluster.http_requests_per_sweep"] = float64(wire.requests) / sweeps
	m["cluster.wire_bytes_per_cell"] = float64(wire.bytes) / float64(cells)
	m["cluster.dispatches_per_sweep"] = float64(wire.dispatches) / sweeps
	m["cluster.retries"] = float64(wire.posts - wire.distinctRanges)

	// One worker, for the scaling efficiency of the second.
	w1, err := newClusterFixture(1, nil)
	if err != nil {
		return err
	}
	defer w1.close()
	var oneS sample
	for i := first; i < reps; i++ {
		t0 := time.Now()
		if _, err := w1.sweep(w1.exps[0], p(1, 0, i), nil, 0); err != nil {
			return fmt.Errorf("%s on one worker: %w", w1.exps[0].Name, err)
		}
		if i >= 0 {
			oneS = append(oneS, time.Since(t0).Seconds())
		}
	}
	m["cluster.scaling_eff_w2"] = oneS.p(50) / (2 * clusterS[0].p(50))
	return nil
}

// md1ErrPct runs the registry's validate experiment at a pinned seed
// and returns the largest error of its M/D/1 rows against queueing
// theory, in percent, parsed from the rendered table.
func md1ErrPct(trials int) (float64, error) {
	exp, err := findOne("validate")
	if err != nil {
		return 0, err
	}
	out, err := exp.Run(context.Background(), experiments.Params{Seed: 2014, Trials: trials, Tasks: 4, RPCs: 200})
	if err != nil {
		return 0, fmt.Errorf("validate: %w", err)
	}
	return parseMD1(out.Text)
}

var md1RE = regexp.MustCompile(`(?m)^M/D/1\s.*\s([0-9.]+)%\s*$`)

func parseMD1(text string) (float64, error) {
	rows := md1RE.FindAllStringSubmatch(text, -1)
	if len(rows) == 0 {
		return 0, fmt.Errorf("validate: no M/D/1 rows in %q", text)
	}
	worst := 0.0
	for _, r := range rows {
		v, err := strconv.ParseFloat(r[1], 64)
		if err != nil {
			return 0, fmt.Errorf("validate: error column %q: %w", r[1], err)
		}
		worst = math.Max(worst, v)
	}
	return worst, nil
}
