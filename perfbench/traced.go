package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"clustersim/internal/engine"
	"clustersim/internal/obs"
	"clustersim/internal/partition"
	"clustersim/internal/pipeline"
	"clustersim/internal/prog"
	"clustersim/internal/sim"
	"clustersim/internal/trace"
	"clustersim/internal/workload"
)

// The traced run. It repeats the workload's timed work untraced and
// traced, with the engines' flight tracers, the client call observer and
// a CPU profile on; trace_overhead_pct compares the two walls. Per-layer host times that the engine does not span are
// recorded here, around the benchmark's own calls into each layer: the
// sim jobs are replayed outside the engine through the Annotate passes,
// trace.Expand and Core.Run.

// traceSim is the traced run of sim-membound or sim-compute. Untraced
// and traced passes alternate until the budget is spent, at least one
// of each; the first traced pass is profiled and supplies the engine's
// spans and counters. Layers the sim workloads do not reach (HTTP,
// store, codec, fleet) are measured on a short traced fleet-mixed probe
// in the same process.
func traceSim(ctx context.Context, cfg config, names []string, jobs []engine.Job, w io.Writer) (*outcome, error) {
	o := &outcome{}
	var plainWalls, tracedWalls []float64
	var results [][]*engine.Result
	var first simPass
	var tracer *obs.Tracer
	var shares map[string]float64
	var err error
	repeatFor(budget(cfg), nil, func() (struct{}, time.Duration) {
		plain := runSimPass(ctx, jobs, cfg.procs, nil)
		var traced simPass
		if tracer == nil {
			tracer = obs.NewTracer(len(jobs))
			shares, err = profile(func() { traced = runSimPass(ctx, jobs, cfg.procs, tracer) })
			first = traced
		} else {
			traced = runSimPass(ctx, jobs, cfg.procs, obs.NewTracer(len(jobs)))
		}
		plainWalls = append(plainWalls, plain.wall.Seconds())
		tracedWalls = append(tracedWalls, traced.wall.Seconds())
		results = append(results, traced.results, plain.results)
		return struct{}{}, plain.wall + traced.wall
	})
	if err != nil {
		return nil, err
	}
	o.attempted = int64(len(jobs) * len(results))
	checkSim(ctx, cfg, jobs, results, o)
	o.set("trace_overhead_pct", (median(tracedWalls)/median(plainWalls)-1)*100, "%")
	setShares(o, shares)

	spans := spanDurations(tracer)
	o.set("engine.queue_wait_ms_p50", quantile(msAll(spans["queue"]), 0.5), "ms")
	o.set("engine.queue_wait_ms_max", maxOf(msAll(spans["queue"])), "ms")
	st := first.stats
	o.set("engine.simulations", float64(st.Simulations), "count")
	o.set("engine.result_hits", float64(st.ResultHits), "count")
	o.set("engine.trace_hits", float64(st.TraceHits), "count")

	replayLayers(cfg, jobs, first.results, o)
	modelMetrics(o, first.results)
	if err := sharedLayers(ctx, cfg, names, w, o); err != nil {
		return nil, err
	}
	probe, err := tracedFleet(ctx, cfg, false)
	if err != nil {
		return nil, err
	}
	o.attempted += int64(len(probe.got))
	probe.check(ctx, cfg, o)
	probe.serviceLayers(o)
	return o, nil
}

// traceFleet is the traced run of fleet-mixed: the first tracedRounds
// rounds on a fresh untraced fleet, then the same rounds on a fresh
// traced fleet.
func traceFleet(ctx context.Context, cfg config, w io.Writer) (*outcome, error) {
	o := &outcome{}
	h, plan, err := fleetSetup(ctx, cfg, false, nil)
	if err != nil {
		return nil, err
	}
	var plain time.Duration
	var plainGot []delivery
	for n := 0; n < cfg.tracedRounds; n++ {
		r := runRound(ctx, cfg, h, plan)
		plain += r.wall
		plainGot = append(plainGot, r.got...)
	}
	h.close()

	ft, err := tracedFleet(ctx, cfg, true)
	if err != nil {
		return nil, err
	}
	o.attempted = int64(len(plainGot) + len(ft.got))
	firsts := ft.check(ctx, cfg, o)
	checkFleetRerun(plainGot, ft.got, o)
	o.set("trace_overhead_pct", (ft.wall.Seconds()/plain.Seconds()-1)*100, "%")
	setShares(o, ft.shares)
	ft.serviceLayers(o)

	spans := map[string][]time.Duration{}
	var hits, sims, traceHits int64
	for _, wk := range ft.h.workers {
		for k, v := range spanDurations(wk.eng.Tracer()) {
			spans[k] = append(spans[k], v...)
		}
		st := wk.eng.Stats()
		hits += st.ResultHits
		sims += st.Simulations
		traceHits += st.TraceHits
	}
	o.set("engine.queue_wait_ms_p50", quantile(msAll(spans["queue"]), 0.5), "ms")
	o.set("engine.queue_wait_ms_max", maxOf(msAll(spans["queue"])), "ms")
	o.set("engine.simulations", float64(sims), "count")
	o.set("engine.result_hits", float64(hits), "count")
	o.set("engine.trace_hits", float64(traceHits), "count")

	jobs := make([]engine.Job, len(firsts))
	results := make([]*engine.Result, len(firsts))
	for i, d := range firsts {
		jobs[i], results[i] = d.job, d.res
	}
	replayLayers(cfg, jobs, results, o)
	modelMetrics(o, results)
	return o, sharedLayers(ctx, cfg, compute, w, o)
}

// checkFleetRerun requires the traced rerun to have delivered the same
// jobs, in the same batches, as the untraced rounds: the plan is a
// function of the seed alone.
func checkFleetRerun(plain, traced []delivery, o *outcome) {
	if len(plain) != len(traced) {
		o.fail("fleet: traced rerun delivered %d jobs, untraced %d", len(traced), len(plain))
		return
	}
	for i := range plain {
		if jobKey(plain[i].job) != jobKey(traced[i].job) || plain[i].isNew != traced[i].isNew {
			o.fail("fleet: traced rerun diverged from the untraced plan at job %d", i)
			return
		}
		if plain[i].res != nil && traced[i].res != nil && !sameResult(plain[i].res, traced[i].res) {
			o.fail("fleet: %s differs between the untraced and traced runs", jobKey(plain[i].job))
		}
	}
}

// sharedLayers reports what every traced run measures the same way:
// the per-simpoint core table and the DRAM share on two seeds.
func sharedLayers(ctx context.Context, cfg config, names []string, w io.Writer, o *outcome) error {
	if err := coreTable(cfg, w, o); err != nil {
		return err
	}
	for _, s := range []struct {
		name string
		seed int64
	}{{"default_seed", 0}, {"heldout_seed", heldOutSeed}} {
		var jobs []engine.Job
		for _, n := range names {
			jobs = append(jobs, engine.Job{Simpoint: seededSimpoint(n, s.seed, 0), Setup: sim.SetupOP(2),
				Opts: engine.RunOptions{NumUops: cfg.coreUops}})
		}
		p := runSimPass(ctx, jobs, cfg.procs, nil)
		var l1, l2, dram float64
		for i, r := range p.results {
			if err := resultErr(jobs[i], r); err != nil {
				o.failed++
				o.fail("dram share: %v", err)
				continue
			}
			l1 += float64(r.Metrics.L1Hits)
			l2 += float64(r.Metrics.L2Hits)
			dram += float64(r.Metrics.MemAccesses)
		}
		o.set("model.dram_share."+s.name, ratio(dram, l1+l2+dram), "share")
	}
	return nil
}

// spanDurations groups a tracer's recorded spans by stage name.
func spanDurations(t *obs.Tracer) map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for _, r := range t.Records() {
		for _, s := range r.Spans {
			out[s.Name] = append(out[s.Name], s.Dur)
		}
	}
	return out
}

// modelMetrics reports the simulated statistics summed over the results.
// They are deterministic: a change that only makes the simulator faster
// leaves every one of them exactly equal.
func modelMetrics(o *outcome, results []*engine.Result) {
	var cycles, uops, copies, l1, l2, dram, fwd, fetch, links, deps, maps, steered, imb float64
	stalls := make([]float64, len(stallNames))
	n := 0
	for _, r := range results {
		if r == nil || r.Metrics == nil {
			continue
		}
		m := r.Metrics
		n++
		cycles += float64(m.Cycles)
		uops += float64(m.Uops)
		copies += float64(m.Copies)
		l1 += float64(m.L1Hits)
		l2 += float64(m.L2Hits)
		dram += float64(m.MemAccesses)
		fwd += float64(m.LSQForwards)
		fetch += float64(m.FetchStallCycles)
		links += float64(m.LinkConflicts)
		imb += m.WorkloadImbalance()
		for i := range stalls {
			stalls[i] += float64(m.StallCycles[pipeline.StallPolicy+pipeline.StallReason(i)])
		}
		deps += float64(r.Complexity.DependenceChecks)
		maps += float64(r.Complexity.MapReads)
		steered += float64(r.Complexity.Steered)
	}
	o.set("model.cycles", cycles, "count")
	o.set("model.ipc", ratio(uops, cycles), "uops/cycle")
	o.set("model.copies_per_kuop", ratio(copies*1000, uops), "1/kuop")
	o.set("model.imbalance", ratio(imb, float64(n)), "ratio")
	o.set("model.l1_hits", l1, "count")
	o.set("model.l2_hits", l2, "count")
	o.set("model.dram_accesses", dram, "count")
	o.set("model.dram_share", ratio(dram, l1+l2+dram), "share")
	o.set("model.lsq_forwards", fwd, "count")
	for i, s := range stallNames {
		o.set("model.stall_cycles."+s, stalls[i], "count")
	}
	o.set("model.fetch_stall_cycles", fetch, "count")
	o.set("model.link_conflicts", links, "count")
	o.set("steer.dep_checks_per_kuop", ratio(deps*1000, steered), "1/kuop")
	o.set("steer.map_reads_per_kuop", ratio(maps*1000, steered), "1/kuop")
}

// passOptions mirrors how the engine derives a compiler pass's options
// from the machine being run; replayed results are compared with the
// engine's, so any drift fails the gate.
func passOptions(ps *engine.Pass, cfg pipeline.Config) partition.Options {
	return partition.Options{
		NumVC:        ps.NumTargets,
		NumClusters:  ps.NumTargets,
		IssueInt:     cfg.Cluster.IssueInt,
		IssueFP:      cfg.Cluster.IssueFP,
		CommLatency:  cfg.Net.Latency + 1,
		MaxChainLen:  ps.MaxChainLen,
		RegionMaxOps: ps.RegionMaxOps,
	}
}

// annotateFor runs the setup's Annotate pass over a clean clone of the
// simpoint's program.
func annotateFor(sp *workload.Simpoint, s engine.Setup, cfg pipeline.Config) *prog.Program {
	p := sp.Program.Clone()
	p.ClearAnnotations()
	if s.Pass != nil {
		s.Pass.Run(p, passOptions(s.Pass, cfg))
	}
	return p
}

// replayLayers replays every job outside the engine, one simpoint at a
// time. As the engine's caches do, it annotates each (simpoint, pass)
// once and expands each (annotated program, length) once, then runs the
// simpoint's jobs on procs goroutines. It reports the host time of each
// layer; each replayed result must equal the engine's.
func replayLayers(cfg config, jobs []engine.Job, want []*engine.Result, o *outcome) {
	bySimpoint := map[*workload.Simpoint][]int{}
	var order []*workload.Simpoint
	for i, j := range jobs {
		if bySimpoint[j.Simpoint] == nil {
			order = append(order, j.Simpoint)
		}
		bySimpoint[j.Simpoint] = append(bySimpoint[j.Simpoint], i)
	}
	type passKey struct {
		kind string
		opts partition.Options
	}
	type traceKey struct {
		pass passKey
		uops int
	}
	var annotate, expand, run time.Duration
	var expanded, cycles int64
	for _, sp := range order {
		idx := bySimpoint[sp]
		progs := map[passKey]*prog.Program{}
		traces := map[traceKey]*trace.Trace{}
		tr := make([]*trace.Trace, len(idx))
		for k, i := range idx {
			j := jobs[i]
			mc := pipeline.DefaultConfig(j.Setup.NumClusters)
			var pk passKey
			if j.Setup.Pass != nil {
				pk = passKey{j.Setup.Pass.Kind, passOptions(j.Setup.Pass, mc)}
			}
			p := progs[pk]
			if p == nil {
				t := time.Now()
				p = annotateFor(sp, j.Setup, mc)
				annotate += time.Since(t)
				progs[pk] = p
			}
			tk := traceKey{pk, j.Opts.NumUops}
			if tr[k] = traces[tk]; tr[k] == nil {
				t := time.Now()
				tr[k] = trace.Expand(p, trace.Options{NumUops: j.Opts.NumUops, Seed: sp.Seed})
				expand += time.Since(t)
				expanded += int64(len(tr[k].Uops))
				traces[tk] = tr[k]
			}
		}
		runs := make([]time.Duration, len(idx))
		cyc := make([]int64, len(idx))
		errs := make([]error, len(idx))
		forEach(len(idx), cfg.procs, func(k int) {
			j := jobs[idx[k]]
			core, err := pipeline.NewCore(pipeline.DefaultConfig(j.Setup.NumClusters), j.Setup.NewPolicy(), tr[k])
			if err != nil {
				errs[k] = fmt.Errorf("replay of %s: %w", jobKey(j), err)
				return
			}
			t := time.Now()
			m, err := core.Run()
			runs[k] = time.Since(t)
			got := &engine.Result{Simpoint: sp, Setup: j.Setup.Label, Metrics: m, Complexity: core.ComplexityOf(), Err: err}
			if !sameResult(got, want[idx[k]]) {
				errs[k] = fmt.Errorf("replay of %s outside the engine differs from the engine's result", jobKey(j))
				return
			}
			cyc[k] = m.Cycles
		})
		for k, err := range errs {
			if err != nil {
				o.fail("%v", err)
			}
			run += runs[k]
			cycles += cyc[k]
		}
	}
	o.set("partition.annotate_ms", ms(annotate), "ms")
	o.set("trace.expand_ms", ms(expand), "ms")
	o.set("trace.expand_uops_per_s", ratio(float64(expanded), expand.Seconds()), "1/s")
	o.set("pipeline.core_ns_per_cycle", ratio(float64(run), float64(cycles)), "ns")
}

// coreTable times Core.Run alone, one simulation at a time, on each of
// the eight quick-suite simpoints under VC on two clusters, and prints
// the ROADMAP's per-simpoint core throughput table.
func coreTable(cfg config, w io.Writer, o *outcome) error {
	setup := sim.SetupVC(2, 2)
	fmt.Fprintf(w, "core throughput, VC on 2 clusters, %d uops, seed %d\n| simpoint | uops/s |\n|---|---|\n", cfg.coreUops, cfg.seed)
	for _, n := range quickPoints {
		sp := seededSimpoint(n, cfg.seed, 0)
		mc := pipeline.DefaultConfig(2)
		tr := trace.Expand(annotateFor(sp, setup, mc), trace.Options{NumUops: cfg.coreUops, Seed: sp.Seed})
		core, err := pipeline.NewCore(mc, setup.NewPolicy(), tr)
		if err != nil {
			return fmt.Errorf("core table: %w", err)
		}
		t := time.Now()
		m, err := core.Run()
		d := time.Since(t)
		if err != nil {
			o.failed++
			o.fail("core table %s: %v", n, err)
			continue
		}
		rate := float64(m.Uops) / d.Seconds()
		fmt.Fprintf(w, "| %s | %.0f |\n", n, rate)
		o.set("pipeline.core_uops_per_s."+n, rate, "1/s")
	}
	return nil
}

// calls collects client HTTP calls by route.
type calls struct {
	mu      sync.Mutex
	durs    map[string][]time.Duration
	retries int64
	refused int64
}

func (c *calls) observe(route string, status int, d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.durs[route] = append(c.durs[route], d)
	if status == 0 || status == http.StatusTooManyRequests || status >= 500 {
		c.retries++
	}
	if status == http.StatusTooManyRequests {
		c.refused++
	}
}

// serviceRoutes names the clusterd routes a fleet job passes through.
var serviceRoutes = []struct{ name, pattern string }{
	{"submit", "/v1/jobs"},
	{"stream", "/v1/jobs/{id}/stream"},
	{"result", "/v1/results"},
}

// fleetTrace is a traced fleet run of the first tracedRounds rounds.
type fleetTrace struct {
	h      *fleetHarness
	calls  *calls
	wall   time.Duration
	got    []delivery
	shares map[string]float64
	epoch  int64
	// scraped holds each route's latency histogram from /metrics,
	// merged over status codes and workers.
	scraped map[string]obs.Snapshot
	// blobs holds the encoded result of each distinct job, once checked.
	blobs [][]byte
}

// tracedFleet runs the traced rounds and scrapes /metrics; with prof
// set, it also profiles the rounds. The harness is closed on return.
func tracedFleet(ctx context.Context, cfg config, prof bool) (*fleetTrace, error) {
	ft := &fleetTrace{calls: &calls{durs: map[string][]time.Duration{}}}
	h, plan, err := fleetSetup(ctx, cfg, true, ft.calls.observe)
	if err != nil {
		return nil, err
	}
	defer h.close()
	ft.h = h
	epoch0 := h.runner.FleetStats().Epoch
	rounds := func() {
		for n := 0; n < cfg.tracedRounds; n++ {
			r := runRound(ctx, cfg, h, plan)
			ft.wall += r.wall
			ft.got = append(ft.got, r.got...)
		}
	}
	if prof {
		if ft.shares, err = profile(rounds); err != nil {
			return nil, err
		}
	} else {
		rounds()
	}
	ft.epoch = h.runner.FleetStats().Epoch - epoch0
	ft.scraped = map[string]obs.Snapshot{}
	hc := &http.Client{Transport: h.transport}
	for _, wk := range h.workers {
		if err := scrapeRoutes(ctx, hc, "http://"+wk.name, ft.scraped); err != nil {
			return nil, err
		}
	}
	return ft, nil
}

// check gates the traced deliveries and returns the first delivery of
// each distinct job.
func (ft *fleetTrace) check(ctx context.Context, cfg config, o *outcome) []delivery {
	firsts, blobs := checkFleet(ctx, cfg, ft.got, o)
	ft.blobs = blobs
	return firsts
}

// serviceLayers reports the HTTP, store, codec and fleet layers.
func (ft *fleetTrace) serviceLayers(o *outcome) {
	c := ft.calls
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range serviceRoutes {
		d := msAll(c.durs[r.pattern])
		o.set("client."+r.name+"_ms_p50", quantile(d, 0.5), "ms")
		o.set("client."+r.name+"_ms_p99", quantile(d, 0.99), "ms")
		if snap, ok := ft.scraped[r.pattern]; ok {
			o.set("service.http_ms_p99."+r.name, snap.Quantile(0.99)*1000, "ms")
		}
	}
	o.set("client.retries", float64(c.retries), "count")
	o.set("admission.rejected", float64(c.refused), "count")

	spans := map[string][]time.Duration{}
	var gets []time.Duration
	var hits, misses float64
	var jobs []float64
	for _, wk := range ft.h.workers {
		for k, v := range spanDurations(wk.eng.Tracer()) {
			spans[k] = append(spans[k], v...)
		}
		wk.gets.mu.Lock()
		gets = append(gets, wk.gets.durs...)
		wk.gets.mu.Unlock()
		st := wk.mem.Stats()
		hits += float64(st.Hits)
		misses += float64(st.Misses)
		es := wk.eng.Stats()
		jobs = append(jobs, float64(es.ResultHits+es.ResultMisses))
	}
	o.set("engine.encode_ms_p50", quantile(msAll(spans["encode"]), 0.5), "ms")
	o.set("engine.store_put_ms_p50", quantile(msAll(spans["store_put"]), 0.5), "ms")
	o.set("store.get_ms_p50", quantile(msAll(gets), 0.5), "ms")
	o.set("store.hit_ratio", ratio(hits, hits+misses), "ratio")
	var bytes float64
	for _, b := range ft.blobs {
		bytes += float64(len(b))
	}
	o.set("codec.result_bytes_mean", ratio(bytes, float64(len(ft.blobs))), "bytes")
	o.set("fleet.jobs_max_over_mean", ratio(maxOf(jobs), sum(jobs)/float64(len(jobs))), "ratio")
	o.set("fleet.reshards", float64(ft.epoch), "count")
	o.set("fleet.repeat_share", repeatShare(ft.got), "share")
}

// scrapeRoutes reads a server's /metrics and merges its per-route HTTP
// latency histograms, over status codes, into into.
func scrapeRoutes(ctx context.Context, hc *http.Client, base string, into map[string]obs.Snapshot) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("scraping %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("scraping %s: %s", base, resp.Status)
	}
	// route → bound → cumulative count, merged over status codes; the
	// +Inf bucket is the route's total.
	counts := map[string]map[float64]int64{}
	total := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	const prefix = "clusterd_http_request_seconds_bucket{"
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		end := strings.LastIndexByte(line, '}')
		labels, value := line[len(prefix):end], strings.TrimSpace(line[end+1:])
		route, le := label(labels, "route"), label(labels, "le")
		n, err := strconv.ParseInt(value, 10, 64)
		if err != nil || route == "" || le == "" {
			return fmt.Errorf("scraping %s: malformed line %q", base, line)
		}
		if le == "+Inf" {
			total[route] += n
			continue
		}
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil {
			return fmt.Errorf("scraping %s: malformed line %q", base, line)
		}
		if counts[route] == nil {
			counts[route] = map[float64]int64{}
		}
		counts[route][bound] += n
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("scraping %s: %w", base, err)
	}
	for route, byBound := range counts {
		var bounds []float64
		for b := range byBound {
			bounds = append(bounds, b)
		}
		sort.Float64s(bounds)
		snap := obs.Snapshot{Bounds: bounds, Counts: make([]int64, len(bounds)+1), Count: total[route]}
		for i, b := range bounds {
			snap.Counts[i] = byBound[b]
		}
		snap.Counts[len(bounds)] = total[route]
		if prev, ok := into[route]; ok {
			snap = prev.Merge(snap)
		}
		into[route] = snap
	}
	return nil
}

// label returns the value of name in a Prometheus label list, or "".
func label(labels, name string) string {
	_, rest, ok := strings.Cut(labels, name+`="`)
	if !ok {
		return ""
	}
	v, _, ok := strings.Cut(rest, `"`)
	if !ok {
		return ""
	}
	return v
}
