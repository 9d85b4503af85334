package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"clustersim/internal/engine"
	"clustersim/internal/obs"
	"clustersim/internal/sim"
	"clustersim/internal/stats"
	"clustersim/internal/workload"
)

// membound and compute are the simpoints of sim-membound and
// sim-compute: the three quick-suite points whose memory ops mostly go
// to DRAM, and the five whose working sets fit the modelled caches.
var (
	membound = []string{"gcc-1", "mcf", "ammp"}
	compute  = []string{"gzip-1", "crafty", "swim", "galgel", "art-1"}
)

// paperSetups are the 10 configurations of Fig 5 (2 clusters) and Fig 7
// (4 clusters), OP first in each group.
func paperSetups() []engine.Setup {
	return []engine.Setup{
		sim.SetupOP(2), sim.SetupOneCluster(2), sim.SetupOB(2), sim.SetupRHOP(2), sim.SetupVC(2, 2),
		sim.SetupOP(4), sim.SetupOB(4), sim.SetupRHOP(4), sim.SetupVC(4, 4), sim.SetupVC(2, 4),
	}
}

// paperAvg holds the paper's CPU2000 average slowdowns vs OP, keyed by
// cluster count and setup label; internal/experiments prints the same
// figures in its Fig 5 and Fig 7 reports.
var paperAvg = map[string]float64{
	"2/one-cluster": 12.19, "2/OB": 6.50, "2/RHOP": 5.40, "2/VC": 2.62,
	"4/OB": 12.45, "4/RHOP": 12.69, "4/VC": 12.96, "4/VC(2->4)": 3.64,
}

// seedOf derives a generator seed from a string the way the suite
// derives its own (FNV-1a, top bit cleared).
func seedOf(s string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// seededSimpoint regenerates one variant of a suite simpoint from the
// benchmark seed. Variant 0 of seed 0 reproduces the canonical suite
// program and trace seed; every other (seed, variant) pair draws a fresh
// program from the same benchmark spec.
func seededSimpoint(name string, seed int64, variant int) *workload.Simpoint {
	bench := name
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		bench = name[:i]
	}
	spec := workload.SpecByName(bench)
	gen, tr := name+"/gen", name+"/trace"
	if seed != 0 || variant != 0 {
		gen, tr = fmt.Sprintf("%s/%d.%d", gen, seed, variant), fmt.Sprintf("%s/%d.%d", tr, seed, variant)
	}
	return &workload.Simpoint{
		Name: name, Bench: bench, FP: spec.FP, Weight: 1,
		Program: workload.Generate(spec, seedOf(gen)),
		Seed:    seedOf(tr),
	}
}

// simJobs builds the workload's job set: every variant of every simpoint
// under every paper setup, in an order shuffled from the seed. An engine
// starts a large job set in roughly that order, and a shuffle keeps a
// pass's slow and fast programs mixed, so the median job latency does
// not hinge on which programs happen to run first.
func simJobs(names []string, seed int64, variants, uops int) []engine.Job {
	var jobs []engine.Job
	for v := 0; v < variants; v++ {
		for _, n := range names {
			sp := seededSimpoint(n, seed, v)
			for _, s := range paperSetups() {
				jobs = append(jobs, engine.Job{Simpoint: sp, Setup: s, Opts: engine.RunOptions{NumUops: uops}})
			}
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// simPass is one pass of the job set through a fresh engine.
type simPass struct {
	wall, cpu time.Duration
	results   []*engine.Result
	// latency is each job's time from submission to delivery.
	latency []time.Duration
	// stats are the engine's counters after the pass; the engine itself,
	// with its caches and pooled cores, is not kept.
	stats engine.CacheStats
}

// runSimPass starts from a freshly collected heap, so each pass's memory
// peak does not depend on how much garbage earlier passes left.
func runSimPass(ctx context.Context, jobs []engine.Job, procs int, tracer *obs.Tracer) simPass {
	runtime.GC()
	eng := engine.New(engine.Options{Parallelism: procs, Tracer: tracer})
	p := simPass{results: make([]*engine.Result, len(jobs)), latency: make([]time.Duration, len(jobs))}
	t := startTimer()
	for jr := range eng.Stream(ctx, jobs) {
		p.results[jr.Index] = jr.Result
		p.latency[jr.Index] = time.Since(t.wall)
	}
	p.wall, p.cpu = t.stop()
	p.stats = eng.Stats()
	return p
}

// repeatFor calls once until the budget is spent, starting another call
// only while the previous call's duration still fits, or while need
// (if set) reports that the calls so far are not enough; it always calls
// at least once.
func repeatFor[T any](budget time.Duration, need func() bool, once func() (T, time.Duration)) []T {
	start := time.Now()
	var out []T
	for {
		v, d := once()
		out = append(out, v)
		if time.Since(start)+d > budget && (need == nil || !need()) {
			return out
		}
	}
}

func budget(cfg config) time.Duration { return time.Duration(cfg.seconds * float64(time.Second)) }

// setupTimes runs set-up cfg.setupReps times and returns the last
// result and the median duration in seconds. Before each repetition,
// untimed, release (if set) tears down the previous result and a full
// garbage collection runs, so no repetition pays for the one before.
func setupTimes[T any](cfg config, once func() (T, error), release func(T)) (T, float64, error) {
	var v T
	var secs []float64
	for i := 0; i < max(cfg.setupReps, 1); i++ {
		if i > 0 && release != nil {
			release(v)
		}
		runtime.GC()
		t := time.Now()
		var err error
		if v, err = once(); err != nil {
			return v, 0, err
		}
		secs = append(secs, time.Since(t).Seconds())
	}
	return v, median(secs), nil
}

// runSim runs sim-membound or sim-compute.
func runSim(ctx context.Context, cfg config, names []string, w io.Writer) (*outcome, error) {
	jobs, setupS, err := setupTimes(cfg, func() ([]engine.Job, error) {
		return simJobs(names, cfg.seed, cfg.simVariants, cfg.simUops), nil
	}, nil)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return traceSim(ctx, cfg, names, jobs, w)
	}
	passes := repeatFor(budget(cfg), nil, func() (simPass, time.Duration) {
		p := runSimPass(ctx, jobs, cfg.procs, nil)
		return p, p.wall
	})
	o := &outcome{}
	o.set("peak_rss_mb", peakRSSMB(), "MB")
	o.set("setup_s", setupS, "s")

	var walls, cpus, rates, jobRates, lat []float64
	for _, p := range passes {
		uops := 0.0
		for _, r := range p.results {
			if r != nil && r.Metrics != nil {
				uops += float64(r.Metrics.Uops)
			}
		}
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
		rates = append(rates, uops/p.wall.Seconds())
		jobRates = append(jobRates, float64(len(jobs))/p.wall.Seconds())
		lat = append(lat, msAll(p.latency)...)
	}
	o.set("wall_s", median(walls), "s")
	o.set("cpu_s", median(cpus), "s")
	o.set("sim_uops_per_s", median(rates), "1/s")
	o.set("jobs_per_s", median(jobRates), "1/s")
	o.set("job_p50_ms", quantile(lat, 0.5), "ms")
	o.set("job_p99_ms", quantile(lat, 0.99), "ms")
	fmt.Fprintf(w, "%s: %d passes of %d jobs, walls %.3g s; job latency over %d samples\n",
		cfg.workload, len(passes), len(jobs), walls, len(lat))

	o.attempted = int64(len(jobs) * len(passes))
	results := make([][]*engine.Result, len(passes))
	for i, p := range passes {
		results[i] = p.results
	}
	checkSim(ctx, cfg, jobs, results, o)
	o.set("paper_err_pp", paperErr(jobs, passes[0].results), "pp")
	return o, nil
}

// paperErr is the mean absolute gap, in percentage points, between each
// job's slowdown vs OP and the paper's CPU2000 average for its setup,
// over every job of a non-OP paper setup. Jobs are compared with the OP
// run of the same program, trace length and cluster count; jobs without
// one are skipped. NaN when no job has a baseline.
//
// Averaging the gap per job rather than per setup keeps the figure
// steady from seed to seed: a setup whose mean slowdown lands near the
// paper's figure would otherwise swing the result with every program
// drawn.
func paperErr(jobs []engine.Job, results []*engine.Result) float64 {
	group := func(j engine.Job) string {
		return fmt.Sprintf("%s|%d|%d|%d", j.Simpoint.Name, j.Simpoint.Seed, j.Opts.NumUops, j.Setup.NumClusters)
	}
	base := map[string]int64{}
	for i, j := range jobs {
		if j.Setup.Label == "OP" && results[i] != nil && results[i].Metrics != nil {
			base[group(j)] = results[i].Metrics.Cycles
		}
	}
	var gaps []float64
	for i, j := range jobs {
		target, paper := paperAvg[fmt.Sprintf("%d/%s", j.Setup.NumClusters, j.Setup.Label)]
		b, ok := base[group(j)]
		if !paper || !ok || results[i] == nil || results[i].Metrics == nil {
			continue
		}
		gaps = append(gaps, math.Abs(stats.SlowdownPct(results[i].Metrics.Cycles, b)-target))
	}
	if len(gaps) == 0 {
		return math.NaN()
	}
	return sum(gaps) / float64(len(gaps))
}
