package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"clustersim/client"
	"clustersim/fleet"
	"clustersim/internal/engine"
	"clustersim/internal/obs"
	"clustersim/internal/service"
	"clustersim/internal/sim"
	"clustersim/internal/store"
	"clustersim/internal/workload"
)

// fleetWorkers is the number of clusterd servers the process hosts.
const fleetWorkers = 2

// worker is one in-process clusterd server on a loopback listener.
type worker struct {
	eng  *engine.Engine
	mem  *store.Memory
	gets *timedStore // nil unless traced
	srv  *http.Server
	// name is the worker's host name in the URL the fleet knows it by.
	name  string
	serve chan error
}

// fleetHarness is the fleet-mixed system under test: the servers and the
// fleet.Runner in front of them.
type fleetHarness struct {
	workers   []*worker
	runner    *fleet.Runner
	transport *http.Transport
	cancel    context.CancelFunc
}

// startFleet starts the servers and the runner. Each server mirrors
// clusterd's defaults except that it runs one simulation at a time; a
// traced harness records engine spans and times every store Get, and
// observe, if set, sees every client HTTP call.
//
// The fleet shards jobs on a hash ring built from its worker URLs, so
// the workers are named by fixed URLs that the client's transport dials
// at their ephemeral loopback ports: the shard split is then the same in
// every run instead of depending on the ports the kernel hands out.
func startFleet(ctx context.Context, traced bool, observe func(string, int, time.Duration)) (*fleetHarness, error) {
	sctx, cancel := context.WithCancel(ctx)
	h := &fleetHarness{cancel: cancel, transport: client.DefaultTransport.Clone()}
	addrs := map[string]string{}
	var urls []string
	for i := 0; i < fleetWorkers; i++ {
		w := &worker{mem: store.NewMemory(256 << 20), serve: make(chan error, 1)}
		var st store.Store = w.mem
		var tracer *obs.Tracer
		if traced {
			w.gets = &timedStore{Store: w.mem}
			st = w.gets
			tracer = obs.NewTracer(4096)
		}
		w.eng = engine.New(engine.Options{Parallelism: 1, ResultStore: st, Tracer: tracer})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			h.close()
			return nil, fmt.Errorf("listening: %w", err)
		}
		w.srv = &http.Server{Handler: service.New(sctx, w.eng, st)}
		w.name = fmt.Sprintf("worker-%d", i)
		go func() { w.serve <- w.srv.Serve(ln) }()
		h.workers = append(h.workers, w)
		addrs[w.name+":80"] = ln.Addr().String()
		urls = append(urls, "http://"+w.name)
	}
	var dialer net.Dialer
	h.transport.Proxy = nil // the names resolve only here, never through a proxy
	h.transport.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if a, ok := addrs[addr]; ok {
			addr = a
		}
		return dialer.DialContext(ctx, network, addr)
	}
	copts := []client.Option{client.WithHTTPClient(&http.Client{Transport: h.transport})}
	if observe != nil {
		copts = append(copts, client.WithCallObserver(observe))
	}
	r, err := fleet.New(urls, fleet.WithClientOptions(copts...))
	if err != nil {
		h.close()
		return nil, err
	}
	h.runner = r
	return h, nil
}

// close stops the runner and the servers and waits for each server's
// Serve to return.
func (h *fleetHarness) close() {
	if h.runner != nil {
		h.runner.Close()
	}
	h.transport.CloseIdleConnections()
	for _, w := range h.workers {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := w.srv.Shutdown(ctx); err != nil {
			w.srv.Close()
		}
		cancel()
		if err := <-w.serve; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: server %s: %v\n", w.name, err)
		}
	}
	h.cancel()
}

// timedStore times every Get of the store it wraps.
type timedStore struct {
	store.Store
	mu   sync.Mutex
	durs []time.Duration
}

func (s *timedStore) Get(key string) ([]byte, bool) {
	t := time.Now()
	blob, ok := s.Store.Get(key)
	d := time.Since(t)
	s.mu.Lock()
	s.durs = append(s.durs, d)
	s.mu.Unlock()
	return blob, ok
}

// fleetPlan draws fleet-mixed's job sequence from the seed. A new job
// belongs to an item, one compute-bound canonical simpoint at a trace
// length not drawn before; items take the simpoints in turn, in an
// order shuffled afresh each cycle, and an item's 10 paper-setup jobs
// are issued in shuffled order. A repeat re-submits a job delivered in
// an earlier batch. Each batch slot is a repeat with probability one
// half, once any job has been delivered.
type fleetPlan struct {
	cfg     config
	rng     *rand.Rand
	points  []*workload.Simpoint
	setups  []engine.Setup
	used    map[string]bool
	cycle   []*workload.Simpoint
	pending []engine.Job
	pool    []engine.Job
	// items are the drawn items, each in paper-setup order.
	items [][]engine.Job
}

// fleetPoints are the canonical suite simpoints fleet jobs run.
func fleetPoints() []*workload.Simpoint {
	want := map[string]bool{}
	for _, n := range compute {
		want[n] = true
	}
	var out []*workload.Simpoint
	for _, sp := range workload.Suite() {
		if want[sp.Name] {
			out = append(out, sp)
		}
	}
	return out
}

func newFleetPlan(cfg config, points []*workload.Simpoint) *fleetPlan {
	return &fleetPlan{cfg: cfg, rng: rand.New(rand.NewSource(cfg.seed)), points: points,
		setups: paperSetups(), used: map[string]bool{}}
}

func (p *fleetPlan) newJob() engine.Job {
	if len(p.pending) == 0 {
		if len(p.cycle) == 0 {
			p.cycle = append(p.cycle, p.points...)
			p.rng.Shuffle(len(p.cycle), func(i, j int) { p.cycle[i], p.cycle[j] = p.cycle[j], p.cycle[i] })
		}
		sp := p.cycle[0]
		p.cycle = p.cycle[1:]
		var uops int
		for {
			uops = p.cfg.fleetUops + p.rng.Intn(p.cfg.fleetUopsSpread)
			if k := fmt.Sprintf("%s|%d", sp.Name, uops); !p.used[k] {
				p.used[k] = true
				break
			}
		}
		item := make([]engine.Job, len(p.setups))
		for i, s := range p.setups {
			item[i] = engine.Job{Simpoint: sp, Setup: s, Opts: engine.RunOptions{NumUops: uops}}
		}
		p.items = append(p.items, item)
		p.pending = append([]engine.Job(nil), item...)
		p.rng.Shuffle(len(p.pending), func(i, j int) { p.pending[i], p.pending[j] = p.pending[j], p.pending[i] })
	}
	j := p.pending[0]
	p.pending = p.pending[1:]
	return j
}

// nextBatch draws one batch; no job appears twice in it.
func (p *fleetPlan) nextBatch() ([]engine.Job, []bool) {
	jobs := make([]engine.Job, 0, p.cfg.batchSize)
	isNew := make([]bool, 0, p.cfg.batchSize)
	in := map[string]bool{}
	for len(jobs) < p.cfg.batchSize {
		j, fresh := engine.Job{}, true
		if len(p.pool) > 0 && p.rng.Intn(2) == 0 {
			j, fresh = p.pool[p.rng.Intn(len(p.pool))], false
			if in[jobKey(j)] {
				continue
			}
		} else {
			j = p.newJob()
		}
		in[jobKey(j)] = true
		jobs = append(jobs, j)
		isNew = append(isNew, fresh)
	}
	return jobs, isNew
}

// fleetRound is one round of batches, run back to back: the closed loop
// submits a batch only after every result of the previous one arrived.
type fleetRound struct {
	wall, cpu time.Duration
	latency   []time.Duration
	newUops   int64
	got       []delivery
}

func runRound(ctx context.Context, cfg config, h *fleetHarness, plan *fleetPlan) fleetRound {
	var r fleetRound
	t := startTimer()
	for b := 0; b < cfg.batchesPerRound; b++ {
		jobs, isNew := plan.nextBatch()
		start := time.Now()
		got := make([]*engine.Result, len(jobs))
		for jr := range h.runner.Stream(ctx, jobs) {
			got[jr.Index] = jr.Result
			r.latency = append(r.latency, time.Since(start))
		}
		for i, j := range jobs {
			r.got = append(r.got, delivery{job: j, isNew: isNew[i], res: got[i]})
			ok := got[i] != nil && got[i].Err == nil && got[i].Metrics != nil
			if isNew[i] && ok {
				plan.pool = append(plan.pool, j)
				r.newUops += got[i].Metrics.Uops
			}
		}
	}
	r.wall, r.cpu = t.stop()
	return r
}

// fleetSetup starts a harness and draws a fresh plan. The first call in
// a process also pays for the suite index sim.SpecFromJob builds.
func fleetSetup(ctx context.Context, cfg config, traced bool, observe func(string, int, time.Duration)) (*fleetHarness, *fleetPlan, error) {
	points := fleetPoints()
	plan := newFleetPlan(cfg, points)
	if _, err := sim.SpecFromJob(engine.Job{Simpoint: points[0], Setup: plan.setups[0]}); err != nil {
		return nil, nil, err
	}
	h, err := startFleet(ctx, traced, observe)
	if err != nil {
		return nil, nil, err
	}
	return h, plan, nil
}

// runFleet runs fleet-mixed.
func runFleet(ctx context.Context, cfg config, w io.Writer) (*outcome, error) {
	if cfg.trace {
		return traceFleet(ctx, cfg, w)
	}
	type harness struct {
		h    *fleetHarness
		plan *fleetPlan
	}
	hp, setupS, err := setupTimes(cfg, func() (harness, error) {
		h, plan, err := fleetSetup(ctx, cfg, false, nil)
		return harness{h, plan}, err
	}, func(hp harness) { hp.h.close() })
	if err != nil {
		return nil, err
	}
	defer hp.h.close()
	need := func() bool { return len(hp.plan.pool) < cfg.paperItems*len(hp.plan.setups) }
	rounds := repeatFor(budget(cfg), need, func() (fleetRound, time.Duration) {
		r := runRound(ctx, cfg, hp.h, hp.plan)
		return r, r.wall
	})
	o := &outcome{}
	o.set("peak_rss_mb", peakRSSMB(), "MB")
	o.set("setup_s", setupS, "s")
	var walls, cpus, lat []float64
	var wall time.Duration
	var uops int64
	var ds []delivery
	for _, r := range rounds {
		walls = append(walls, r.wall.Seconds())
		cpus = append(cpus, r.cpu.Seconds())
		lat = append(lat, msAll(r.latency)...)
		wall += r.wall
		uops += r.newUops
		ds = append(ds, r.got...)
	}
	o.set("wall_s", median(walls), "s")
	o.set("cpu_s", median(cpus), "s")
	o.set("sim_uops_per_s", float64(uops)/wall.Seconds(), "1/s")
	o.set("jobs_per_s", float64(len(ds))/wall.Seconds(), "1/s")
	o.set("job_p50_ms", quantile(lat, 0.5), "ms")
	o.set("job_p99_ms", quantile(lat, 0.99), "ms")
	fmt.Fprintf(w, "fleet-mixed: %d rounds of %d batches of %d jobs, walls %.3g s; job latency over %d samples, %d beyond p99; fleet.repeat_share %.4f\n",
		len(rounds), cfg.batchesPerRound, cfg.batchSize, walls, len(lat), len(lat)/100, repeatShare(ds))
	o.attempted = int64(len(ds))
	checkFleet(ctx, cfg, ds, o)
	o.set("paper_err_pp", fleetPaperErr(cfg, hp.plan, ds), "pp")
	return o, nil
}

func repeatShare(ds []delivery) float64 {
	n := 0
	for _, d := range ds {
		if !d.isNew {
			n++
		}
	}
	return ratio(float64(n), float64(len(ds)))
}

// fleetPaperErr is paperErr over the first paperItems items, which the
// seed alone fixes; NaN unless all of their jobs were delivered.
func fleetPaperErr(cfg config, plan *fleetPlan, ds []delivery) float64 {
	first := map[string]*engine.Result{}
	for _, d := range ds {
		if d.isNew {
			first[jobKey(d.job)] = d.res
		}
	}
	var jobs []engine.Job
	var results []*engine.Result
	for _, item := range plan.items[:min(cfg.paperItems, len(plan.items))] {
		for _, j := range item {
			if first[jobKey(j)] == nil {
				return math.NaN()
			}
			jobs = append(jobs, j)
			results = append(results, first[jobKey(j)])
		}
	}
	return paperErr(jobs, results)
}
