// Package engine is the shared simulation substrate every run path —
// sim.RunOne/RunMatrix, the experiment harness and cmd/steerbench — submits
// jobs to. It owns a cancellable worker pool with progress reporting, and
// two content-keyed caches: annotated program clones (keyed by simpoint +
// compiler-pass signature) and whole Results (keyed by simpoint + setup +
// run length + a hash of the resolved machine config). One engine shared
// across experiments therefore simulates each unique (simpoint, setup,
// machine, options) combination exactly once per process, and
// re-annotates nothing. Each simulation expands its own dynamic trace
// from the annotated program: expansion is deterministic and cheaper than
// any cached form of the trace.
//
// All cached artifacts are immutable after publication: compiler passes
// annotate a private clone before it enters the cache, and the pipeline
// only reads from programs, so concurrent runs can share them.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"clustersim/internal/obs"
	"clustersim/internal/partition"
	"clustersim/internal/pipeline"
	"clustersim/internal/prog"
	"clustersim/internal/steer"
	"clustersim/internal/store"
	"clustersim/internal/trace"
	"clustersim/internal/workload"
)

// Pass declares a compiler steering pass so the engine can both execute it
// and cache its output. Unlike an opaque closure, the declarative form
// gives the engine a content key, and lets it derive the pass options from
// the machine configuration actually being run (issue widths, link
// latency), so 4-cluster runs and runs on a MachineSpec see consistent
// options. A custom pass is a Pass with its own Kind.
type Pass struct {
	// Kind identifies the algorithm in cache keys ("OB", "RHOP", "VC").
	// Two passes with equal Kind and equal options must produce identical
	// annotations.
	Kind string
	// NumTargets is the cluster count the pass partitions for (virtual
	// clusters for VC, physical for the software-only schemes).
	NumTargets int
	// RegionMaxOps caps compiler region size; zero means the default.
	RegionMaxOps int
	// MaxChainLen caps VC chain length; zero means the default.
	MaxChainLen int
	// Run executes the pass over the (cloned) program.
	Run func(*prog.Program, partition.Options)
}

// options derives the pass options from the machine configuration being
// run: issue widths and communication cost come from the live config, not
// from a hardcoded default machine.
func (ps *Pass) options(cfg *pipeline.Config) partition.Options {
	return partition.Options{
		NumVC:        ps.NumTargets,
		NumClusters:  ps.NumTargets,
		IssueInt:     cfg.Cluster.IssueInt,
		IssueFP:      cfg.Cluster.IssueFP,
		CommLatency:  cfg.Net.Latency + 1, // link latency + copy issue slot
		MaxChainLen:  ps.MaxChainLen,
		RegionMaxOps: ps.RegionMaxOps,
	}
}

// key is the cache signature of the pass under a machine configuration.
func (ps *Pass) key(cfg *pipeline.Config) string {
	o := ps.options(cfg)
	return fmt.Sprintf("%s|vc%d|ii%d|if%d|cl%d|ch%d|rg%d",
		ps.Kind, o.NumVC, o.IssueInt, o.IssueFP, o.CommLatency, o.MaxChainLen, o.RegionMaxOps)
}

// Setup is one steering configuration: how programs are annotated at
// compile time and which runtime policy steers.
type Setup struct {
	// Label is the configuration name used in reports ("OP", "VC(2->4)").
	// For a given NumClusters the label must uniquely identify the
	// configuration — it participates in the engine's result-cache key.
	Label string
	// NumClusters is the physical cluster count of the machine.
	NumClusters int
	// Pass is the compiler pass; nil for hardware-only configurations.
	Pass *Pass
	// Spec, when non-nil, is the declarative wire form this setup was (or
	// could have been) built from. It is what lets a job cross a process
	// boundary: SpecFromJob requires it, and the sim.Setup* constructors
	// all populate it. Setups hand-built around custom closures leave it
	// nil and stay local-only. Spec never participates in cache keys.
	Spec *SetupSpec
	// NewPolicy builds a fresh runtime policy instance per run.
	NewPolicy func() steer.Policy
}

// RunOptions sizes one simulation.
type RunOptions struct {
	// NumUops is the dynamic trace length per simpoint. Zero means 120000.
	NumUops int
	// WarmupUops excludes the first N committed micro-ops from the
	// metrics (cache/predictor warmup).
	WarmupUops int
	// Machine overrides the paper's default machine (ablations); the zero
	// value runs the default machine.
	Machine MachineSpec
}

func (o RunOptions) withDefaults() RunOptions {
	if o.NumUops == 0 {
		o.NumUops = 120_000
	}
	return o
}

// Result is the outcome of one (simpoint, setup) run.
type Result struct {
	// Simpoint identifies the workload.
	Simpoint *workload.Simpoint
	// Setup is the configuration label.
	Setup string
	// Metrics are the pipeline metrics. Cached results share one Metrics
	// value across callers; treat it as read-only.
	Metrics *pipeline.Metrics
	// Complexity is the steering-logic accounting.
	Complexity steer.Complexity
	// Err is non-nil if the run failed or was canceled.
	Err error
}

// Job is one unit of work: simulate one simpoint under one setup.
type Job struct {
	Simpoint *workload.Simpoint
	Setup    Setup
	Opts     RunOptions
}

// JobResult pairs a streamed result with the job that produced it.
type JobResult struct {
	// Index is the job's position in the submitted slice.
	Index  int
	Job    Job
	Result *Result
}

// Options configures an engine.
type Options struct {
	// Parallelism bounds concurrently executing simulations; ≤ 0 means
	// GOMAXPROCS. Cache hits are served without occupying a worker slot.
	Parallelism int
	// ResultStore, if set, persists whole results in place of the
	// in-memory result cache, so the store's byte bound is the bound on
	// the results a long-lived engine holds. The engine then keeps only
	// in-flight results, so concurrent callers of one job still share a
	// single run. Every other lookup consults the store before
	// simulating, and every newly computed result is encoded and written
	// through, so a later call, engine or process (with a disk-backed
	// store) skips the work entirely. Blobs are framed by the codec's
	// schema version; stale or corrupt entries read as misses.
	ResultStore store.Store
	// DisableCache turns every cache off (each job re-annotates and
	// re-simulates from scratch), including ResultStore and core pooling.
	DisableCache bool
	// Progress, if set, is called after every finished job with the
	// engine-lifetime completed and submitted job counts and the finished
	// job's "simpoint/setup" label. It may be called concurrently.
	Progress func(done, total int, label string)
	// Tracer, if set, records a per-stage span trace (queue wait,
	// annotate, expand, execute, encode, store put/get, cache-hit
	// short-circuits) for every job into a bounded ring of flight
	// records, queryable by trace ID. Nil disables tracing at zero cost:
	// every recording site is a nil-flight no-op.
	Tracer *obs.Tracer
}

// Engine is a caching, streaming simulation engine — the local Runner
// implementation. One engine may be shared by any number of concurrent
// submitters; all methods are safe for concurrent use.
type Engine struct {
	opts Options
	// sched grants worker slots weighted-fair across priority lanes
	// (see Lane); under contention interactive jobs overtake a bulk
	// backlog instead of draining FIFO behind it.
	sched *scheduler

	progs   *flightCache[*prog.Program]
	results *flightCache[*Result]

	// fps memoizes program content hashes per *prog.Program (programs are
	// immutable once submitted); lifetime is tied to the engine like the
	// artifact caches.
	fps sync.Map

	// cfgHashes memoizes configHash per resolved config.
	cfgMu     sync.Mutex
	cfgHashes map[pipeline.Config]string

	// cores pools idle pipeline cores keyed by their config Shape, bounded
	// per shape at Parallelism (more can never be in use at once). A sweep
	// of same-shaped jobs reuses a handful of cores via Reset instead of
	// constructing one per job. Disabled together with the caches.
	coresMu sync.Mutex
	cores   map[pipeline.Config][]*pipeline.Core

	simulations                         atomic.Int64
	submitted, completed                atomic.Int64
	storeHits, storeMisses, storeErrors atomic.Int64
	corePoolHits, corePoolMisses        atomic.Int64
	expansions                          atomic.Int64
	deadlineShed                        atomic.Int64
}

// CacheStats is a snapshot of the engine's cache counters.
type CacheStats struct {
	// Simulations counts actual pipeline executions (cache misses).
	Simulations int64
	// ResultHits/ResultMisses count whole-result cache lookups. With a
	// ResultStore the cache holds only in-flight runs and joining one is
	// no hit, so ResultHits stays 0 and repeats show up as StoreHits.
	ResultHits, ResultMisses int64
	// TraceMisses counts trace expansions: every simulation expands its
	// own trace. TraceHits is always 0, because expanding costs less than
	// caching a trace; it stays because perfbench reports it.
	TraceHits, TraceMisses int64
	// ProgramHits/ProgramMisses count annotated-program cache lookups.
	ProgramHits, ProgramMisses int64
	// StoreHits/StoreMisses count persistent result-store lookups (one
	// per result-cache miss); StoreErrors counts blobs that failed to
	// decode or encode.
	StoreHits, StoreMisses, StoreErrors int64
	// CorePoolHits counts simulations served by a pooled, Reset core;
	// CorePoolMisses counts fresh core constructions on the cached path.
	CorePoolHits, CorePoolMisses int64
	// InteractiveGrants/BulkGrants count worker-slot acquisitions per
	// scheduling lane (see Lane); their ratio under sustained contention
	// approaches the configured lane weights.
	InteractiveGrants, BulkGrants int64
	// DeadlineShed counts jobs dropped because their deadline had
	// already expired when they would have started executing — shed
	// work, not failed work.
	DeadlineShed int64
}

// New builds an engine.
func New(opts Options) *Engine {
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		opts:      opts,
		sched:     newScheduler(opts.Parallelism),
		progs:     newFlightCache[*prog.Program](),
		results:   newFlightCache[*Result](),
		cores:     make(map[pipeline.Config][]*pipeline.Core),
		cfgHashes: make(map[pipeline.Config]string),
	}
}

// Parallelism reports the engine's worker-pool size (the resolved value,
// never zero). Services use it to clamp per-request parallelism hints.
func (e *Engine) Parallelism() int { return e.opts.Parallelism }

// Tracer returns the engine's flight tracer (nil when tracing is
// disabled). Services use it to serve GET /v1/trace/{id} and the
// per-stage histogram families.
func (e *Engine) Tracer() *obs.Tracer { return e.opts.Tracer }

// Stats snapshots the cache counters.
func (e *Engine) Stats() CacheStats {
	s := CacheStats{
		Simulations:    e.simulations.Load(),
		ResultHits:     e.results.hits.Load(),
		ResultMisses:   e.results.misses.Load(),
		TraceMisses:    e.expansions.Load(),
		ProgramHits:    e.progs.hits.Load(),
		ProgramMisses:  e.progs.misses.Load(),
		StoreHits:      e.storeHits.Load(),
		StoreMisses:    e.storeMisses.Load(),
		StoreErrors:    e.storeErrors.Load(),
		CorePoolHits:   e.corePoolHits.Load(),
		CorePoolMisses: e.corePoolMisses.Load(),
		DeadlineShed:   e.deadlineShed.Load(),
	}
	s.InteractiveGrants, s.BulkGrants = e.sched.laneGrants()
	return s
}

// Execute runs one job from scratch with no caching and no shared pool —
// the plain sim.RunOne path, and the reference the engine's cached results
// are tested against.
func Execute(ctx context.Context, job Job) *Result {
	return New(Options{Parallelism: 1, DisableCache: true}).Run(ctx, job)
}

// Run executes one job, serving it from the result cache when possible,
// and blocks until the result is available. A canceled context yields a
// Result with Err set to the context's error; canceled or failed runs are
// never cached.
func (e *Engine) Run(ctx context.Context, job Job) *Result {
	job.Opts = job.Opts.withDefaults()
	e.submitted.Add(1)
	// One flight per submission, even for cache hits: the flight's span
	// set is what distinguishes a computed result (execute span) from a
	// served one (cache_hit / store_get spans). The trace ID rides in on
	// the context; End publishes the record for /v1/trace/{id}.
	fl := e.opts.Tracer.StartFlight(ctx, job.Simpoint.Name+"/"+job.Setup.Label)
	res := e.run(ctx, job, fl)
	fl.End()
	done := e.completed.Add(1)
	if e.opts.Progress != nil {
		e.opts.Progress(int(done), int(e.submitted.Load()),
			job.Simpoint.Name+"/"+job.Setup.Label)
	}
	return res
}

// RunMatrix runs every (simpoint × setup) pair and returns results indexed
// as [simpoint][setup], matching the input order. It blocks until all jobs
// finish; on cancellation the remaining cells hold Results with Err set
// and the context's error is returned.
func (e *Engine) RunMatrix(ctx context.Context, sps []*workload.Simpoint, setups []Setup, opt RunOptions) ([][]*Result, error) {
	return RunMatrixOn(ctx, e, sps, setups, opt)
}

// Stream submits the jobs and returns a channel that yields each result as
// it completes (in completion order, not submission order). The channel is
// buffered to hold every result and is closed once all jobs finish, so a
// consumer may stop reading early without leaking the senders (cancel the
// context to also stop the remaining work).
func (e *Engine) Stream(ctx context.Context, jobs []Job) <-chan JobResult {
	out := make(chan JobResult, len(jobs))
	go func() {
		defer close(out)
		var wg sync.WaitGroup
		for i := range jobs {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				out <- JobResult{Index: i, Job: jobs[i], Result: e.Run(ctx, jobs[i])}
			}()
		}
		wg.Wait()
	}()
	return out
}

// fingerprint identifies a simpoint's program content across suite
// reconstructions (workload.Suite synthesizes fresh Program values per
// call, deterministically, so name + seed + content hash is a stable key
// that also keeps distinct custom programs from aliasing). The hash is
// memoized per Program value so resubmissions skip the full-program walk.
func (e *Engine) fingerprint(sp *workload.Simpoint) string {
	h, ok := e.fps.Load(sp.Program)
	if !ok {
		h, _ = e.fps.LoadOrStore(sp.Program, sp.Program.Fingerprint())
	}
	return fmt.Sprintf("%s|s%d|h%016x", sp.Name, sp.Seed, h.(uint64))
}

// resultKey returns the whole-result cache key. The hash of the resolved
// config covers the machine that actually runs (and the pass options
// derived from it): editing DefaultConfig changes every key, and a
// MachineSpec equal to the default shares the untweaked results. The
// pass's static signature keeps setups with colliding labels apart.
func (e *Engine) resultKey(job Job) string {
	pass := ""
	if ps := job.Setup.Pass; ps != nil {
		pass = fmt.Sprintf("%s/%d/%d/%d", ps.Kind, ps.NumTargets, ps.RegionMaxOps, ps.MaxChainLen)
	}
	return fmt.Sprintf("%s|%s|p%s|c%d|u%d|cfg%s",
		e.fingerprint(job.Simpoint), job.Setup.Label, pass, job.Setup.NumClusters,
		job.Opts.NumUops, e.configHash(job.config()))
}

// storeKey namespaces a result-cache key for a persistent store: the
// codec schema version and the model version are folded in so that blobs
// written by an older codec or simulated by an older timing model never
// even key-collide with the current ones.
func storeKey(key string) string {
	return fmt.Sprintf("result|v%d|model%d|%s", CodecVersion, ModelVersion, key)
}

// ResultKey returns the persistent-store key a job's result is (or would
// be) stored under. Services use it to hand clients a fetch address at
// submission time.
func (e *Engine) ResultKey(job Job) string {
	job.Opts = job.Opts.withDefaults()
	return storeKey(e.resultKey(job))
}

// storedResult serves a result-cache miss from the persistent store, if
// one is configured and holds a decodable blob for the key. The decoded
// result carries identity-only simpoint data, so the submitting job's
// simpoint is attached before the result enters the in-memory cache.
func (e *Engine) storedResult(key string, job Job, fl *obs.Flight) *Result {
	if e.opts.ResultStore == nil {
		return nil
	}
	t0 := fl.Begin()
	blob, ok := e.opts.ResultStore.Get(storeKey(key))
	if !ok {
		e.storeMisses.Add(1)
		return nil
	}
	res, err := DecodeResult(blob)
	if err != nil {
		// Stale schema or corrupt blob: treat as a miss and re-simulate;
		// the re-Put after the run overwrites the bad record, healing the
		// slot for future processes.
		e.storeErrors.Add(1)
		e.storeMisses.Add(1)
		return nil
	}
	fl.Span("store_get", t0)
	e.storeHits.Add(1)
	res.Simpoint = job.Simpoint
	return res
}

// persistResult writes a freshly computed result through to the
// persistent store, best-effort.
func (e *Engine) persistResult(key string, res *Result, fl *obs.Flight) {
	if e.opts.ResultStore == nil {
		return
	}
	t0 := fl.Begin()
	blob, err := EncodeResult(res)
	if err != nil {
		e.storeErrors.Add(1)
		return
	}
	fl.Span("encode", t0)
	t0 = fl.Begin()
	e.opts.ResultStore.Put(storeKey(key), blob)
	fl.Span("store_put", t0)
}

// isCancelErr reports whether err stems from context cancellation rather
// than a deterministic simulation failure.
func isCancelErr(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, pipeline.ErrCanceled)
}

// shed counts a job dropped before execution because its deadline had
// already expired, and returns err unchanged; cancellations and other
// errors pass through uncounted.
func (e *Engine) shed(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		e.deadlineShed.Add(1)
	}
	return err
}

func (e *Engine) run(ctx context.Context, job Job, fl *obs.Flight) *Result {
	if err := ctx.Err(); err != nil {
		return &Result{Simpoint: job.Simpoint, Setup: job.Setup.Label, Err: e.shed(err)}
	}
	if err := job.Opts.Machine.Validate(); err != nil {
		return &Result{Simpoint: job.Simpoint, Setup: job.Setup.Label, Err: err}
	}
	if e.opts.DisableCache {
		return e.execute(ctx, job, fl)
	}
	key := e.resultKey(job)
	for {
		// The compute closure runs on exactly one caller's goroutine, so
		// the spans it records (store_get / execute / encode / store_put)
		// land on that caller's flight; joiners record only the cache_hit
		// wait below. With a store the cache retains nothing: finished
		// results live in the store alone.
		waitStart := fl.Begin()
		retain := e.opts.ResultStore == nil
		res, hit, aborted := e.results.get(ctx.Done(), key, func() (*Result, bool) {
			if r := e.storedResult(key, job, fl); r != nil {
				return r, false
			}
			r := e.execute(ctx, job, fl)
			if r.Err == nil {
				e.persistResult(key, r, fl)
			}
			return r, r.Err == nil && retain
		})
		if hit {
			fl.Span("cache_hit", waitStart)
		}
		if aborted {
			// Our context died while waiting on another caller's flight.
			return &Result{Simpoint: job.Simpoint, Setup: job.Setup.Label, Err: ctx.Err()}
		}
		if res == nil {
			// We joined a flight whose computation panicked (the zero
			// value was handed to waiters). Recompute under our context.
			if err := ctx.Err(); err != nil {
				return &Result{Simpoint: job.Simpoint, Setup: job.Setup.Label, Err: err}
			}
			continue
		}
		if hit && ctx.Err() == nil && isCancelErr(res.Err) {
			// We waited on another caller's flight and it was canceled
			// under *their* context. Ours is live and the canceled entry
			// was not retained, so run the job ourselves. Genuine run
			// errors are returned as-is — they are deterministic and
			// re-executing them would fail identically.
			continue
		}
		if hit && res.Simpoint != job.Simpoint {
			// Same content, different suite instantiation: hand the caller
			// its own simpoint pointer so result rows match the submitted
			// suite.
			clone := *res
			clone.Simpoint = job.Simpoint
			return &clone
		}
		return res
	}
}

// execute performs one full uncached run: annotate (cached), expand,
// simulate. The lane scheduler bounds concurrent executions
// at Parallelism and grants contended slots weighted-fair; the lane
// rides in on the context and never reaches a cache key.
func (e *Engine) execute(ctx context.Context, job Job, fl *obs.Flight) *Result {
	t0 := fl.Begin()
	if err := e.sched.Acquire(ctx, LaneFrom(ctx)); err != nil {
		// Canceled or expired while queued behind busy workers: don't
		// wait for a slot.
		return &Result{Simpoint: job.Simpoint, Setup: job.Setup.Label, Err: e.shed(err)}
	}
	fl.Span("queue", t0)
	defer e.sched.Release()
	if err := ctx.Err(); err != nil {
		// The deadline (or a cancel) landed between the grant and the
		// run: shed before simulating, releasing the slot untouched.
		return &Result{Simpoint: job.Simpoint, Setup: job.Setup.Label, Err: e.shed(err)}
	}
	sp, s, opt := job.Simpoint, job.Setup, job.Opts

	cfg := job.config()
	t0 = fl.Begin()
	p := e.annotated(sp, s, &cfg)
	fl.Span("annotate", t0)
	t0 = fl.Begin()
	tr := e.expand(p, sp, opt)
	fl.Span("expand", t0)

	cfg.Cancel = ctx.Done()
	pol := s.NewPolicy()
	core, err := e.acquireCore(cfg, pol, tr)
	if err != nil {
		return &Result{Simpoint: sp, Setup: s.Label, Err: err}
	}
	e.simulations.Add(1)
	t0 = fl.Begin()
	m, err := core.Run()
	fl.Span("execute", t0)
	if err == pipeline.ErrCanceled && ctx.Err() != nil {
		err = ctx.Err()
	}
	res := &Result{
		Simpoint:   sp,
		Setup:      s.Label,
		Metrics:    m,
		Complexity: core.ComplexityOf(),
		Err:        err,
	}
	e.releaseCore(core)
	return res
}

// acquireCore returns a core ready to run the job: a pooled core of the
// same config shape, rewound via Reset, when one is idle; a freshly
// constructed one otherwise. With caching disabled every job constructs
// fresh — that keeps Execute the pristine reference the pooled path is
// tested against.
func (e *Engine) acquireCore(cfg pipeline.Config, pol steer.Policy, tr *trace.Trace) (*pipeline.Core, error) {
	if e.opts.DisableCache {
		return pipeline.NewCore(cfg, pol, tr)
	}
	shape := cfg.Shape()
	var core *pipeline.Core
	e.coresMu.Lock()
	if pool := e.cores[shape]; len(pool) > 0 {
		core = pool[len(pool)-1]
		pool[len(pool)-1] = nil
		e.cores[shape] = pool[:len(pool)-1]
	}
	e.coresMu.Unlock()
	if core != nil {
		if err := core.Reset(cfg, pol, tr); err == nil {
			e.corePoolHits.Add(1)
			return core, nil
		}
		// Reset refused (invalid config): drop the core and let NewCore
		// report the same validation error.
	}
	e.corePoolMisses.Add(1)
	return pipeline.NewCore(cfg, pol, tr)
}

// releaseCore parks an idle core for reuse, dropping its trace/policy
// references first. Pool occupancy per shape is bounded by Parallelism —
// more cores can never be running at once, so anything beyond that is
// garbage from a shape the workload moved away from.
func (e *Engine) releaseCore(core *pipeline.Core) {
	if e.opts.DisableCache {
		return
	}
	shape := core.Shape()
	core.Release()
	e.coresMu.Lock()
	if len(e.cores[shape]) < e.opts.Parallelism {
		e.cores[shape] = append(e.cores[shape], core)
	}
	e.coresMu.Unlock()
}

// annotated returns the annotated program clone for the job, cached by
// (simpoint, pass signature).
func (e *Engine) annotated(sp *workload.Simpoint, s Setup, cfg *pipeline.Config) *prog.Program {
	build := func() (*prog.Program, bool) {
		p := sp.Program.Clone()
		p.ClearAnnotations()
		if s.Pass != nil {
			s.Pass.Run(p, s.Pass.options(cfg))
		}
		return p, true
	}
	if e.opts.DisableCache {
		p, _ := build()
		return p
	}
	passKey := "clean"
	if s.Pass != nil {
		passKey = s.Pass.key(cfg)
	}
	p, _, _ := e.progs.get(nil, e.fingerprint(sp)+"|"+passKey, build)
	return p
}

// expand returns the job's own dynamic trace of the annotated program.
// Expansion is deterministic, so every setup over the same program sees
// the same uop stream, and it is cheaper than serializing the trace into
// a cache and reading it back.
func (e *Engine) expand(p *prog.Program, sp *workload.Simpoint, opt RunOptions) *trace.Trace {
	e.expansions.Add(1)
	return trace.Expand(p, trace.Options{NumUops: opt.NumUops, Seed: sp.Seed})
}
