// Package fleet fans simulation batches out across N clusterd workers.
// Runner satisfies engine.Runner — the same seam the local engine and the
// single-host client runner implement — so everything written against it
// (sim.RunMatrixOn, the experiment harness, steerbench) scales from one
// process to a whole fleet by swapping the runner.
//
// Jobs are sharded by a consistent hash of their result content key: the
// same key always lands on the same worker, so each worker's tiered
// result store stays hot across runs and across clients, and resizing
// the fleet migrates only the key range adjacent to the new or removed
// worker. Each shard travels through that worker's client.Runner (one
// batch submission, SSE streaming with reconnect/backoff, fetch by key);
// the per-worker streams are merged into a single exactly-once result
// stream.
//
// All members share one HTTP transport (client.DefaultTransport, whose
// per-host idle pool is sized for serving-tier concurrency) unless
// WithClientOptions substitutes another, so concurrent batches reuse warm
// connections per worker instead of redialing under the stock transport's
// 2-idle-connections-per-host limit.
//
// Resilience is layered on top of the client's reconnect machinery:
// every worker is health-checked at construction, a worker whose
// transport fails for good mid-stream is marked dead and its unfinished
// jobs are re-sharded onto the survivors (each lost job re-runs exactly
// once — deterministic job failures are never retried), and an optional
// bounded work-stealing policy lets idle workers duplicate the tail of a
// straggler's shard, first result wins.
//
// Membership is live, not frozen (see lifecycle.go): a worker marked
// dead is periodically re-probed and re-admitted when it recovers
// (WithReadmit), Drain migrates a departing worker's key range to its
// ring successors before removing it, AddWorker backfills a newcomer's
// stolen ranges from the previous owners, and WithCoordinator makes N
// concurrent runners converge on one membership view through a shared
// epoch register. Placement is a pure function of the membership view:
// the ring's points depend only on member URLs, and non-assignable
// members are skipped by the clockwise walk — which is exactly
// equivalent to a ring without their points, so every state transition
// except adding a brand-new URL changes placement without rebuilding
// anything.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clustersim/client"
	"clustersim/fleet/controlplane"
	"clustersim/internal/api"
	"clustersim/internal/engine"
	"clustersim/internal/sim"
)

// member is one clusterd worker: its transport and its runner. Liveness
// lives in the Runner's membership table, not here — the member itself
// is just the connection.
type member struct {
	url    string
	c      *client.Client
	runner *client.Runner
}

// config collects construction options.
type config struct {
	progress      func(done, total int, label string)
	logf          func(format string, args ...any)
	token         string
	maxParallel   int
	steal         int
	healthTimeout time.Duration
	clientOpts    []client.Option
	runnerOpts    []client.RunnerOption
	coordURL      string
	readmit       time.Duration
	breakerTrip   int
	breakerCool   time.Duration
}

// Option configures a fleet Runner.
type Option func(*config)

// WithProgress mirrors engine.Options.Progress: fn is called after every
// finished job with the runner-lifetime completed and submitted counts.
// It may be called concurrently.
func WithProgress(fn func(done, total int, label string)) Option {
	return func(c *config) { c.progress = fn }
}

// WithLog sets the sink for operational messages — worker loss,
// re-sharding, work stealing, membership transitions. The default
// discards them.
func WithLog(fn func(format string, args ...any)) Option {
	return func(c *config) { c.logf = fn }
}

// WithToken attaches a bearer token to every worker's requests (the
// credential clusterd -token requires).
func WithToken(token string) Option {
	return func(c *config) { c.token = token }
}

// WithBatchParallel forwards a per-batch parallelism hint with every
// shard submission; each worker clamps it to its own limit.
func WithBatchParallel(n int) Option {
	return func(c *config) { c.maxParallel = n }
}

// WithSteal enables bounded work-stealing of the tail: a worker whose
// shard has drained may duplicate up to n of the jobs still in flight on
// other workers (per Stream call), first result wins. Stealing trades
// duplicate simulation work for tail latency when shards are unevenly
// expensive; the merged stream stays exactly-once either way.
func WithSteal(n int) Option {
	return func(c *config) { c.steal = n }
}

// WithHealthTimeout bounds the construction-time health check of the
// whole fleet (default 10s).
func WithHealthTimeout(d time.Duration) Option {
	return func(c *config) { c.healthTimeout = d }
}

// WithClientOptions passes extra options (backoff windows, retry budget,
// HTTP client) to every member's underlying client.
func WithClientOptions(opts ...client.Option) Option {
	return func(c *config) { c.clientOpts = append(c.clientOpts, opts...) }
}

// WithRunnerOptions passes extra options (tracer, progress hooks) to every
// member's per-worker runner — including workers admitted after
// construction.
func WithRunnerOptions(opts ...client.RunnerOption) Option {
	return func(c *config) { c.runnerOpts = append(c.runnerOpts, opts...) }
}

// WithCoordinator points the runner at a clusterd running in
// -coordinator mode. Membership transitions are compare-and-swapped
// through the coordinator's epoch register instead of applied locally,
// and the view is re-synced before every batch, so N concurrent runners
// sharing a coordinator converge on the same placement at the same
// epoch. A fresh (empty) coordinator is seeded with this runner's
// worker list.
func WithCoordinator(url string) Option {
	return func(c *config) { c.coordURL = strings.TrimRight(url, "/") }
}

// WithBreaker installs a per-worker circuit breaker: trip consecutive
// transport failures stop new shards from routing to the worker (even
// though it still answers health probes), and after cooldown a single
// half-open probe shard decides whether it rejoins. Complements the
// dead/readmit machinery, which only reacts to workers that are gone
// outright. trip <= 0 disables the policy (the default).
func WithBreaker(trip int, cooldown time.Duration) Option {
	return func(c *config) { c.breakerTrip, c.breakerCool = trip, cooldown }
}

// WithReadmit starts the liveness prober: every interval, workers the
// fleet marked dead are health-probed, and the ones that answer are
// re-admitted — their virtual ring points come back, restoring their
// exact pre-death placement. Zero (the default) leaves dead workers
// dead for the runner's lifetime. Stop the prober with Close.
func WithReadmit(interval time.Duration) Option {
	return func(c *config) { c.readmit = interval }
}

// placement is one consistent snapshot of the routable fleet: the member
// slice and the ring built over exactly those members' URLs, index-
// aligned. Reads take the snapshot once and use it throughout; member
// additions swap in a new one.
type placement struct {
	members []*member
	ring    *ring
}

// Runner shards engine jobs across a fleet of clusterd workers. Safe for
// concurrent use.
type Runner struct {
	mu    sync.RWMutex
	pl    placement
	byURL map[string]*member

	// mship is the membership table placement filters through;
	// coordinator binds it to the shared epoch register (and degrades to
	// local-only transitions when none is configured — never nil).
	mship       *controlplane.Membership
	coordinator *controlplane.Coordinator

	progress func(done, total int, label string)
	logf     func(format string, args ...any)
	steal    int
	// maxRetries bounds how often one job may fail with a worker-loss
	// error before the error is delivered: enough for every member to
	// die under it plus a couple of transient blips on live members.
	maxRetries int

	// keyer computes result content keys for sharding. It never executes
	// anything: only its fingerprint memo and key derivation are used.
	keyer *engine.Engine

	// copts/ropts rebuild clients for workers that join after
	// construction (AddWorker, coordinator adoption).
	copts []client.Option
	ropts []client.RunnerOption

	submitted, completed atomic.Int64

	// Control-plane counters surfaced by FleetStats.
	readmissions, drainMigrated, backfilled atomic.Int64

	// Circuit-breaker policy (breaker.go); breakerTrip <= 0 disables it.
	breakerTrip     int
	breakerCooldown time.Duration
	breakerMu       sync.Mutex
	breakers        map[string]*breaker

	proberStop context.CancelFunc
	proberDone chan struct{}
}

var _ engine.Runner = (*Runner)(nil)

// *client.Client is the wire implementation of every controlplane seam.
var (
	_ controlplane.CoordClient = (*client.Client)(nil)
	_ controlplane.Source      = (*client.Client)(nil)
	_ controlplane.Sink        = (*client.Client)(nil)
)

// New builds a fleet runner over the clusterd instances at urls. Every
// worker is health-checked (a stats round trip, which also exercises the
// configured token) before the constructor returns; any unreachable or
// unauthorized worker fails construction with an error naming it.
func New(urls []string, opts ...Option) (*Runner, error) {
	if len(urls) == 0 {
		return nil, errors.New("fleet: no worker URLs")
	}
	cfg := config{healthTimeout: 10 * time.Second, logf: func(string, ...any) {}}
	for _, o := range opts {
		o(&cfg)
	}

	copts := cfg.clientOpts
	if cfg.token != "" {
		copts = append(copts[:len(copts):len(copts)], client.WithToken(cfg.token))
	}
	ropts := cfg.runnerOpts
	if cfg.maxParallel > 0 {
		ropts = append(ropts[:len(ropts):len(ropts)], client.WithBatchParallel(cfg.maxParallel))
	}

	// Canonicalize before the duplicate check and ring construction:
	// client.New trims trailing slashes too, so slash-variants of one
	// worker must count as the same member (and shard identically from
	// every client, whichever spelling it was configured with).
	canon := make([]string, 0, len(urls))
	seen := map[string]bool{}
	members := make([]*member, 0, len(urls))
	byURL := make(map[string]*member, len(urls))
	for _, u := range urls {
		u = strings.TrimRight(u, "/")
		if seen[u] {
			return nil, fmt.Errorf("fleet: duplicate worker URL %q", u)
		}
		seen[u] = true
		canon = append(canon, u)
		c, err := client.New(u, copts...)
		if err != nil {
			return nil, err
		}
		m := &member{url: u, c: c, runner: client.NewRunner(c, ropts...)}
		members = append(members, m)
		byURL[u] = m
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.healthTimeout)
	defer cancel()
	errs := make([]error, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			if _, err := m.c.Stats(ctx); err != nil {
				errs[i] = fmt.Errorf("fleet: worker %s failed its health check: %w", m.url, err)
			}
		}(i, m)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	f := &Runner{
		pl:         placement{members: members, ring: newRing(canon)},
		byURL:      byURL,
		mship:      controlplane.NewMembership(canon...),
		progress:   cfg.progress,
		logf:       cfg.logf,
		steal:      cfg.steal,
		maxRetries: len(members) + 2,
		keyer:      engine.New(engine.Options{Parallelism: 1, DisableCache: true}),
		copts:      copts,
		ropts:      ropts,
	}
	if cfg.breakerTrip > 0 {
		f.breakerTrip, f.breakerCooldown = cfg.breakerTrip, cfg.breakerCool
		if f.breakerCooldown <= 0 {
			f.breakerCooldown = 5 * time.Second
		}
		f.breakers = make(map[string]*breaker, len(members))
	}
	f.coordinator = controlplane.NewCoordinator(nil, f.mship)

	if cfg.coordURL != "" {
		if err := f.connectCoordinator(ctx, cfg.coordURL); err != nil {
			return nil, err
		}
	}
	if cfg.readmit > 0 {
		f.startProber(cfg.readmit)
	}
	return f, nil
}

// placementSnapshot returns the current (members, ring) pair.
func (f *Runner) placementSnapshot() placement {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.pl
}

// lookupMember resolves a canonical URL to its member.
func (f *Runner) lookupMember(url string) *member {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.byURL[url]
}

// assignable reports whether the membership table allows routing new
// work to url.
func (f *Runner) assignable(url string) bool { return f.mship.Assignable(url) }

// Members returns the worker URLs, in construction/admission order.
func (f *Runner) Members() []string {
	pl := f.placementSnapshot()
	urls := make([]string, len(pl.members))
	for i, m := range pl.members {
		urls[i] = m.url
	}
	return urls
}

// Alive reports how many workers the fleet can currently route to
// (alive or draining).
func (f *Runner) Alive() int {
	n := 0
	for _, m := range f.placementSnapshot().members {
		if f.assignable(m.url) {
			n++
		}
	}
	return n
}

// Run executes one job and blocks until its result is available.
func (f *Runner) Run(ctx context.Context, job engine.Job) *engine.Result {
	for jr := range f.Stream(ctx, []engine.Job{job}) {
		return jr.Result
	}
	return &engine.Result{Simpoint: job.Simpoint, Setup: job.Setup.Label,
		Err: errors.New("fleet: stream yielded no result")}
}

// Stats aggregates the work attributable to this runner: the sum of
// every routable member runner's server-counter deltas. Dead and removed
// members are skipped — their counters are unreachable, so work a member
// completed and delivered before it was lost drops out of the aggregate
// (its *unfinished* jobs re-ran on survivors and are counted there).
// After a mid-run worker loss the totals therefore undercount rather
// than block on a dead host.
func (f *Runner) Stats() engine.CacheStats {
	// One stats round trip per routable member, in parallel: a single
	// slow member costs its own latency, not N-cumulative timeouts.
	members := f.placementSnapshot().members
	parts := make([]engine.CacheStats, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		if !f.assignable(m.url) {
			continue
		}
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			parts[i] = m.runner.Stats()
		}(i, m)
	}
	wg.Wait()
	var total engine.CacheStats
	for _, p := range parts {
		total = total.Add(p)
	}
	return total
}

// task is one job in flight: its index in the submitted batch
// and the result content key it shards by. err carries the last
// worker-loss failure observed, attempts how many times the task has
// failed that way (bounding its retries).
type task struct {
	idx      int
	key      string
	err      error
	attempts int
}

// Stream submits the jobs and returns a channel yielding each result
// exactly once as it completes. Jobs with a wire form shard across the
// fleet; the rest fail with the conversion error. The channel is
// buffered to hold every result and closed once all jobs finish. When a
// coordinator is configured the membership view is re-synced first, so
// a runner never submits a batch against an epoch another runner has
// already moved past.
func (f *Runner) Stream(ctx context.Context, jobs []engine.Job) <-chan engine.JobResult {
	out := make(chan engine.JobResult, len(jobs))
	f.submitted.Add(int64(len(jobs)))
	go func() {
		defer close(out)
		f.syncMembership(ctx)

		var tasks []task
		for i, job := range jobs {
			if _, err := sim.SpecFromJob(job); err != nil {
				out <- f.finish(engine.JobResult{Index: i, Job: job, Result: &engine.Result{
					Simpoint: job.Simpoint, Setup: job.Setup.Label,
					Err: fmt.Errorf("fleet: job not remoteable: %w", err),
				}})
				continue
			}
			tasks = append(tasks, task{idx: i, key: f.keyer.ResultKey(job)})
		}
		if len(tasks) > 0 {
			f.runSharded(ctx, jobs, tasks, out)
		}
	}()
	return out
}

// finish updates the runner-lifetime progress counters around a result.
func (f *Runner) finish(jr engine.JobResult) engine.JobResult {
	done := f.completed.Add(1)
	if f.progress != nil {
		label := ""
		if jr.Job.Simpoint != nil {
			label = jr.Job.Simpoint.Name + "/" + jr.Job.Setup.Label
		}
		f.progress(int(done), int(f.submitted.Load()), label)
	}
	return jr
}

// retryable classifies a failed job result: true means the failure looks
// like worker loss (transport broke and the client's reconnect budget
// ran out), so the job is safe and worthwhile to re-run on a survivor.
// Failures the server itself reported — protocol refusals (api.Error)
// and executed-but-failed jobs (client.JobError) — are deterministic and
// would fail identically anywhere; context cancellation is the caller's
// own signal. A version-mismatched worker counts as lost: the job may
// still succeed on a correctly versioned survivor.
func retryable(err error) bool {
	if err == nil {
		return false
	}
	var apiErr *api.Error
	var jobErr *client.JobError
	switch {
	case errors.As(err, &apiErr), errors.As(err, &jobErr),
		errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return false
	}
	return true
}

// roundState is the shared bookkeeping of one sharding round: which
// tasks are still unresolved per member (the steal pool), which were
// already stolen, how much of the steal budget remains, and the requeue
// pool — tasks stranded by a lost worker, waiting for any live member
// to pick them up.
type roundState struct {
	mu          sync.Mutex
	outstanding map[int]map[int]task // member -> task idx -> task
	stolenFrom  map[int]bool         // task idx -> already duplicated by a thief
	stealLeft   int
	requeued    []task // lost workers' unfinished tasks, unowned
}

// requeue returns a lost worker's task to the pool.
func (rs *roundState) requeue(t task) {
	rs.mu.Lock()
	rs.requeued = append(rs.requeued, t)
	rs.mu.Unlock()
}

// takeRequeued hands the caller exclusive ownership of every task
// currently in the requeue pool.
func (rs *roundState) takeRequeued() []task {
	rs.mu.Lock()
	ts := rs.requeued
	rs.requeued = nil
	rs.mu.Unlock()
	return ts
}

// resolve removes a task from its owner's outstanding set.
func (rs *roundState) resolve(m, idx int) {
	rs.mu.Lock()
	delete(rs.outstanding[m], idx)
	rs.mu.Unlock()
}

// stealFor hands thief tasks still outstanding on other members and not
// already stolen, up to the entire remaining steal budget — first
// drained worker takes what it can; the bound is global, not divided
// per thief.
func (rs *roundState) stealFor(thief int) []task {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	var got []task
	for m, ts := range rs.outstanding {
		if m == thief {
			continue
		}
		for idx, t := range ts {
			if rs.stealLeft <= 0 {
				return got
			}
			if rs.stolenFrom[idx] {
				continue
			}
			rs.stolenFrom[idx] = true
			rs.stealLeft--
			got = append(got, t)
		}
	}
	return got
}

// runSharded drives the remoteable tasks to completion: shard by ring,
// stream every shard, deliver each original job index exactly once, and
// re-shard tasks stranded on lost workers onto the survivors.
// Termination: every re-queue burns one of its task's bounded retry
// attempts (tasks that exhaust them deliver their error), so the round
// loop cannot spin — at most maxRetries+1 routed rounds, and in the
// common worker-loss case each round also shrinks the alive set. A
// round in which every surviving member was refused by its circuit
// breaker routes nothing and burns nothing: it waits out the shortest
// breaker cooldown and retries, so a correlated blip is ridden out
// rather than failing the batch, while a genuinely sick fleet still
// fails tasks (and burns their retries) once probes are re-admitted.
// Each round takes a fresh placement snapshot, so workers re-admitted
// by the prober (or added by another runner through the coordinator)
// rejoin the sharding between rounds.
func (f *Runner) runSharded(ctx context.Context, jobs []engine.Job, tasks []task, out chan<- engine.JobResult) {
	var mu sync.Mutex
	delivered := make(map[int]bool, len(tasks))
	// deliver forwards a result unless the job already produced one (a
	// stolen duplicate, or a failover racing a slow success) — the
	// exactly-once guarantee of the merged stream.
	deliver := func(jr engine.JobResult) {
		mu.Lock()
		if delivered[jr.Index] {
			mu.Unlock()
			return
		}
		delivered[jr.Index] = true
		mu.Unlock()
		out <- f.finish(jr)
	}
	isDelivered := func(idx int) bool {
		mu.Lock()
		defer mu.Unlock()
		return delivered[idx]
	}

	pending := tasks
	stealBudget := f.steal // spans rounds: the WithSteal bound is per Stream call
	for round := 0; len(pending) > 0; round++ {
		pl := f.placementSnapshot()
		// This round's routing view: membership first, then the circuit
		// breaker. Breaker admission is computed once per member per round,
		// so a half-open circuit spends its single probe slot on one shard
		// rather than being consulted per key.
		routable := make([]bool, len(pl.members))
		breakerHeld := false // some member is alive but breaker-refused
		for i, mm := range pl.members {
			ok := f.assignable(mm.url)
			if ok && !f.breakerAllows(mm.url) {
				breakerHeld = true
				ok = false
			}
			routable[i] = ok
		}
		alive := func(i int) bool { return routable[i] }
		groups := map[int][]task{}
		var stranded []task
		for _, t := range pending {
			if m := pl.ring.pick(t.key, alive); m >= 0 {
				groups[m] = append(groups[m], t)
			} else {
				stranded = append(stranded, t)
			}
		}
		// A half-open member granted a probe this round but handed no
		// task has no request whose outcome could resolve the probe —
		// return the slot so the breaker cannot wedge half-open.
		for i, mm := range pl.members {
			if routable[i] && len(groups[i]) == 0 {
				f.breakerProbeUnused(mm.url)
			}
		}
		var held []task
		if len(stranded) > 0 {
			if breakerHeld {
				// No member took the keys, but only because every
				// survivor's breaker refused this round — a correlated
				// blip (network hiccup, rolling restart), not a lost
				// fleet. Hold the tasks: cooldown re-admits a probe,
				// and genuinely sick workers still fail tasks until
				// their bounded retries deliver the error.
				held = stranded
			} else {
				for _, t := range stranded {
					err := t.err
					if err == nil {
						err = errors.New("fleet: no workers alive")
					}
					deliver(engine.JobResult{Index: t.idx, Job: jobs[t.idx], Result: &engine.Result{
						Simpoint: jobs[t.idx].Simpoint, Setup: jobs[t.idx].Setup.Label,
						Err: fmt.Errorf("fleet: every worker lost (last failure: %w)", err),
					}})
				}
			}
		}
		if len(groups) == 0 {
			if len(held) == 0 {
				return
			}
			f.logf("fleet: every breaker open; holding %d task(s) until a probe is re-admitted", len(held))
			select {
			case <-ctx.Done():
				for _, t := range held {
					err := t.err
					if err == nil {
						err = ctx.Err()
					}
					deliver(engine.JobResult{Index: t.idx, Job: jobs[t.idx], Result: &engine.Result{
						Simpoint: jobs[t.idx].Simpoint, Setup: jobs[t.idx].Setup.Label,
						Err: fmt.Errorf("fleet: canceled while waiting out breaker cooldown (last failure: %w)", err),
					}})
				}
				return
			case <-time.After(f.breakerRetryDelay()):
			}
			pending = held
			continue
		}
		if round > 0 {
			f.logf("fleet: retry round %d: re-sharding %d job(s) across %d surviving worker(s)",
				round, len(pending)-len(stranded), f.Alive())
		}

		rs := &roundState{
			outstanding: make(map[int]map[int]task, len(groups)),
			stolenFrom:  map[int]bool{},
			stealLeft:   stealBudget,
		}
		for m, ts := range groups {
			rs.outstanding[m] = make(map[int]task, len(ts))
			for _, t := range ts {
				rs.outstanding[m][t.idx] = t
			}
		}

		var wg sync.WaitGroup
		for m, ts := range groups {
			wg.Add(1)
			go func(m int, ts []task) {
				defer wg.Done()
				f.runGroup(ctx, pl, m, ts, jobs, rs, deliver, isDelivered)
			}(m, ts)
		}
		wg.Wait()
		stealBudget = rs.stealLeft // whatever this round didn't use carries over

		// Tasks still in the requeue pool had their owner die after every
		// other member had already drained and exited — the next round
		// re-shards them. One both requeued and delivered (a thief
		// finished it first) must not run again.
		pending = pending[:0]
		for _, t := range rs.takeRequeued() {
			if !isDelivered(t.idx) {
				pending = append(pending, t)
			}
		}
		if len(pending) > 0 {
			// Between failover rounds, pull the freshest view: a worker
			// another runner re-admitted or added may take the strays.
			f.syncMembership(ctx)
		}
	}
}

// runGroup streams one member's shard; a task failing with a worker-loss
// error marks the member dead and returns the task to the round's
// requeue pool. A member that drains its shard does not idle behind the
// round barrier: it first adopts requeued tasks from lost workers (so
// failover overlaps the surviving shards instead of serializing after
// them), then — if the steal policy is on — duplicates part of the tail
// still in flight on other members. Stolen attempts never requeue: the
// owning member remains responsible for each of its tasks, so a failed
// duplicate is simply dropped.
func (f *Runner) runGroup(ctx context.Context, pl placement, m int, ts []task, jobs []engine.Job,
	rs *roundState, deliver func(engine.JobResult), isDelivered func(int) bool) {
	mem := pl.members[m]
	if f.streamTasks(ctx, pl, m, ts, jobs, rs, deliver, true) {
		return // lost mid-shard: its own unfinished tasks are requeued
	}

	// Adopt work stranded by workers that died while this one ran. The
	// pool hand-off is exclusive, so adopted tasks run exactly once;
	// loop, because more strandings can land while an adopted batch runs.
	for ctx.Err() == nil {
		adopted := rs.takeRequeued()
		// A requeued task a thief already finished must not re-run.
		kept := adopted[:0]
		for _, t := range adopted {
			if !isDelivered(t.idx) {
				kept = append(kept, t)
			}
		}
		if len(kept) == 0 {
			break
		}
		f.logf("fleet: worker %s adopting %d job(s) from lost worker(s)", mem.url, len(kept))
		if f.streamTasks(ctx, pl, m, kept, jobs, rs, deliver, false) {
			return // this member died too; its leftovers are back in the pool
		}
	}

	if f.steal <= 0 || ctx.Err() != nil || !f.assignable(mem.url) {
		return
	}
	stolen := rs.stealFor(m)
	if len(stolen) == 0 {
		return
	}
	f.logf("fleet: worker %s stealing %d straggler job(s)", mem.url, len(stolen))
	dup := make([]engine.Job, len(stolen))
	for i, t := range stolen {
		dup[i] = jobs[t.idx]
	}
	for jr := range mem.runner.Stream(ctx, dup) {
		t := stolen[jr.Index]
		if err := jr.Result.Err; err != nil && ctx.Err() == nil {
			// A failed duplicate is always dropped — the owner still
			// carries the task. Even a "terminal" failure here may be
			// thief-local state (an evicted blob 404ing the fetch), and
			// delivering it would preempt the owner's eventual success.
			// Dead-marking needs the same liveness probe as streamTasks:
			// a transient blip on a stolen job must not cost the fleet a
			// healthy worker.
			if retryable(err) {
				f.breakerFailure(mem.url)
				if f.assignable(mem.url) && !f.probeAlive(mem) {
					f.markLost(mem, fmt.Errorf("lost while stealing: %w", err))
				}
			}
			continue
		}
		f.breakerSuccess(mem.url)
		deliver(engine.JobResult{Index: t.idx, Job: jobs[t.idx], Result: jr.Result})
	}
}

// streamTasks runs one batch of exclusively owned tasks on member m,
// delivering successes and terminal failures, requeueing worker-loss
// failures. A failure only marks the member dead after a liveness probe
// also fails — a single dropped connection on a one-shot request
// (submit, result fetch) must not permanently halve the fleet — and
// each task's retries are bounded so a flapping-but-alive worker cannot
// loop a job forever. own marks the member's originally sharded tasks,
// which are tracked in the steal pool and must be resolved out of it.
// Reports whether the member became unroutable along the way.
func (f *Runner) streamTasks(ctx context.Context, pl placement, m int, ts []task, jobs []engine.Job,
	rs *roundState, deliver func(engine.JobResult), own bool) (died bool) {
	mem := pl.members[m]
	batch := make([]engine.Job, len(ts))
	for i, t := range ts {
		batch[i] = jobs[t.idx]
	}
	probed, alive := false, false // one probe per batch at most
	for jr := range mem.runner.Stream(ctx, batch) {
		t := ts[jr.Index]
		if own {
			rs.resolve(m, t.idx)
		}
		if err := jr.Result.Err; err != nil && ctx.Err() == nil && retryable(err) {
			f.breakerFailure(mem.url)
			t.attempts++
			t.err = err
			if t.attempts > f.maxRetries {
				deliver(engine.JobResult{Index: t.idx, Job: jobs[t.idx], Result: &engine.Result{
					Simpoint: jobs[t.idx].Simpoint, Setup: jobs[t.idx].Setup.Label,
					Err: fmt.Errorf("fleet: job failed %d times across workers (last: %w)", t.attempts, err),
				}})
				continue
			}
			if !probed && f.assignable(mem.url) {
				probed, alive = true, f.probeAlive(mem)
			}
			if alive {
				f.logf("fleet: transient failure on %s (%v); retrying job", mem.url, err)
			} else {
				f.markLost(mem, err)
			}
			rs.requeue(t)
			continue
		}
		// The worker answered — deterministic job failures included — so
		// its transport is healthy as far as the breaker is concerned.
		f.breakerSuccess(mem.url)
		deliver(engine.JobResult{Index: t.idx, Job: jobs[t.idx], Result: jr.Result})
	}
	return !f.assignable(mem.url)
}

// probeAlive asks whether a worker that just failed a request is still
// there at all: a quick liveness round trip, distinguishing a transient
// blip (retry on the same member) from a lost worker (mark dead and
// re-shard).
func (f *Runner) probeAlive(mem *member) bool {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return mem.c.Health(ctx) == nil
}
