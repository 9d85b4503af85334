// Runner adapts a Client to the engine.Runner interface: jobs are
// converted to declarative JobSpecs, shipped to clusterd in one batch per
// Stream call, followed over SSE, and their full results fetched back by
// content key through the engine codec. Everything written against
// engine.Runner — sim.RunMatrixOn, the experiment harness, steerbench —
// therefore runs against a clusterd fleet unchanged.
package client

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"clustersim/internal/api"
	"clustersim/internal/engine"
	"clustersim/internal/obs"
	"clustersim/internal/sim"
)

// Runner executes engine jobs on a remote clusterd instance. Jobs with no
// declarative wire form (hand-built setups, non-suite workloads) fail
// with the conversion error. Safe for concurrent use.
type Runner struct {
	c           *Client
	progress    func(done, total int, label string)
	maxParallel int
	tracer      *obs.Tracer

	submitted, completed atomic.Int64

	baseOnce sync.Once
	baseline engine.CacheStats // server counters when this runner first ran
}

// JobError is a job-level failure the server reported in a completion
// event: the worker was reachable and executed (or refused) the job, and
// the failure is deterministic — resubmitting the job elsewhere would
// fail identically. Transport failures are never JobErrors, which is how
// multi-worker runners tell a lost worker from a genuinely failing job.
type JobError struct {
	// Message is the server-reported failure text.
	Message string
}

// Error implements the error interface.
func (e *JobError) Error() string { return "clusterd: " + e.Message }

// RunnerOption configures a Runner.
type RunnerOption func(*Runner)

// WithProgress mirrors engine.Options.Progress: fn is called after every
// finished job with the runner-lifetime completed and submitted counts.
// It may be called concurrently.
func WithProgress(fn func(done, total int, label string)) RunnerOption {
	return func(r *Runner) { r.progress = fn }
}

// WithBatchParallel forwards a per-batch parallelism hint with every
// submission this runner makes: the server caps how many of its workers
// the batch occupies at once (clamped to the server's own limit). Useful
// when several runners share one worker and none should monopolize it.
func WithBatchParallel(n int) RunnerOption {
	return func(r *Runner) { r.maxParallel = n }
}

// WithRunnerTracer records one client-side flight per remote batch
// (spans: submit, stream, and one fetch per result) into t, under the
// same trace-ID base the server derives per-job IDs from — so a
// steerbench -trace-out timeline lines the client's view up against
// the workers' span trees.
func WithRunnerTracer(t *obs.Tracer) RunnerOption {
	return func(r *Runner) { r.tracer = t }
}

// NewRunner wraps a Client as an engine.Runner.
func NewRunner(c *Client, opts ...RunnerOption) *Runner {
	r := &Runner{c: c}
	for _, o := range opts {
		o(r)
	}
	return r
}

var _ engine.Runner = (*Runner)(nil)

// captureBaseline snapshots the server's lifetime counters the first time
// the runner does work, so Stats can report this runner's share.
func (r *Runner) captureBaseline(ctx context.Context) {
	r.baseOnce.Do(func() {
		if st, err := r.c.Stats(ctx); err == nil {
			r.baseline = st.Engine
		}
	})
}

// Run executes one job and blocks until its result is available.
func (r *Runner) Run(ctx context.Context, job engine.Job) *engine.Result {
	for jr := range r.Stream(ctx, []engine.Job{job}) {
		return jr.Result
	}
	// Unreachable: Stream always yields one result per job.
	return &engine.Result{Simpoint: job.Simpoint, Setup: job.Setup.Label,
		Err: errors.New("client: stream yielded no result")}
}

// Stream submits the jobs and returns a channel yielding each result as
// it completes. Jobs with a wire form travel as one batch submission; the
// rest fail with the conversion error. The channel is buffered to hold
// every result and closed once all jobs finish.
func (r *Runner) Stream(ctx context.Context, jobs []engine.Job) <-chan engine.JobResult {
	out := make(chan engine.JobResult, len(jobs))
	r.submitted.Add(int64(len(jobs)))
	go func() {
		defer close(out)
		r.captureBaseline(ctx)

		var specs []engine.JobSpec
		var remoteIdx []int
		for i, job := range jobs {
			spec, err := sim.SpecFromJob(job)
			if err != nil {
				out <- r.finish(engine.JobResult{Index: i, Job: job, Result: &engine.Result{
					Simpoint: job.Simpoint, Setup: job.Setup.Label,
					Err: fmt.Errorf("client: job not remoteable: %w", err),
				}})
				continue
			}
			specs = append(specs, spec)
			remoteIdx = append(remoteIdx, i)
		}
		if len(specs) > 0 {
			r.streamRemote(ctx, jobs, specs, remoteIdx, out)
		}
	}()
	return out
}

// streamRemote runs one batch submission end-to-end: submit, follow the
// SSE stream, fetch each completed job's full result by key. Jobs whose
// events never arrive (stream failure, cancellation) are reported with
// the stream's error so every submitted job yields exactly one result.
func (r *Runner) streamRemote(ctx context.Context, jobs []engine.Job, specs []engine.JobSpec, remoteIdx []int, out chan<- engine.JobResult) {
	fail := func(err error) {
		for _, idx := range remoteIdx {
			out <- r.finish(engine.JobResult{Index: idx, Job: jobs[idx], Result: &engine.Result{
				Simpoint: jobs[idx].Simpoint, Setup: jobs[idx].Setup.Label, Err: err,
			}})
		}
	}
	// Propagate the caller's trace ID as the batch's base when the
	// context carries one, else mint a fresh base, so the server's
	// per-job IDs ("<base>.<index>") are known here up front.
	base := obs.TraceIDFrom(ctx)
	if !obs.ValidTraceID(base) {
		base = obs.NewTraceID()
	}
	fl := r.tracer.StartFlight(obs.WithTraceID(ctx, base), fmt.Sprintf("batch[%d]", len(specs)))
	defer fl.End()
	var sopts []SubmitOption
	if r.maxParallel > 0 {
		sopts = append(sopts, WithMaxParallel(r.maxParallel))
	}
	sopts = append(sopts, WithTraceBase(base))
	t0 := fl.Begin()
	sub, err := r.c.Submit(ctx, specs, sopts...)
	fl.Span("submit", t0)
	if err != nil {
		fail(err)
		return
	}
	if sub.Total != len(specs) || len(sub.Keys) != len(specs) {
		fail(fmt.Errorf("client: server accepted %d of %d jobs", sub.Total, len(specs)))
		return
	}

	// Fetch results concurrently as their completion events arrive; the
	// semaphore keeps a wide batch from opening unbounded connections.
	var wg sync.WaitGroup
	sem := make(chan struct{}, 8)
	arrived := make([]bool, len(specs))
	t0 = fl.Begin()
	streamErr := r.c.Stream(ctx, sub.ID, func(ev api.JobEvent) {
		if ev.Index < 0 || ev.Index >= len(specs) || arrived[ev.Index] {
			return // defensive: out-of-range or duplicate event
		}
		arrived[ev.Index] = true
		idx := remoteIdx[ev.Index]
		job := jobs[idx]
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			tf := fl.Begin()
			res := r.fetch(ctx, job, ev)
			fl.Span("fetch", tf)
			out <- r.finish(engine.JobResult{Index: idx, Job: job, Result: res})
		}()
	})
	fl.Span("stream", t0)
	wg.Wait()
	if streamErr == nil {
		streamErr = errors.New("client: stream completed with missing results")
	}
	for i, ok := range arrived {
		if ok {
			continue
		}
		idx := remoteIdx[i]
		out <- r.finish(engine.JobResult{Index: idx, Job: jobs[idx], Result: &engine.Result{
			Simpoint: jobs[idx].Simpoint, Setup: jobs[idx].Setup.Label, Err: streamErr,
		}})
	}
}

// fetch turns one completion event into a full result: failures surface
// as error results, successes are fetched by key and re-bound to the
// submitting job's simpoint so result rows match the local suite.
func (r *Runner) fetch(ctx context.Context, job engine.Job, ev api.JobEvent) *engine.Result {
	if ev.Error != "" {
		return &engine.Result{Simpoint: job.Simpoint, Setup: job.Setup.Label,
			Err: &JobError{Message: ev.Error}}
	}
	res, err := r.c.Result(ctx, ev.Key)
	if err != nil {
		return &engine.Result{Simpoint: job.Simpoint, Setup: job.Setup.Label, Err: err}
	}
	res.Simpoint = job.Simpoint
	return res
}

// finish updates the runner-lifetime progress counters around a result.
func (r *Runner) finish(jr engine.JobResult) engine.JobResult {
	done := r.completed.Add(1)
	if r.progress != nil {
		label := ""
		if jr.Job.Simpoint != nil {
			label = jr.Job.Simpoint.Name + "/" + jr.Job.Setup.Label
		}
		r.progress(int(done), int(r.submitted.Load()), label)
	}
	return jr
}

// Stats reports the work attributable to this runner: the server's
// counter deltas since the runner first submitted. A stats fetch failure
// reports zero counters.
func (r *Runner) Stats() engine.CacheStats {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// The Once both sets the baseline for a runner that never ran (delta
	// 0, correctly "no work attributable") and orders this read of
	// r.baseline after a concurrent Stream's write.
	r.captureBaseline(ctx)
	st, err := r.c.Stats(ctx)
	if err != nil {
		return engine.CacheStats{}
	}
	return st.Engine.Delta(r.baseline)
}
