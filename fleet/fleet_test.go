package fleet_test

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clustersim/client"
	"clustersim/fleet"
	"clustersim/internal/engine"
	"clustersim/internal/service"
	"clustersim/internal/sim"
	"clustersim/internal/store"
	"clustersim/internal/workload"
)

// worker is one in-process clusterd: a real service stack behind an
// interceptable handler, so tests can kill or delay it mid-protocol.
type worker struct {
	ts *httptest.Server
	// url names the worker by a fixed host that fastClient's transport
	// resolves to ts (see hosts).
	url string
	eng *engine.Engine
	svc http.Handler

	dead        atomic.Bool  // every request aborts at the transport level
	sick        atomic.Bool  // like dead, but liveness probes still answer
	killOnIndex atomic.Int64 // arm: die right after the Nth submit (1-based)
	submits     atomic.Int64
	streamDelay time.Duration // slows SSE delivery: a straggler worker
}

func (w *worker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if w.dead.Load() {
		panic(http.ErrAbortHandler) // the transport dies, no HTTP answer
	}
	if w.sick.Load() && r.URL.Path != "/healthz" {
		// Sick, not gone: the breaker's target case — health probes pass
		// while every real request dies at the transport.
		panic(http.ErrAbortHandler)
	}
	if w.streamDelay > 0 && strings.HasSuffix(r.URL.Path, "/stream") {
		time.Sleep(w.streamDelay)
	}
	isSubmit := r.Method == http.MethodPost && r.URL.Path == "/v1/jobs"
	w.svc.ServeHTTP(rw, r)
	if isSubmit && w.submits.Add(1) == w.killOnIndex.Load() {
		// The submission was accepted and its jobs are running; every
		// request from here on — the SSE stream, result fetches — hits
		// the dead check above. This is "worker lost mid-stream".
		w.dead.Store(true)
	}
}

// hosts maps each running worker's fixed host name ("w1:80") to the
// loopback address its test server listens on. The fleet shards by
// worker URL, so naming workers by fixed hosts instead of their
// ephemeral ports makes the ring place a test's jobs the same way in
// every run: tests that need jobs on both workers cannot flake on a
// port pair that puts a whole batch on one of them.
var hosts sync.Map

// startWorker starts a worker reachable, through fastClient's transport,
// as http://name.
func startWorker(t *testing.T, name string) *worker {
	t.Helper()
	st := store.NewTiered(store.NewMemory(64<<20), store.NewMemory(64<<20))
	eng := engine.New(engine.Options{Parallelism: 2, ResultStore: st})
	w := &worker{url: "http://" + name, eng: eng, svc: service.New(context.Background(), eng, st)}
	w.ts = httptest.NewServer(w)
	hosts.Store(name+":80", w.ts.Listener.Addr().String())
	t.Cleanup(func() {
		hosts.Delete(name + ":80")
		w.ts.Close()
	})
	return w
}

// fastClient makes failover quick enough for tests: tiny backoff, two
// reconnect attempts before a worker counts as lost. Its transport,
// fresh per call so no pooled connection outlives a test's servers,
// resolves the workers' fixed host names.
func fastClient() fleet.Option {
	tr := client.DefaultTransport.Clone()
	tr.Proxy = nil
	var d net.Dialer
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if a, ok := hosts.Load(addr); ok {
			addr = a.(string)
		}
		return d.DialContext(ctx, network, addr)
	}
	return fleet.WithClientOptions(
		client.WithHTTPClient(&http.Client{Transport: tr}),
		client.WithBackoff(time.Millisecond, 5*time.Millisecond),
		client.WithRetries(2),
	)
}

// suiteJobs builds a unique-job matrix over n suite workloads × the two
// base setups.
func suiteJobs(t *testing.T, n int) ([]*workload.Simpoint, []engine.Setup, []engine.Job) {
	t.Helper()
	all := workload.QuickSuite()
	if n > len(all) {
		t.Fatalf("want %d workloads, quick suite has %d", n, len(all))
	}
	sps := all[:n]
	setups := []engine.Setup{sim.SetupOP(2), sim.SetupVC(2, 2)}
	var jobs []engine.Job
	for _, sp := range sps {
		for _, s := range setups {
			jobs = append(jobs, engine.Job{Simpoint: sp, Setup: s, Opts: engine.RunOptions{NumUops: 2000}})
		}
	}
	return sps, setups, jobs
}

// collect drains a result stream, failing on duplicate deliveries — the
// exactly-once contract of the merged stream.
func collect(t *testing.T, out <-chan engine.JobResult, want int) map[int]engine.JobResult {
	t.Helper()
	got := map[int]engine.JobResult{}
	deadline := time.After(120 * time.Second)
	for len(got) < want {
		select {
		case jr, ok := <-out:
			if !ok {
				t.Fatalf("stream closed after %d of %d results", len(got), want)
			}
			if _, dup := got[jr.Index]; dup {
				t.Fatalf("job %d delivered twice", jr.Index)
			}
			got[jr.Index] = jr
		case <-deadline:
			t.Fatalf("timed out with %d of %d results", len(got), want)
		}
	}
	if jr, ok := <-out; ok {
		t.Fatalf("extra result for job %d after all %d arrived", jr.Index, want)
	}
	return got
}

// A two-worker fleet produces results indistinguishable from a local
// engine's, spreads the work across both workers' stores, and a second
// fleet over the same workers is served entirely from their caches.
func TestFleetMatchesLocalEngine(t *testing.T) {
	w1, w2 := startWorker(t, "w1"), startWorker(t, "w2")
	urls := []string{w1.url, w2.url}
	ctx := context.Background()

	f, err := fleet.New(urls, fastClient())
	if err != nil {
		t.Fatal(err)
	}
	sps, setups, _ := suiteJobs(t, 8)
	got, err := engine.RunMatrixOn(ctx, f, sps, setups, engine.RunOptions{NumUops: 2000})
	if err != nil {
		t.Fatal(err)
	}
	local := engine.New(engine.Options{Parallelism: 2})
	want, err := engine.RunMatrixOn(ctx, local, sps, setups, engine.RunOptions{NumUops: 2000})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sps {
		for j := range setups {
			g, w := got[i][j], want[i][j]
			if g.Err != nil || w.Err != nil {
				t.Fatalf("cell %d/%d errs: %v / %v", i, j, g.Err, w.Err)
			}
			if g.Simpoint != sps[i] {
				t.Errorf("cell %d/%d not re-bound to the submitted simpoint", i, j)
			}
			if !reflect.DeepEqual(g.Metrics, w.Metrics) {
				t.Errorf("cell %d/%d metrics diverge", i, j)
			}
		}
	}

	// The consistent hash spread the batch: both workers simulated, and
	// together they covered every unique job exactly once.
	s1, s2 := w1.eng.Stats().Simulations, w2.eng.Stats().Simulations
	if s1 == 0 || s2 == 0 {
		t.Errorf("shard split degenerate: worker sims %d / %d", s1, s2)
	}
	if total := int(s1 + s2); total != len(sps)*len(setups) {
		t.Errorf("%d simulations across the fleet for %d unique jobs", total, len(sps)*len(setups))
	}
	if st := f.Stats(); st.Simulations != s1+s2 {
		t.Errorf("fleet stats report %d simulations, workers executed %d", st.Simulations, s1+s2)
	}

	// A fresh fleet re-running the same matrix executes nothing: every
	// key lands on the worker whose store already holds it.
	f2, err := fleet.New(urls, fastClient())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.RunMatrixOn(ctx, f2, sps, setups, engine.RunOptions{NumUops: 2000}); err != nil {
		t.Fatal(err)
	}
	if st := f2.Stats(); st.Simulations != 0 {
		t.Errorf("rerun executed %d simulations, want 0 (store affinity broken)", st.Simulations)
	}
}

// Killing a worker mid-stream must not lose or duplicate work: its
// unfinished jobs re-shard onto the survivor, every job yields exactly
// one successful result, and the loss is logged.
func TestFleetKillWorkerMidStream(t *testing.T) {
	w1, w2 := startWorker(t, "w1"), startWorker(t, "w2")
	ctx := context.Background()

	var logMu sync.Mutex
	var logs []string
	f, err := fleet.New([]string{w1.url, w2.url}, fastClient(),
		fleet.WithLog(func(format string, args ...any) {
			logMu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			logMu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}

	// Arm worker 2: it accepts the fleet's shard submission, then its
	// transport dies — jobs in flight, none of their results fetchable.
	w2.killOnIndex.Store(1)

	_, _, jobs := suiteJobs(t, 8)
	got := collect(t, f.Stream(ctx, jobs), len(jobs))
	for idx, jr := range got {
		if jr.Result.Err != nil {
			t.Errorf("job %d failed despite failover: %v", idx, jr.Result.Err)
		}
	}

	// Every lost job re-ran exactly once, on the survivor: with worker
	// 2's results unreachable, worker 1 must have executed the whole
	// unique-job set (its engine dedups, so re-runs can't double-count).
	if s1 := w1.eng.Stats().Simulations; int(s1) != len(jobs) {
		t.Errorf("survivor executed %d simulations, want %d", s1, len(jobs))
	}
	if f.Alive() != 1 {
		t.Errorf("fleet reports %d workers alive, want 1", f.Alive())
	}
	logMu.Lock()
	defer logMu.Unlock()
	joined := strings.Join(logs, "\n")
	if !strings.Contains(joined, "lost") || !strings.Contains(joined, "re-sharding") {
		t.Errorf("worker loss not logged; logs:\n%s", joined)
	}

	// The dead worker is sticky: a later batch routes entirely to the
	// survivor without new failures.
	_, _, more := suiteJobs(t, 4)
	for idx, jr := range collect(t, f.Stream(ctx, more), len(more)) {
		if jr.Result.Err != nil {
			t.Errorf("post-loss job %d failed: %v", idx, jr.Result.Err)
		}
	}
}

// A round in which every worker is alive but breaker-refused (breakers
// tripped by an earlier batch, e.g. a correlated blip) must hold the
// work through the cooldown and probe, not fail it as "every worker
// lost".
func TestFleetAllBreakersOpenHoldsNotFails(t *testing.T) {
	w1, w2 := startWorker(t, "w1"), startWorker(t, "w2")

	var logMu sync.Mutex
	var logs []string
	f, err := fleet.New([]string{w1.url, w2.url}, fastClient(),
		fleet.WithBreaker(1, 2*time.Second),
		fleet.WithLog(func(format string, args ...any) {
			logMu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			logMu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	w1.sick.Store(true)
	w2.sick.Store(true)

	// The first batch fails outright — both workers answer health probes
	// but abort every job request — exhausting each task's retries and
	// leaving both breakers open while the workers stay assignable. The
	// full suite matrix shards across both workers, tripping both.
	_, _, jobs := suiteJobs(t, 8)
	for idx, jr := range collect(t, f.Stream(context.Background(), jobs), len(jobs)) {
		if jr.Result.Err == nil {
			t.Fatalf("job %d succeeded on a sick worker", idx)
		}
	}
	if alive := f.Alive(); alive != 2 {
		t.Fatalf("sick-but-alive workers marked lost: %d alive, want 2", alive)
	}

	// Heal the workers and immediately resubmit: round 0 finds every
	// member alive yet breaker-refused.
	w1.sick.Store(false)
	w2.sick.Store(false)
	for idx, jr := range collect(t, f.Stream(context.Background(), jobs), len(jobs)) {
		if jr.Result.Err != nil {
			t.Errorf("job %d failed despite healed workers: %v", idx, jr.Result.Err)
		}
	}
	logMu.Lock()
	defer logMu.Unlock()
	if joined := strings.Join(logs, "\n"); !strings.Contains(joined, "every breaker open") {
		t.Errorf("breaker hold not logged; logs:\n%s", joined)
	}
}

// With every worker lost, pending jobs surface errors (exactly one per
// job) instead of hanging.
func TestFleetAllWorkersLost(t *testing.T) {
	w1, w2 := startWorker(t, "w1"), startWorker(t, "w2")
	f, err := fleet.New([]string{w1.url, w2.url}, fastClient())
	if err != nil {
		t.Fatal(err)
	}
	w1.killOnIndex.Store(1)
	w2.killOnIndex.Store(1)

	_, _, jobs := suiteJobs(t, 4)
	failed := 0
	for _, jr := range collect(t, f.Stream(context.Background(), jobs), len(jobs)) {
		if jr.Result.Err != nil {
			failed++
		}
	}
	if failed == 0 {
		t.Error("every worker died yet no job reported an error")
	}
	if f.Alive() != 0 {
		t.Errorf("fleet reports %d workers alive, want 0", f.Alive())
	}
}

// A job on a MachineSpec shards to a worker like any other job and
// returns the local engine's result; a job with no wire form fails
// loudly. Deterministic job failures are never retried as worker loss.
func TestFleetShipsMachineSpec(t *testing.T) {
	w1, w2 := startWorker(t, "w1"), startWorker(t, "w2")
	ctx := context.Background()
	sp := workload.ByName("gzip-1")
	tweaked := engine.Job{
		Simpoint: sp,
		Setup:    sim.SetupOP(2),
		Opts:     engine.RunOptions{NumUops: 2000, Machine: engine.MachineSpec{LinkLatency: 9}},
	}

	f, err := fleet.New([]string{w1.url, w2.url}, fastClient())
	if err != nil {
		t.Fatal(err)
	}
	res := f.Run(ctx, tweaked)
	if res.Err != nil {
		t.Fatalf("machine-spec job: %v", res.Err)
	}
	if w1.eng.Stats().Simulations+w2.eng.Stats().Simulations != 1 {
		t.Error("machine-spec job did not run on exactly one worker")
	}
	got, _ := engine.EncodeResult(res)
	ref, _ := engine.EncodeResult(engine.Execute(ctx, tweaked))
	if !bytes.Equal(got, ref) {
		t.Error("fleet machine-spec result differs from the local engine's")
	}

	custom := engine.Job{Simpoint: &workload.Simpoint{Name: "homegrown", Program: sp.Program, Weight: 1},
		Setup: sim.SetupOP(2), Opts: engine.RunOptions{NumUops: 2000}}
	if res := f.Run(ctx, custom); res.Err == nil {
		t.Fatal("a non-suite workload succeeded on the fleet")
	}
	// Both workers stay alive: a job-level refusal is not worker loss.
	if f.Alive() != 2 {
		t.Errorf("fleet reports %d alive after a refused job, want 2", f.Alive())
	}
}

// Construction health-checks every worker and names the unreachable or
// unauthorized ones; a correct token passes.
func TestFleetConstructionHealthCheck(t *testing.T) {
	good := startWorker(t, "good")
	deadTS := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	deadURL := deadTS.URL
	deadTS.Close()

	_, err := fleet.New([]string{good.ts.URL, deadURL},
		fleet.WithHealthTimeout(2*time.Second))
	if err == nil || !strings.Contains(err.Error(), deadURL) {
		t.Fatalf("dead worker not named at construction: %v", err)
	}

	// An authenticated fleet: wrong token fails construction, right one
	// passes and runs jobs.
	st := store.NewMemory(64 << 20)
	eng := engine.New(engine.Options{Parallelism: 2, ResultStore: st})
	svc := service.New(context.Background(), eng, st)
	svc.SetToken("sesame")
	locked := httptest.NewServer(svc)
	t.Cleanup(locked.Close)

	if _, err := fleet.New([]string{locked.URL}, fleet.WithHealthTimeout(2*time.Second)); err == nil {
		t.Fatal("tokenless fleet passed an authenticated worker's health check")
	}
	f, err := fleet.New([]string{locked.URL}, fastClient(), fleet.WithToken("sesame"))
	if err != nil {
		t.Fatal(err)
	}
	res := f.Run(context.Background(),
		engine.Job{Simpoint: workload.ByName("gzip-1"), Setup: sim.SetupOP(2), Opts: engine.RunOptions{NumUops: 2000}})
	if res.Err != nil {
		t.Fatalf("authenticated run: %v", res.Err)
	}

	if _, err := fleet.New(nil); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := fleet.New([]string{good.ts.URL, good.ts.URL}); err == nil {
		t.Error("duplicate worker URL accepted")
	}
}

// Work stealing: when one worker's event stream straggles, an idle
// worker duplicates part of its tail; the merged stream still delivers
// each job exactly once with correct results.
func TestFleetStealTail(t *testing.T) {
	w1, w2 := startWorker(t, "w1"), startWorker(t, "w2")
	w2.streamDelay = 700 * time.Millisecond // worker 2 reports late

	var logMu sync.Mutex
	var logs []string
	f, err := fleet.New([]string{w1.url, w2.url}, fastClient(),
		fleet.WithSteal(4),
		fleet.WithLog(func(format string, args ...any) {
			logMu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			logMu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}

	_, _, jobs := suiteJobs(t, 8)
	got := collect(t, f.Stream(context.Background(), jobs), len(jobs))
	for idx, jr := range got {
		if jr.Result.Err != nil {
			t.Errorf("job %d failed: %v", idx, jr.Result.Err)
		}
	}
	logMu.Lock()
	defer logMu.Unlock()
	if !strings.Contains(strings.Join(logs, "\n"), "stealing") {
		t.Errorf("straggler tail was never stolen; logs:\n%s", strings.Join(logs, "\n"))
	}
	if f.Alive() != 2 {
		t.Errorf("stealing marked a worker dead: %d alive", f.Alive())
	}
}
