package fleet_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"clustersim/fleet"
	"clustersim/internal/engine"
	"clustersim/internal/service"
	"clustersim/internal/store"
)

// startCoordinator runs a clusterd in coordinator mode: the shared epoch
// register N fleet runners converge through.
func startCoordinator(t *testing.T) *httptest.Server {
	t.Helper()
	st := store.NewMemory(16 << 20)
	eng := engine.New(engine.Options{Parallelism: 1, ResultStore: st})
	svc := service.New(context.Background(), eng, st)
	svc.EnableCoordinator()
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)
	return ts
}

// memberState finds url's row in a FleetStats snapshot.
func memberState(t *testing.T, st fleet.Stats, url string) fleet.MemberStatus {
	t.Helper()
	for _, ms := range st.Members {
		if ms.URL == url {
			return ms
		}
	}
	t.Fatalf("member %s missing from fleet stats %+v", url, st.Members)
	return fleet.MemberStatus{}
}

// A worker that dies and comes back is re-admitted by the prober, and
// re-admission restores its exact pre-death placement: re-running the
// original batch costs zero simulations because every key lands back on
// the worker whose store already holds it.
func TestFleetReadmitRestoresPlacement(t *testing.T) {
	w1, w2 := startWorker(t, "w1"), startWorker(t, "w2")
	ctx := context.Background()

	f, err := fleet.New([]string{w1.url, w2.url}, fastClient(),
		fleet.WithReadmit(25*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	_, _, jobs := suiteJobs(t, 8)
	collect(t, f.Stream(ctx, jobs), len(jobs))
	s1, s2 := w1.eng.Stats().Simulations, w2.eng.Stats().Simulations
	if s1 == 0 || s2 == 0 {
		t.Fatalf("degenerate shard split: %d / %d", s1, s2)
	}

	// Worker 2 dies; the batch fails over onto worker 1.
	w2.dead.Store(true)
	collect(t, f.Stream(ctx, jobs), len(jobs))
	if f.Alive() != 1 {
		t.Fatalf("fleet reports %d alive after kill, want 1", f.Alive())
	}
	st := f.FleetStats()
	if ms := memberState(t, st, w2.url); ms.State != "dead" || ms.LastError == "" {
		t.Errorf("dead worker state = %q lastErr = %q", ms.State, ms.LastError)
	}
	deadEpoch := st.Epoch

	// Worker 2 recovers; the liveness prober re-admits it.
	w2.dead.Store(false)
	deadline := time.After(10 * time.Second)
	for f.Alive() != 2 {
		select {
		case <-deadline:
			t.Fatal("prober never re-admitted the recovered worker")
		case <-time.After(10 * time.Millisecond):
		}
	}
	st = f.FleetStats()
	if st.Readmissions != 1 {
		t.Errorf("readmissions = %d, want 1", st.Readmissions)
	}
	if st.Epoch <= deadEpoch {
		t.Errorf("epoch did not advance on re-admission: %d -> %d", deadEpoch, st.Epoch)
	}
	if ms := memberState(t, st, w2.url); ms.State != "alive" || ms.LastError != "" {
		t.Errorf("re-admitted worker state = %q lastErr = %q", ms.State, ms.LastError)
	}

	// Placement is exactly what it was before the death: both stores are
	// warm for their own ranges, so the re-run simulates nothing.
	pre1, pre2 := w1.eng.Stats().Simulations, w2.eng.Stats().Simulations
	collect(t, f.Stream(ctx, jobs), len(jobs))
	if a, b := w1.eng.Stats().Simulations, w2.eng.Stats().Simulations; a != pre1 || b != pre2 {
		t.Errorf("re-admission broke placement: sims %d/%d -> %d/%d", pre1, pre2, a, b)
	}
}

// Drain migrates the departing worker's results to its ring successors
// before removal: re-running the batch against the shrunken fleet costs
// zero simulations.
func TestFleetDrainMigratesWithoutResimulating(t *testing.T) {
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

	_, _, jobs := suiteJobs(t, 8)
	collect(t, f.Stream(ctx, jobs), len(jobs))
	s1, s2 := w1.eng.Stats().Simulations, w2.eng.Stats().Simulations
	if s1 == 0 || s2 == 0 {
		t.Fatalf("degenerate shard split: %d / %d", s1, s2)
	}

	if err := f.Drain(ctx, w2.url); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := f.FleetStats()
	if st.DrainMigrated == 0 {
		t.Error("drain migrated no result blobs")
	}
	if ms := memberState(t, st, w2.url); ms.State != "removed" {
		t.Errorf("drained worker state = %q, want removed", ms.State)
	}
	if f.Alive() != 1 {
		t.Fatalf("fleet reports %d alive after drain, want 1", f.Alive())
	}

	// The survivor inherited the drained range warm: nothing re-simulates,
	// on either side of the removal.
	collect(t, f.Stream(ctx, jobs), len(jobs))
	if a, b := w1.eng.Stats().Simulations, w2.eng.Stats().Simulations; a != s1 || b != s2 {
		t.Errorf("drain lost cache affinity: sims %d/%d -> %d/%d", s1, s2, a, b)
	}

	// A removed worker cannot be drained again, and the last assignable
	// worker has nowhere to drain to.
	if err := f.Drain(ctx, w2.url); err == nil {
		t.Error("draining a removed worker succeeded")
	}
	if err := f.Drain(ctx, w1.url); err == nil || !strings.Contains(err.Error(), "no assignable worker") {
		t.Errorf("draining the last worker: %v", err)
	}
	logMu.Lock()
	defer logMu.Unlock()
	if joined := strings.Join(logs, "\n"); !strings.Contains(joined, "drained") {
		t.Errorf("drain not logged; logs:\n%s", joined)
	}
}

// AddWorker warms the newcomer's stolen key ranges from the previous
// owners before announcing it: the first batch after the ring grows
// simulates nothing.
func TestFleetAddWorkerBackfills(t *testing.T) {
	w1 := startWorker(t, "w1")
	ctx := context.Background()

	f, err := fleet.New([]string{w1.url}, fastClient())
	if err != nil {
		t.Fatal(err)
	}
	_, _, jobs := suiteJobs(t, 8)
	collect(t, f.Stream(ctx, jobs), len(jobs))
	s1 := w1.eng.Stats().Simulations
	if int(s1) != len(jobs) {
		t.Fatalf("solo worker simulated %d of %d", s1, len(jobs))
	}

	w2 := startWorker(t, "w2")
	if err := f.AddWorker(ctx, w2.url); err != nil {
		t.Fatalf("add worker: %v", err)
	}
	st := f.FleetStats()
	if st.Backfilled == 0 {
		t.Error("scale-up backfilled no result blobs")
	}
	if ms := memberState(t, st, w2.url); ms.State != "alive" {
		t.Errorf("added worker state = %q, want alive", ms.State)
	}
	if f.Alive() != 2 {
		t.Fatalf("fleet reports %d alive after add, want 2", f.Alive())
	}

	// The newcomer serves its stolen range from the backfilled store.
	collect(t, f.Stream(ctx, jobs), len(jobs))
	if sims := w2.eng.Stats().Simulations; sims != 0 {
		t.Errorf("newcomer simulated %d jobs despite backfill", sims)
	}
	if sims := w1.eng.Stats().Simulations; sims != s1 {
		t.Errorf("previous owner re-simulated: %d -> %d", s1, sims)
	}

	// Adding a serving worker is an idempotent no-op.
	epoch := f.FleetStats().Epoch
	if err := f.AddWorker(ctx, w2.url); err != nil {
		t.Fatalf("re-add: %v", err)
	}
	if got := f.FleetStats().Epoch; got != epoch {
		t.Errorf("no-op add advanced the epoch %d -> %d", epoch, got)
	}
}

// Two runners sharing a coordinator converge on one placement: running
// the same batch concurrently from both costs exactly one simulation per
// unique job, both report the same membership epoch, and a drain made
// through one runner is visible to the other.
func TestFleetCoordinatorConvergence(t *testing.T) {
	w1, w2 := startWorker(t, "w1"), startWorker(t, "w2")
	coord := startCoordinator(t)
	urls := []string{w1.url, w2.url}
	ctx := context.Background()

	fA, err := fleet.New(urls, fastClient(), fleet.WithCoordinator(coord.URL))
	if err != nil {
		t.Fatal(err)
	}
	fB, err := fleet.New(urls, fastClient(), fleet.WithCoordinator(coord.URL))
	if err != nil {
		t.Fatal(err)
	}

	_, _, jobs := suiteJobs(t, 8)
	var wg sync.WaitGroup
	for _, f := range []*fleet.Runner{fA, fB} {
		wg.Add(1)
		go func(f *fleet.Runner) {
			defer wg.Done()
			collect(t, f.Stream(ctx, jobs), len(jobs))
		}(f)
	}
	wg.Wait()

	// Same placement from both runners: each key hit one worker, whose
	// engine deduplicated the concurrent identical submissions.
	s1, s2 := w1.eng.Stats().Simulations, w2.eng.Stats().Simulations
	if total := int(s1 + s2); total != len(jobs) {
		t.Errorf("%d simulations across the fleet for %d unique jobs (cross-runner duplicates)", total, len(jobs))
	}
	ea, eb := fA.FleetStats().Epoch, fB.FleetStats().Epoch
	if ea != eb {
		t.Errorf("runners diverge on membership epoch: %d vs %d", ea, eb)
	}

	// A drain through runner A reaches runner B at its next sync: B
	// routes around the removed worker and re-simulates nothing.
	if err := fA.Drain(ctx, w2.url); err != nil {
		t.Fatalf("drain through runner A: %v", err)
	}
	pre1, pre2 := w1.eng.Stats().Simulations, w2.eng.Stats().Simulations
	collect(t, fB.Stream(ctx, jobs), len(jobs))
	if a, b := w1.eng.Stats().Simulations, w2.eng.Stats().Simulations; a != pre1 || b != pre2 {
		t.Errorf("post-drain run re-simulated: %d/%d -> %d/%d", pre1, pre2, a, b)
	}
	if ms := memberState(t, fB.FleetStats(), w2.url); ms.State != "removed" {
		t.Errorf("runner B sees drained worker as %q, want removed", ms.State)
	}
	if fB.Alive() != 1 {
		t.Errorf("runner B reports %d alive after A's drain, want 1", fB.Alive())
	}
}
