package engine_test

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"clustersim/internal/engine"
	"clustersim/internal/sim"
	"clustersim/internal/store"
	"clustersim/internal/workload"
)

// A second engine over the same disk store — a new process, in effect —
// must serve every whole-result lookup from the store, simulate nothing,
// and reproduce byte-identical metrics.
func TestResultsPersistAcrossEngines(t *testing.T) {
	dir := t.TempDir()
	open := func() store.Store {
		st, err := store.OpenDisk(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	sps := workload.QuickSuite()[:3]
	setups := []sim.Setup{sim.SetupOP(2), sim.SetupVC(2, 2)}
	opt := sim.RunOptions{NumUops: 3000}

	first := engine.New(engine.Options{Parallelism: 4, ResultStore: open()})
	ref, err := first.RunMatrix(context.Background(), sps, setups, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(len(sps) * len(setups))
	if st := first.Stats(); st.Simulations != want || st.StoreHits != 0 {
		t.Fatalf("first engine: %+v", st)
	}

	second := engine.New(engine.Options{Parallelism: 4, ResultStore: open()})
	res, err := second.RunMatrix(context.Background(), sps, setups, opt)
	if err != nil {
		t.Fatal(err)
	}
	st := second.Stats()
	if st.Simulations != 0 {
		t.Errorf("second engine simulated %d jobs; want all served from the store", st.Simulations)
	}
	if st.StoreHits != want || st.StoreMisses != 0 {
		t.Errorf("store hits %d / misses %d, want %d / 0", st.StoreHits, st.StoreMisses, want)
	}
	// The acceptance bar: >= 90% of whole-result lookups served by the
	// disk store on the second run.
	if lookups := st.StoreHits + st.StoreMisses; float64(st.StoreHits) < 0.9*float64(lookups) {
		t.Errorf("store served %d of %d lookups, below 90%%", st.StoreHits, lookups)
	}
	for i := range sps {
		for j := range setups {
			if res[i][j].Simpoint != sps[i] {
				t.Error("stored result must carry the submitting job's simpoint")
			}
			a, b := encode(t, ref[i][j].Metrics), encode(t, res[i][j].Metrics)
			if !bytes.Equal(a, b) {
				t.Errorf("%s/%s: stored metrics differ from computed", sps[i].Name, res[i][j].Setup)
			}
		}
	}
}

// A corrupted store blob must degrade to a re-simulation, then heal the
// store with a fresh record.
func TestCorruptStoreBlobResimulates(t *testing.T) {
	dir := t.TempDir()
	st, err := store.OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	job := quickJob("crafty", sim.SetupOP(2))
	eng := engine.New(engine.Options{Parallelism: 1, ResultStore: st})
	ref := eng.Run(context.Background(), job)
	if ref.Err != nil {
		t.Fatal(ref.Err)
	}
	if _, ok := st.Get(eng.ResultKey(job)); !ok {
		t.Fatal("expected a stored record to corrupt")
	}

	// Serve the blob through a corrupting wrapper: framing survives, the
	// codec header does not — the engine must fall back to simulating.
	fresh := engine.New(engine.Options{Parallelism: 1, ResultStore: mangleStore{st}})
	res := fresh.Run(context.Background(), job)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	est := fresh.Stats()
	if est.Simulations != 1 || est.StoreErrors == 0 {
		t.Errorf("corrupt blob not re-simulated: %+v", est)
	}
	if !bytes.Equal(encode(t, ref.Metrics), encode(t, res.Metrics)) {
		t.Error("re-simulated metrics differ")
	}
}

// mangleStore flips a byte in every blob it serves.
type mangleStore struct{ store.Store }

func (m mangleStore) Get(key string) ([]byte, bool) {
	blob, ok := m.Store.Get(key)
	if !ok || len(blob) == 0 {
		return blob, ok
	}
	bad := append([]byte(nil), blob...)
	bad[0] ^= 0xff
	return bad, ok
}

// An engine with a ResultStore keeps no finished results of its own:
// concurrent callers of one job share a single run, and a later repeat is
// served from the store with the same metrics.
func TestStoreBackedEngineServesRepeatsFromStore(t *testing.T) {
	eng := engine.New(engine.Options{Parallelism: 2, ResultStore: store.NewMemory(1 << 20)})
	job := quickJob("gzip-1", sim.SetupOP(2))
	var wg sync.WaitGroup
	firsts := make([]*engine.Result, 4)
	for i := range firsts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			firsts[i] = eng.Run(context.Background(), job)
		}()
	}
	wg.Wait()
	for _, r := range firsts {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if st := eng.Stats(); st.Simulations != 1 {
		t.Fatalf("concurrent callers ran %d simulations, want 1", st.Simulations)
	}
	before := eng.Stats()
	again := eng.Run(context.Background(), job)
	st := eng.Stats().Delta(before)
	if st.Simulations != 0 || st.StoreHits != 1 || st.ResultHits != 0 {
		t.Errorf("repeat: %+v, want one store hit and no simulation or result-cache hit", st)
	}
	if !bytes.Equal(encode(t, firsts[0].Metrics), encode(t, again.Metrics)) {
		t.Error("store-served metrics differ from the computed ones")
	}
}
