package clustersim

import (
	"context"
	"net/http/httptest"
	"testing"

	"clustersim/client"
	"clustersim/fleet"
	"clustersim/internal/engine"
	"clustersim/internal/prog"
	"clustersim/internal/service"
	"clustersim/internal/store"
	"clustersim/internal/uarch"
)

func TestPublicQuickRun(t *testing.T) {
	sp := WorkloadByName("crafty")
	if sp == nil {
		t.Fatal("crafty missing from suite")
	}
	res := Run(sp, SetupVC(2, 2), RunOptions{NumUops: 5000})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Metrics.Uops != 5000 {
		t.Errorf("committed %d uops", res.Metrics.Uops)
	}
	if res.Metrics.IPC() <= 0 {
		t.Error("non-positive IPC")
	}
}

func TestPublicSuites(t *testing.T) {
	if n := len(Workloads()); n != 40 {
		t.Errorf("Workloads = %d, want 40", n)
	}
	if n := len(IntWorkloads()); n != 26 {
		t.Errorf("IntWorkloads = %d, want 26", n)
	}
	if n := len(FPWorkloads()); n != 14 {
		t.Errorf("FPWorkloads = %d, want 14", n)
	}
	if n := len(QuickWorkloads()); n != 8 {
		t.Errorf("QuickWorkloads = %d, want 8", n)
	}
}

func TestPublicCustomWorkload(t *testing.T) {
	b := NewProgram("custom")
	b.Int(uarch.OpAdd, uarch.IntReg(1), uarch.IntReg(1), uarch.IntReg(2))
	b.Load(uarch.IntReg(2), uarch.IntReg(1), prog.MemRef{
		Pattern: prog.MemStride, Stream: 0, StrideBytes: 8, WorkingSet: 1 << 16,
	})
	p := b.MustBuild()
	w := CustomWorkload(p, 7)
	res := Run(w, SetupOP(2), RunOptions{NumUops: 3000})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Metrics.Uops != 3000 {
		t.Errorf("committed %d", res.Metrics.Uops)
	}
}

func TestPublicExpandTrace(t *testing.T) {
	b := NewProgram("t")
	b.Int(uarch.OpAdd, uarch.IntReg(1), uarch.IntReg(1), uarch.IntReg(1))
	p := b.MustBuild()
	tr := ExpandTrace(p, 100, 1)
	if len(tr.Uops) != 100 {
		t.Errorf("trace length %d", len(tr.Uops))
	}
}

func TestPublicRunMatrix(t *testing.T) {
	ws := QuickWorkloads()[:2]
	setups := []Setup{SetupOP(2), SetupOneCluster(2)}
	res := RunMatrix(ws, setups, RunOptions{NumUops: 3000}, 2)
	if len(res) != 2 || len(res[0]) != 2 {
		t.Fatalf("matrix shape %dx%d", len(res), len(res[0]))
	}
	for _, row := range res {
		for _, cell := range row {
			if cell.Err != nil {
				t.Fatal(cell.Err)
			}
		}
	}
}

func TestPublicTables(t *testing.T) {
	if Table2() == "" || Table3() == "" {
		t.Error("empty table render")
	}
}

func TestDefaultMachineValidates(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		cfg := DefaultMachine(n)
		if err := cfg.Validate(); err != nil {
			t.Errorf("DefaultMachine(%d): %v", n, err)
		}
	}
}

// NewFleetRunner degrades gracefully: one URL yields the plain
// single-host remote runner (no sharding layer), several yield the
// fleet runner.
func TestNewFleetRunnerDegradesToClientRunner(t *testing.T) {
	st := store.NewMemory(16 << 20)
	eng := engine.New(engine.Options{Parallelism: 1, ResultStore: st})
	svc := service.New(context.Background(), eng, st)
	ts := httptest.NewServer(svc)
	defer ts.Close()

	single, err := NewFleetRunner([]string{ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := single.(*client.Runner); !ok {
		t.Errorf("one URL built a %T, want *client.Runner", single)
	}

	// Slash-variants of one worker are canonicalized and rejected as
	// duplicates rather than joining the ring twice.
	if _, err := NewFleetRunner([]string{ts.URL, ts.URL + "/"}); err == nil {
		t.Error("slash-variant duplicate worker accepted")
	}

	st2 := store.NewMemory(16 << 20)
	eng2 := engine.New(engine.Options{Parallelism: 1, ResultStore: st2})
	ts2 := httptest.NewServer(service.New(context.Background(), eng2, st2))
	defer ts2.Close()
	multi, err := NewFleetRunner([]string{ts.URL, ts2.URL})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := multi.(*fleet.Runner); !ok {
		t.Errorf("two URLs built a %T, want *fleet.Runner", multi)
	}
	res := RunOn(context.Background(), multi, WorkloadByName("crafty"), SetupOP(2), RunOptions{NumUops: 2000})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
}
