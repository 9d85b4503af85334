package sim

import (
	"testing"

	"clustersim/internal/engine"
	"clustersim/internal/workload"
)

func quickOpts() RunOptions { return RunOptions{NumUops: 4000} }

func TestRunOneAllSetups(t *testing.T) {
	sp := workload.ByName("crafty")
	setups := []Setup{
		SetupOP(2), SetupOneCluster(2), SetupOB(2), SetupRHOP(2), SetupVC(2, 2),
	}
	for _, s := range setups {
		res := RunOne(sp, s, quickOpts())
		if res.Err != nil {
			t.Fatalf("%s: %v", s.Label, res.Err)
		}
		if res.Metrics.Uops != 4000 {
			t.Errorf("%s: committed %d uops, want 4000", s.Label, res.Metrics.Uops)
		}
	}
}

func TestSetupLabels(t *testing.T) {
	if got := SetupVC(2, 4).Label; got != "VC(2->4)" {
		t.Errorf("label = %q, want VC(2->4)", got)
	}
	if got := SetupVC(2, 2).Label; got != "VC" {
		t.Errorf("label = %q, want VC", got)
	}
	if got := SetupOP(2).Label; got != "OP" {
		t.Errorf("label = %q", got)
	}
}

func TestRunsAreIsolated(t *testing.T) {
	// Two runs of different setups on the same simpoint must not interfere:
	// annotation happens on clones, so the base program stays clean.
	sp := workload.ByName("gzip-1")
	RunOne(sp, SetupVC(2, 2), quickOpts())
	// Base program must have no annotations.
	count := 0
	for _, b := range sp.Program.Blocks {
		for i := range b.Ops {
			if b.Ops[i].Ann.VC >= 0 || b.Ops[i].Ann.Static >= 0 {
				count++
			}
		}
	}
	if count != 0 {
		t.Errorf("%d ops of the base program were annotated by a run", count)
	}
}

func TestRunOneDeterministic(t *testing.T) {
	sp := workload.ByName("gcc-1")
	a := RunOne(sp, SetupVC(2, 2), quickOpts())
	b := RunOne(sp, SetupVC(2, 2), quickOpts())
	if a.Err != nil || b.Err != nil {
		t.Fatalf("errs: %v %v", a.Err, b.Err)
	}
	if a.Metrics.Cycles != b.Metrics.Cycles || a.Metrics.Copies != b.Metrics.Copies {
		t.Errorf("nondeterministic: %d/%d cycles, %d/%d copies",
			a.Metrics.Cycles, b.Metrics.Cycles, a.Metrics.Copies, b.Metrics.Copies)
	}
}

func TestRunMatrixShapeAndParallelism(t *testing.T) {
	sps := workload.QuickSuite()[:3]
	setups := []Setup{SetupOP(2), SetupVC(2, 2)}
	res := RunMatrix(sps, setups, quickOpts(), 4)
	if len(res) != 3 {
		t.Fatalf("matrix rows = %d", len(res))
	}
	for i, row := range res {
		if len(row) != 2 {
			t.Fatalf("row %d has %d cells", i, len(row))
		}
		for j, cell := range row {
			if cell == nil || cell.Err != nil {
				t.Fatalf("cell %d,%d: %+v", i, j, cell)
			}
			if cell.Simpoint != sps[i] || cell.Setup != setups[j].Label {
				t.Errorf("cell %d,%d misplaced: %s/%s", i, j, cell.Simpoint.Name, cell.Setup)
			}
		}
	}
}

func TestRunMatrixMatchesSequential(t *testing.T) {
	sps := workload.QuickSuite()[:2]
	setups := []Setup{SetupOP(2), SetupRHOP(2)}
	par := RunMatrix(sps, setups, quickOpts(), 8)
	for i, sp := range sps {
		for j, s := range setups {
			seq := RunOne(sp, s, quickOpts())
			if seq.Metrics.Cycles != par[i][j].Metrics.Cycles {
				t.Errorf("%s/%s: parallel %d cycles vs sequential %d",
					sp.Name, s.Label, par[i][j].Metrics.Cycles, seq.Metrics.Cycles)
			}
		}
	}
}

func TestMachineSpec(t *testing.T) {
	sp := workload.ByName("crafty")
	opt := quickOpts()
	opt.Machine = engine.MachineSpec{IQSize: 4}
	narrow := RunOne(sp, SetupOP(2), opt)
	wide := RunOne(sp, SetupOP(2), quickOpts())
	if narrow.Err != nil || wide.Err != nil {
		t.Fatalf("errs: %v %v", narrow.Err, wide.Err)
	}
	if narrow.Metrics.Cycles <= wide.Metrics.Cycles {
		t.Errorf("4-entry issue queues should cost cycles: %d vs %d",
			narrow.Metrics.Cycles, wide.Metrics.Cycles)
	}
}

func TestComplexityFlowsThrough(t *testing.T) {
	sp := workload.ByName("gzip-1")
	op := RunOne(sp, SetupOP(2), quickOpts())
	vc := RunOne(sp, SetupVC(2, 2), quickOpts())
	if op.Complexity.DependenceChecks == 0 {
		t.Error("OP run recorded no dependence checks")
	}
	if vc.Complexity.DependenceChecks != 0 {
		t.Error("VC run recorded dependence checks")
	}
	if vc.Complexity.MapReads == 0 {
		t.Error("VC run recorded no mapping-table reads")
	}
}

func TestWarmupPlumbing(t *testing.T) {
	sp := workload.ByName("crafty")
	full := RunOne(sp, SetupOP(2), RunOptions{NumUops: 10000})
	warm := RunOne(sp, SetupOP(2), RunOptions{NumUops: 10000, WarmupUops: 4000})
	if full.Err != nil || warm.Err != nil {
		t.Fatalf("errs: %v %v", full.Err, warm.Err)
	}
	if warm.Metrics.Uops >= full.Metrics.Uops {
		t.Errorf("warmup did not reduce counted uops: %d vs %d",
			warm.Metrics.Uops, full.Metrics.Uops)
	}
	if warm.Metrics.Cycles >= full.Metrics.Cycles {
		t.Errorf("warmup did not reduce counted cycles: %d vs %d",
			warm.Metrics.Cycles, full.Metrics.Cycles)
	}
}

func TestSetupScopedLabels(t *testing.T) {
	for _, kind := range []string{"OB", "RHOP", "VC"} {
		s := SetupScoped(kind, 2, 64)
		if s.NumClusters != 2 || s.Pass == nil || s.NewPolicy == nil {
			t.Errorf("%s: malformed scoped setup %+v", kind, s)
		}
		if s.Pass.RegionMaxOps != 64 {
			t.Errorf("%s: region cap not plumbed: %+v", kind, s.Pass)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown kind should panic")
		}
	}()
	SetupScoped("nope", 2, 64)
}

func TestSetupVCChainLabel(t *testing.T) {
	if got := SetupVCChain(2, 2, 16).Label; got != "VC/chain16" {
		t.Errorf("label = %q", got)
	}
	if got := SetupVCChain(2, 4, 8).Label; got != "VC(2->4)/chain8" {
		t.Errorf("label = %q", got)
	}
}
