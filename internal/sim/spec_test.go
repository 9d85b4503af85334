package sim

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"clustersim/internal/engine"
	"clustersim/internal/prog"
	"clustersim/internal/uarch"
	"clustersim/internal/workload"
)

// Every declarative setup constructor must survive the wire round trip:
// Job -> SpecFromJob -> JobFromSpec must land on the same configuration,
// including the engine's result-cache identity — that is what makes a
// remote worker's cached result interchangeable with a local one.
func TestSpecJobRoundTrip(t *testing.T) {
	sp := workload.ByName("gzip-1")
	setups := []Setup{
		SetupOP(2), SetupOP(4),
		SetupOPNoStall(2),
		SetupOneCluster(2),
		SetupOB(2), SetupRHOP(4),
		SetupVC(2, 2), SetupVC(2, 4), SetupVCChain(2, 2, 3),
		SetupVCComm(2, 2), SetupVCComm(2, 4),
		SetupScoped("OB", 2, 64), SetupScoped("RHOP", 2, 128), SetupScoped("VC", 2, 64),
		SetupHeuristic("ADV", 2), SetupHeuristic("LC", 2), SetupHeuristic("SLC", 4), SetupHeuristic("MOD", 2),
	}
	noPrefetch := 0
	machines := []engine.MachineSpec{
		{},
		{LinkLatency: 4, IQSize: 24, Topology: "ring", CopyBandwidth: 2, PrefetchDegree: &noPrefetch, Histograms: true},
	}
	eng := engine.New(engine.Options{})
	for i, setup := range setups {
		machine := machines[i%len(machines)]
		job := engine.Job{Simpoint: sp, Setup: setup, Opts: RunOptions{NumUops: 9000, WarmupUops: 500, Machine: machine}}
		spec, err := SpecFromJob(job)
		if err != nil {
			t.Errorf("%s: SpecFromJob: %v", setup.Label, err)
			continue
		}
		// The default machine sends no "machine" key at all.
		wire, _ := json.Marshal(spec)
		if hasKey := strings.Contains(string(wire), `"machine"`); hasKey != (machine != engine.MachineSpec{}) {
			t.Errorf("%s: wire form %s (machine key present: %v)", setup.Label, wire, hasKey)
		}
		back, err := JobFromSpec(spec)
		if err != nil {
			t.Errorf("%s: JobFromSpec: %v", setup.Label, err)
			continue
		}
		if back.Setup.Label != setup.Label {
			t.Errorf("%s: round-tripped label %q", setup.Label, back.Setup.Label)
		}
		if back.Setup.NumClusters != setup.NumClusters {
			t.Errorf("%s: round-tripped clusters %d, want %d", setup.Label, back.Setup.NumClusters, setup.NumClusters)
		}
		if back.Opts.NumUops != 9000 || back.Opts.WarmupUops != 500 || !reflect.DeepEqual(back.Opts.Machine, machine) {
			t.Errorf("%s: round-tripped opts %+v", setup.Label, back.Opts)
		}
		if k1, k2 := eng.ResultKey(job), eng.ResultKey(back); k1 != k2 {
			t.Errorf("%s: result keys diverge after round trip:\n  %q\n  %q", setup.Label, k1, k2)
		}
	}
}

// Jobs with no declarative wire form must be rejected with an error that
// names the constraint.
func TestSpecFromJobRejections(t *testing.T) {
	sp := workload.ByName("gzip-1")
	cases := []struct {
		name string
		job  engine.Job
		want string
	}{
		{
			name: "hand-built setup without spec",
			job: engine.Job{Simpoint: sp, Setup: Setup{
				Label: "bare", NumClusters: 2, NewPolicy: SetupOP(2).NewPolicy,
			}},
			want: "no declarative spec",
		},
		{
			name: "setup mutated after construction",
			job: engine.Job{Simpoint: sp, Setup: func() Setup {
				s := SetupOP(2)
				s.NumClusters = 4 // stale Spec still says 2
				return s
			}()},
			want: "modified after construction",
		},
		{
			name: "invalid machine",
			job: engine.Job{Simpoint: sp, Setup: SetupOP(2),
				Opts: RunOptions{Machine: engine.MachineSpec{Topology: "torus"}}},
			want: "unknown topology",
		},
		{
			name: "custom workload",
			job: engine.Job{Simpoint: &workload.Simpoint{
				Name: "homegrown", Bench: "homegrown", Weight: 1, Seed: 7,
				Program: sp.Program,
			}, Setup: SetupOP(2)},
			want: "not a suite member",
		},
		{
			name: "suite name, different program",
			job: engine.Job{Simpoint: &workload.Simpoint{
				Name: "gzip-1", Bench: "gzip", Weight: 1, Seed: sp.Seed,
				Program: differentProgram(),
			}, Setup: SetupOP(2)},
			want: "does not match the suite",
		},
	}
	for _, tc := range cases {
		_, err := SpecFromJob(tc.job)
		if err == nil {
			t.Errorf("%s: SpecFromJob accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// differentProgram builds a tiny program that is definitely not the
// suite's gzip-1 (different fingerprint).
func differentProgram() *prog.Program {
	b := prog.NewBuilder("gzip-1")
	b.Int(uarch.OpAdd, uarch.IntReg(1), uarch.IntReg(0), uarch.IntReg(0))
	b.Jump(0)
	return b.MustBuild()
}
