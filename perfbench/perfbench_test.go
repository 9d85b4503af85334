package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"testing"

	"clustersim/internal/engine"
	"clustersim/internal/workload"
)

// benchmarkFile is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// tinyConfig shrinks every workload to a few seconds in total.
func tinyConfig(workload string, trace bool) config {
	c := defaultConfig()
	c.workload, c.trace, c.seed = workload, trace, 3
	c.seconds = 0.01
	c.simVariants, c.simUops, c.coreUops = 2, 2000, 3000
	c.fleetUops, c.fleetUopsSpread = 300, 300
	c.batchesPerRound, c.tracedRounds, c.paperItems = 4, 1, 1
	c.setupReps, c.checkSample = 1, 1
	return c
}

// TestMetricsMatchBenchmarkFile checks that the metric lists the program
// reports are the ones BENCHMARK.json declares, with the same units and
// directions.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, list := range []struct {
		kind string
		file []struct{ Name, Unit, Better string }
		code []desc
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(list.file) != len(list.code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", list.kind, len(list.file), len(list.code))
		}
		for _, m := range list.file {
			d := find(list.code, m.Name)
			if d == nil {
				t.Errorf("%s: %s is not reported by the program", list.kind, m.Name)
			} else if d.unit != m.Unit || d.better != m.Better {
				t.Errorf("%s: %s is %s/%s in BENCHMARK.json, %s/%s in the program",
					list.kind, m.Name, m.Unit, m.Better, d.unit, d.better)
			}
		}
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
}

// TestSmoke runs every workload, untraced and traced, at a tiny size and
// requires a correct result carrying every metric BENCHMARK.json names,
// each with its unit.
func TestSmoke(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, w := range b.Workloads {
		for _, trace := range []bool{false, true} {
			rep, err := run(context.Background(), tinyConfig(w.Name, trace), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d",
					w.Name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			for _, m := range want {
				if got, ok := rep.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestGateTripsOnCorruptResult corrupts one simulated statistic in each
// kind of run and requires the correctness gate to report it.
func TestGateTripsOnCorruptResult(t *testing.T) {
	ctx := context.Background()
	cfg := tinyConfig("sim-compute", false)
	jobs := simJobs([]string{"crafty"}, cfg.seed, 1, cfg.simUops)
	pass := runSimPass(ctx, jobs, cfg.procs, nil).results
	clean := &outcome{}
	checkSim(ctx, cfg, jobs, [][]*engine.Result{pass, pass}, clean)
	if len(clean.problems) != 0 {
		t.Fatalf("clean passes fail the gate: %v", clean.problems)
	}

	corrupt := func(r *engine.Result) *engine.Result {
		m := *r.Metrics
		m.Cycles++
		c := *r
		c.Metrics = &m
		return &c
	}
	bad := append([]*engine.Result(nil), pass...)
	bad[len(bad)-1] = corrupt(bad[len(bad)-1])
	o := &outcome{}
	checkSim(ctx, cfg, jobs, [][]*engine.Result{pass, bad}, o)
	if len(o.problems) == 0 {
		t.Error("a pass with a corrupted result passed the gate")
	}
	cfg.checkSample = len(jobs)
	o = &outcome{}
	checkSim(ctx, cfg, jobs, [][]*engine.Result{bad}, o)
	if len(o.problems) == 0 {
		t.Error("a corrupted result matched the reference engine.Execute")
	}

	short := *pass[0].Metrics
	short.Uops--
	if resultErr(jobs[0], &engine.Result{Metrics: &short}) == nil {
		t.Error("a result missing committed uops passed the gate")
	}

	var ds []delivery
	for i, j := range jobs {
		ds = append(ds, delivery{job: j, isNew: true, res: pass[i]})
	}
	ds = append(ds, delivery{job: jobs[0], res: corrupt(pass[0])})
	o = &outcome{}
	checkFleet(ctx, cfg, ds, o)
	if len(o.problems) == 0 {
		t.Error("a corrupted fleet repeat passed the gate")
	}
	ds[0].res = corrupt(pass[0])
	o = &outcome{}
	checkFleet(ctx, cfg, ds[:len(jobs)], o)
	if len(o.problems) == 0 {
		t.Error("a corrupted fleet result matched the local engine")
	}
}

// TestSeedZeroIsCanonicalSuite pins seed 0 to the suite's own programs
// and trace seeds, so default-seed figures match the repository's.
func TestSeedZeroIsCanonicalSuite(t *testing.T) {
	for _, n := range quickPoints {
		got, want := seededSimpoint(n, 0, 0), workload.ByName(n)
		if got.Seed != want.Seed || got.Program.Fingerprint() != want.Program.Fingerprint() {
			t.Errorf("%s: seed 0 does not reproduce the suite simpoint", n)
		}
		for _, other := range []*workload.Simpoint{seededSimpoint(n, 1, 0), seededSimpoint(n, 0, 1)} {
			if other.Program.Fingerprint() == want.Program.Fingerprint() {
				t.Errorf("%s: another seed or variant reproduces the suite program", n)
			}
		}
	}
}

func TestPkgOf(t *testing.T) {
	for in, want := range map[string]string{
		"clustersim/internal/cache.(*LSQ).ProbeLoad":                     "clustersim/internal/cache",
		"net/http.(*conn).serve":                                         "net/http",
		"clustersim/internal/engine.(*flightCache[go.shape.*uint8]).get": "clustersim/internal/engine",
		"runtime.mallocgc":                                               "runtime",
		"encoding/gob.(*Encoder).Encode":                                 "encoding/gob",
	} {
		if got := pkgOf(in); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", in, got, want)
		}
	}
}
