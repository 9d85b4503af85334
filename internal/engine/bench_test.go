package engine_test

import (
	"context"
	"runtime"
	"testing"

	"clustersim/internal/engine"
	"clustersim/internal/sim"
	"clustersim/internal/workload"
)

// BenchmarkEngineSweep times whole engine jobs — queue, annotate, expand
// and simulate — where the core benchmarks time Core.Run alone. Each
// iteration builds a fresh engine (cold caches, as a new steerbench or
// clusterd process starts) and streams every quick-suite point under OP,
// OB and VC(2->2) at 20k uops, reporting simulated uops per second and
// allocations per simulated uop. CI gates it against BENCH_13.json via
// cmd/benchjson.
func BenchmarkEngineSweep(b *testing.B) {
	const numUops = 20_000
	var jobs []engine.Job
	for _, sp := range workload.QuickSuite() {
		for _, s := range []sim.Setup{sim.SetupOP(2), sim.SetupOB(2), sim.SetupVC(2, 2)} {
			jobs = append(jobs, engine.Job{Simpoint: sp, Setup: s, Opts: sim.RunOptions{NumUops: numUops}})
		}
	}
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := engine.New(engine.Options{})
		for jr := range eng.Stream(context.Background(), jobs) {
			if jr.Result.Err != nil {
				b.Fatal(jr.Result.Err)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	uops := float64(len(jobs)) * numUops * float64(b.N)
	b.ReportMetric(uops/b.Elapsed().Seconds(), "uops/s")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/uops, "allocs/uop")
}
