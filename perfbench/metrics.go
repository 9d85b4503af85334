package main

import (
	"fmt"
	"io"
	"sort"
)

// desc names one metric the benchmark reports. For a per-layer metric,
// moves names the end-to-end metric and workload it should move; the
// traced run prints that map next to the values.
type desc struct {
	name, unit, better string
	moves              string
}

// endToEnd are the metrics of an untraced run, reported on every
// workload. A sim-* "job" is one simulation of the pass; a fleet-mixed
// job is one entry of a batch, new or repeated.
var endToEnd = []desc{
	{name: "wall_s", unit: "s", better: "lower"},            // median host wall time of one pass or round
	{name: "cpu_s", unit: "s", better: "lower"},             // median user+sys time of one pass or round
	{name: "peak_rss_mb", unit: "MB", better: "lower"},      // peak resident set after the timed phase
	{name: "setup_s", unit: "s", better: "lower"},           // median of setupReps set-ups
	{name: "sim_uops_per_s", unit: "1/s", better: "higher"}, // committed simulated uops per wall second
	{name: "paper_err_pp", unit: "pp", better: "lower"},     // mean |slowdown vs OP - paper CPU2000 average|
	{name: "jobs_per_s", unit: "1/s", better: "higher"},     // jobs delivered per wall second
	{name: "job_p50_ms", unit: "ms", better: "lower"},       // batch submit to result delivered
	{name: "job_p99_ms", unit: "ms", better: "lower"},       // same, 99th percentile
}

const (
	toMemWall    = "wall_s on sim-membound"
	toComWall    = "wall_s on sim-compute"
	toFleetJobs  = "jobs_per_s on fleet-mixed"
	toFleetP50   = "job_p50_ms on fleet-mixed"
	toFleetP99   = "job_p99_ms on fleet-mixed"
	toUops       = "sim_uops_per_s on the workload holding the simpoint"
	toPaper      = "paper_err_pp only; a perf-only change leaves it exactly equal"
	toEverywhere = "cpu_s and peak_rss_mb on every workload"
)

// quickPoints are the eight quick-suite simpoints of the ROADMAP's
// per-simpoint core throughput table.
var quickPoints = []string{"gzip-1", "gcc-1", "mcf", "crafty", "swim", "galgel", "art-1", "ammp"}

// stallNames are the dispatch stall reasons of pipeline.StallReason,
// StallPolicy through StallCopyRegs.
var stallNames = []string{"policy", "iq-full", "rob-full", "lsq-full", "regfile", "copyq-full", "copy-regfile"}

// perLayer are the metrics of a traced run.
var perLayer = func() []desc {
	d := []desc{
		{"trace_overhead_pct", "%", "lower", "traced against untraced wall time of the same work"},
		{"engine.queue_wait_ms_p50", "ms", "lower", toMemWall},
		{"engine.queue_wait_ms_max", "ms", "lower", toMemWall},
		{"engine.simulations", "count", "lower", toFleetJobs},
		{"engine.result_hits", "count", "higher", toFleetJobs},
		{"engine.trace_hits", "count", "higher", toFleetJobs},
		{"engine.encode_ms_p50", "ms", "lower", toFleetP50},
		{"engine.store_put_ms_p50", "ms", "lower", toFleetP50},
		{"store.get_ms_p50", "ms", "lower", toFleetP50},
		{"partition.annotate_ms", "ms", "lower", toComWall},
		{"trace.expand_ms", "ms", "lower", toComWall},
		{"trace.expand_uops_per_s", "1/s", "higher", toComWall},
	}
	for _, sp := range quickPoints {
		d = append(d, desc{"pipeline.core_uops_per_s." + sp, "1/s", "higher", toUops})
	}
	d = append(d, desc{"pipeline.core_ns_per_cycle", "ns", "lower", toUops})
	for _, p := range profBuckets {
		d = append(d, desc{"prof." + p.name, "share", "lower", p.moves})
	}
	d = append(d, desc{"prof.gc", "share", "lower", toEverywhere})
	for _, route := range []string{"submit", "stream", "result"} {
		d = append(d,
			desc{"client." + route + "_ms_p50", "ms", "lower", toFleetP99},
			desc{"client." + route + "_ms_p99", "ms", "lower", toFleetP99})
	}
	for _, r := range serviceRoutes {
		d = append(d, desc{"service.http_ms_p99." + r.name, "ms", "lower", toFleetP99})
	}
	d = append(d,
		desc{"store.hit_ratio", "ratio", "higher", toFleetP99},
		desc{"codec.result_bytes_mean", "bytes", "lower", toFleetP99},
		desc{"fleet.jobs_max_over_mean", "ratio", "lower", toFleetJobs},
		desc{"fleet.reshards", "count", "lower", toFleetJobs + "; must read 0"},
		desc{"client.retries", "count", "lower", toFleetJobs + "; must read 0"},
		desc{"admission.rejected", "count", "lower", toFleetJobs + "; must read 0"},
		desc{"fleet.repeat_share", "share", "higher", "measured share of fleet-mixed jobs that repeat an earlier job"},
		desc{"model.cycles", "count", "lower", toPaper},
		desc{"model.ipc", "uops/cycle", "higher", toPaper},
		desc{"model.copies_per_kuop", "1/kuop", "lower", toPaper},
		desc{"model.imbalance", "ratio", "lower", toPaper},
		desc{"model.l1_hits", "count", "higher", toPaper},
		desc{"model.l2_hits", "count", "higher", toPaper},
		desc{"model.dram_accesses", "count", "lower", toPaper},
		desc{"model.dram_share", "share", "lower", toPaper},
		desc{"model.dram_share.default_seed", "share", "lower", toPaper},
		desc{"model.dram_share.heldout_seed", "share", "lower", toPaper},
		desc{"model.lsq_forwards", "count", "higher", toPaper},
	)
	for _, s := range stallNames {
		d = append(d, desc{"model.stall_cycles." + s, "count", "lower", toPaper})
	}
	return append(d,
		desc{"model.fetch_stall_cycles", "count", "lower", toPaper},
		desc{"model.link_conflicts", "count", "lower", toPaper},
		desc{"steer.dep_checks_per_kuop", "1/kuop", "lower", toPaper},
		desc{"steer.map_reads_per_kuop", "1/kuop", "lower", toPaper},
	)
}()

func find(ds []desc, name string) *desc {
	for i := range ds {
		if ds[i].name == name {
			return &ds[i]
		}
	}
	return nil
}

// printLayerMap prints every per-layer value with the end-to-end metric
// it should move.
func printLayerMap(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "per-layer metric | value | unit | should move")
	for _, n := range names {
		d := find(perLayer, n)
		fmt.Fprintf(w, "%s | %.6g | %s | %s\n", n, ms[n].Value, ms[n].Unit, d.moves)
	}
}
