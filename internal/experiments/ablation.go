package experiments

import (
	"fmt"
	"strings"

	"clustersim/internal/engine"
	"clustersim/internal/interconnect"
	"clustersim/internal/sim"
	"clustersim/internal/stats"
)

// AblationPoint is one configuration of a sweep.
type AblationPoint struct {
	// Label names the swept value ("chain=16", "latency=4"…).
	Label string
	// SlowdownPct is the average slowdown vs that sweep's OP baseline.
	SlowdownPct float64
	// CopiesPerKuop is the average copy rate.
	CopiesPerKuop float64
}

// AblationResult is one sweep.
type AblationResult struct {
	// Name identifies the sweep; Axis describes the swept knob.
	Name, Axis string
	Points     []AblationPoint
}

// Render produces the sweep table.
func (r *AblationResult) Render() string {
	var b strings.Builder
	b.WriteString(section("Ablation: " + r.Name))
	tab := stats.NewTable(r.Axis, "slowdown vs OP (%)", "copies/kuop")
	for _, pt := range r.Points {
		tab.Row(pt.Label, pt.SlowdownPct, pt.CopiesPerKuop)
	}
	b.WriteString(tab.String())
	return b.String()
}

// sweepVC runs OP plus a list of VC-variant setups over the suite on one
// machine and aggregates average slowdown and copy rate per variant. The
// engine keys results by the resolved machine, so a sweep point equal to
// the default machine shares the untweaked results.
func sweepVC(opt Options, name, axis string, variants []sim.Setup, labels []string,
	machine engine.MachineSpec) (*AblationResult, error) {
	opt = opt.withDefaults()
	sps := opt.suite()
	setups := append([]sim.Setup{sim.SetupOP(variants[0].NumClusters)}, variants...)
	runOpts := opt.runOpts()
	runOpts.Machine = machine
	res, err := opt.matrix(sps, setups, runOpts)
	if err != nil {
		return nil, err
	}
	out := &AblationResult{Name: name, Axis: axis}
	for j := 1; j < len(setups); j++ {
		var slow []float64
		var copies, uops int64
		for i := range sps {
			slow = append(slow, stats.SlowdownPct(res[i][j].Metrics.Cycles, res[i][0].Metrics.Cycles))
			copies += res[i][j].Metrics.Copies
			uops += res[i][j].Metrics.Uops
		}
		out.Points = append(out.Points, AblationPoint{
			Label:         labels[j-1],
			SlowdownPct:   BenchAverage(sps, slow, nil),
			CopiesPerKuop: float64(copies) * 1000 / float64(uops),
		})
	}
	return out, nil
}

// AblationChainLen sweeps the chain-length cap of the VC partitioner: the
// knob trading mapping staleness (long chains) against chain stability
// (short chains). DESIGN.md calls this out as the paper's "selection of
// chains" sensitivity (§4.2).
func AblationChainLen(opt Options) (*AblationResult, error) {
	caps := []int{4, 8, 16, 32, 64}
	var variants []sim.Setup
	var labels []string
	for _, c := range caps {
		variants = append(variants, sim.SetupVCChain(2, 2, c))
		labels = append(labels, fmt.Sprintf("chain<=%d", c))
	}
	return sweepVC(opt, "VC chain-length cap (2 clusters)", "cap", variants, labels, engine.MachineSpec{})
}

// AblationNumVC sweeps the virtual-cluster count on the 4-cluster machine
// (the paper's VC(2→4) vs VC(4→4) comparison, §5.4, extended).
func AblationNumVC(opt Options) (*AblationResult, error) {
	nums := []int{2, 3, 4, 8}
	var variants []sim.Setup
	var labels []string
	for _, n := range nums {
		variants = append(variants, sim.SetupVC(n, 4))
		labels = append(labels, fmt.Sprintf("numVC=%d", n))
	}
	return sweepVC(opt, "virtual-cluster count (4 clusters)", "numVC", variants, labels, engine.MachineSpec{})
}

// AblationLinkLatency sweeps the inter-cluster link latency under VC: the
// value of keeping chains together grows with communication cost.
func AblationLinkLatency(opt Options) ([]*AblationResult, error) {
	opt = opt.withDefaults() // one engine across the sweep's sub-runs
	var out []*AblationResult
	for _, lat := range []int{1, 2, 4, 8} {
		r, err := sweepVC(opt,
			fmt.Sprintf("link latency %d cycles (2 clusters)", lat), "config",
			[]sim.Setup{sim.SetupVC(2, 2), sim.SetupOB(2)},
			[]string{"VC", "OB"},
			engine.MachineSpec{LinkLatency: lat})
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// AblationIQSize sweeps per-cluster issue-queue capacity: smaller queues
// make allocation stalls (the workload-balance cost) more frequent.
func AblationIQSize(opt Options) ([]*AblationResult, error) {
	opt = opt.withDefaults()
	var out []*AblationResult
	for _, size := range []int{24, 48, 96} {
		r, err := sweepVC(opt,
			fmt.Sprintf("issue queues %d entries (2 clusters)", size), "config",
			[]sim.Setup{sim.SetupVC(2, 2), sim.SetupOneCluster(2)},
			[]string{"VC", "one-cluster"},
			engine.MachineSpec{IQSize: size})
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// AblationTopology compares the paper's point-to-point mesh against a
// bidirectional ring on the 4-cluster machine: rings save wiring but make
// far copies slower and contend on shared segments, amplifying the value
// of chain colocation.
func AblationTopology(opt Options) ([]*AblationResult, error) {
	opt = opt.withDefaults()
	var out []*AblationResult
	for _, topo := range []interconnect.Topology{interconnect.TopologyPointToPoint, interconnect.TopologyRing} {
		r, err := sweepVC(opt,
			fmt.Sprintf("interconnect topology %s (4 clusters)", topo), "config",
			[]sim.Setup{sim.SetupVC(2, 4), sim.SetupOB(4)},
			[]string{"VC(2->4)", "OB"},
			engine.MachineSpec{Topology: topo.String()})
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// AblationVCComm compares the paper's VC mapper against the VC-comm
// extension (communication-aware leader mapping) on 2 and 4 clusters: the
// future-work check of whether two extra rename-table reads per leader buy
// performance.
func AblationVCComm(opt Options) ([]*AblationResult, error) {
	opt = opt.withDefaults()
	var out []*AblationResult
	for _, clusters := range []int{2, 4} {
		r, err := sweepVC(opt,
			fmt.Sprintf("VC-comm extension (%d clusters)", clusters), "config",
			[]sim.Setup{sim.SetupVC(2, clusters), sim.SetupVCComm(2, clusters)},
			[]string{"VC", "VC-comm"}, engine.MachineSpec{})
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// AblationRegionScope sweeps the compiler region size for the three
// software-side schemes: the paper's §3.2 argues software steering's edge
// is the "bigger window of instructions inspected at compile time"; this
// sweep measures how quickly the schemes degrade as that window shrinks.
func AblationRegionScope(opt Options) ([]*AblationResult, error) {
	opt = opt.withDefaults()
	var out []*AblationResult
	for _, scope := range []int{16, 48, 256} {
		variants := []sim.Setup{
			sim.SetupScoped("VC", 2, scope),
			sim.SetupScoped("OB", 2, scope),
			sim.SetupScoped("RHOP", 2, scope),
		}
		labels := []string{"VC", "OB", "RHOP"}
		r, err := sweepVC(opt,
			fmt.Sprintf("compile window %d ops (2 clusters)", scope), "config",
			variants, labels, engine.MachineSpec{})
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// AblationStallOverSteer compares OP against OP-nostall (always divert when
// the preferred cluster is full), quantifying the stalling heuristic the
// paper adopts from [15] and [24].
func AblationStallOverSteer(opt Options) (*AblationResult, error) {
	return sweepVC(opt, "stall-over-steer (2 clusters)", "config",
		[]sim.Setup{sim.SetupOPNoStall(2), sim.SetupVC(2, 2)},
		[]string{"OP-nostall", "VC"}, engine.MachineSpec{})
}

// AblationCopyBandwidth sweeps the copy issue width and link bandwidth: the
// hybrid scheme's extra copies only stay cheap while copy bandwidth holds.
func AblationCopyBandwidth(opt Options) ([]*AblationResult, error) {
	opt = opt.withDefaults()
	var out []*AblationResult
	for _, bw := range []int{1, 2, 4} {
		r, err := sweepVC(opt,
			fmt.Sprintf("copy bandwidth %d/cycle (2 clusters)", bw), "config",
			[]sim.Setup{sim.SetupVC(2, 2), sim.SetupOB(2)},
			[]string{"VC", "OB"},
			engine.MachineSpec{CopyBandwidth: bw})
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// AblationPrefetch sweeps the substrate's stream-prefetch degree under the
// OP baseline, documenting how much of the memory wall the substitute
// prefetcher hides (a substrate validity check, not a paper experiment).
func AblationPrefetch(opt Options) (*AblationResult, error) {
	opt = opt.withDefaults()
	sps := opt.suite()
	degrees := []int{0, 2, 4, 8}
	out := &AblationResult{Name: "stream prefetch degree (substrate check, OP)", Axis: "degree"}
	var base []int64
	for di, d := range degrees {
		runOpts := opt.runOpts()
		runOpts.Machine = engine.MachineSpec{PrefetchDegree: &d} // 0 disables prefetching entirely
		res, err := opt.matrix(sps, []sim.Setup{sim.SetupOP(2)}, runOpts)
		if err != nil {
			return nil, err
		}
		var slow []float64
		var copies, uops int64
		for i := range sps {
			if di == 0 {
				base = append(base, res[i][0].Metrics.Cycles)
			}
			slow = append(slow, stats.SlowdownPct(res[i][0].Metrics.Cycles, base[i]))
			copies += res[i][0].Metrics.Copies
			uops += res[i][0].Metrics.Uops
		}
		out.Points = append(out.Points, AblationPoint{
			Label:         fmt.Sprintf("degree=%d", d),
			SlowdownPct:   BenchAverage(sps, slow, nil),
			CopiesPerKuop: float64(copies) * 1000 / float64(uops),
		})
	}
	return out, nil
}
