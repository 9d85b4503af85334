package experiments

import (
	"strings"

	"clustersim/internal/sim"
	"clustersim/internal/stats"
)

// PolicyPoint summarizes one steering policy over the suite.
type PolicyPoint struct {
	// Label names the policy.
	Label string
	// SlowdownPct is the average slowdown vs OP.
	SlowdownPct float64
	// CopiesPerKuop is the average copy rate.
	CopiesPerKuop float64
	// DependenceLogic marks policies needing the location table + vote
	// unit (the Table 1 complexity class).
	DependenceLogic bool
}

// PolicySpaceResult is the extension experiment: every hardware steering
// heuristic the paper surveys (§3.1) plus the hybrid, on one chart. It
// quantifies the claim that dependence-aware steering needs the expensive
// serialized logic (OP, ADV) while cheap heuristics (LC, SLC, MOD)
// pay in copies or balance — and that VC reaches OP-class performance in
// the cheap-logic class.
type PolicySpaceResult struct {
	Points []PolicyPoint
}

// PolicySpace runs the policy survey on the 2-cluster machine.
func PolicySpace(opt Options) (*PolicySpaceResult, error) {
	opt = opt.withDefaults()
	sps := opt.suite()
	policySetups := []struct {
		setup    sim.Setup
		depLogic bool
	}{
		{sim.SetupOP(2), true},
		{sim.SetupOPNoStall(2), true},
		{sim.SetupHeuristic("ADV", 2), true},
		{sim.SetupHeuristic("LC", 2), false},
		{sim.SetupHeuristic("SLC", 2), false},
		{sim.SetupHeuristic("MOD", 2), false},
		{sim.SetupVC(2, 2), false},
	}
	setups := make([]sim.Setup, len(policySetups))
	for i, ps := range policySetups {
		setups[i] = ps.setup
	}
	res, err := opt.matrix(sps, setups, opt.runOpts())
	if err != nil {
		return nil, err
	}
	out := &PolicySpaceResult{}
	for j, ps := range policySetups {
		var slow []float64
		var copies, uops int64
		for i := range sps {
			slow = append(slow, stats.SlowdownPct(res[i][j].Metrics.Cycles, res[i][0].Metrics.Cycles))
			copies += res[i][j].Metrics.Copies
			uops += res[i][j].Metrics.Uops
		}
		out.Points = append(out.Points, PolicyPoint{
			Label:           ps.setup.Label,
			SlowdownPct:     BenchAverage(sps, slow, nil),
			CopiesPerKuop:   float64(copies) * 1000 / float64(uops),
			DependenceLogic: ps.depLogic,
		})
	}
	return out, nil
}

// Render produces the survey table.
func (r *PolicySpaceResult) Render() string {
	var b strings.Builder
	b.WriteString(section("Policy space: hardware steering heuristics (2 clusters, slowdown vs OP)"))
	tab := stats.NewTable("policy", "slowdown vs OP (%)", "copies/kuop", "needs dependence logic")
	for _, pt := range r.Points {
		dep := "no"
		if pt.DependenceLogic {
			dep = "yes"
		}
		tab.Row(pt.Label, pt.SlowdownPct, pt.CopiesPerKuop, dep)
	}
	b.WriteString(tab.String())
	b.WriteString(`
Reading: the dependence-aware policies (OP, ADV) need the serialized
location-table/vote logic of Table 1; the cheap heuristics (LC, SLC, MOD)
avoid it but pay in copies or balance. VC reaches the dependence-aware
class's performance with cheap-class hardware — the paper's thesis.
`)
	return b.String()
}
