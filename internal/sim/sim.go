// Package sim binds steering configurations (compiler pass + runtime
// policy, paper Table 3) to machine configs (paper Table 2) and runs them.
// The heavy lifting — worker pooling, cancellation and artifact caching —
// lives in internal/engine; RunOne and RunMatrix are thin, API-compatible
// wrappers over it, kept for callers that need one-shot blocking runs
// without managing an engine instance.
package sim

import (
	"context"
	"fmt"

	"clustersim/internal/engine"
	"clustersim/internal/partition"
	"clustersim/internal/steer"
	"clustersim/internal/workload"
)

// Setup is one steering configuration: how programs are annotated at
// compile time and which runtime policy steers.
type Setup = engine.Setup

// Pass declares a compiler pass for a Setup; the engine derives its
// options from the machine configuration actually being run.
type Pass = engine.Pass

// RunOptions sizes one simulation.
type RunOptions = engine.RunOptions

// Result is the outcome of one (simpoint, setup) run.
type Result = engine.Result

// SetupOP returns the hardware-only occupancy-aware baseline.
func SetupOP(clusters int) Setup {
	return Setup{
		Label:       "OP",
		NumClusters: clusters,
		Spec:        &engine.SetupSpec{Kind: "OP", NumClusters: clusters},
		NewPolicy:   func() steer.Policy { return &steer.OP{} },
	}
}

// SetupOPNoStall returns the OP variant without stall-over-steer: a full
// preferred cluster always diverts. The ablation harness uses it to
// quantify the stalling heuristic of [15]/[24].
func SetupOPNoStall(clusters int) Setup {
	return Setup{
		Label:       "OP-nostall",
		NumClusters: clusters,
		Spec:        &engine.SetupSpec{Kind: "OP-nostall", NumClusters: clusters},
		NewPolicy:   func() steer.Policy { return &steer.OP{NoStall: true} },
	}
}

// heuristics are the hardware steering heuristics of the policy survey
// (§3.1), by setup kind; none uses a compiler pass.
var heuristics = map[string]func() steer.Policy{
	"ADV": func() steer.Policy { return &steer.DependenceBalanced{} },
	"LC":  func() steer.Policy { return &steer.LeastLoaded{} },
	"SLC": func() steer.Policy { return &steer.Slice{} },
	"MOD": func() steer.Policy { return &steer.ModN{} },
}

// SetupHeuristic returns the policy survey's hardware heuristic kind:
// "ADV", "LC", "SLC" or "MOD".
func SetupHeuristic(kind string, clusters int) Setup {
	newPolicy := heuristics[kind]
	if newPolicy == nil {
		panic(fmt.Sprintf("sim: unknown heuristic setup kind %q", kind))
	}
	return Setup{
		Label:       kind,
		NumClusters: clusters,
		Spec:        &engine.SetupSpec{Kind: kind, NumClusters: clusters},
		NewPolicy:   newPolicy,
	}
}

// SetupOneCluster returns the naive everything-to-cluster-0 configuration.
func SetupOneCluster(clusters int) Setup {
	return Setup{
		Label:       "one-cluster",
		NumClusters: clusters,
		Spec:        &engine.SetupSpec{Kind: "one-cluster", NumClusters: clusters},
		NewPolicy:   func() steer.Policy { return &steer.OneCluster{} },
	}
}

// SetupOB returns the SPDI operation-based software-only configuration.
func SetupOB(clusters int) Setup {
	return Setup{
		Label:       "OB",
		NumClusters: clusters,
		Pass:        &Pass{Kind: "OB", NumTargets: clusters, Run: partition.AnnotateOB},
		Spec:        &engine.SetupSpec{Kind: "OB", NumClusters: clusters},
		NewPolicy:   func() steer.Policy { return &steer.Static{Label: "OB"} },
	}
}

// SetupRHOP returns the RHOP software-only configuration.
func SetupRHOP(clusters int) Setup {
	return Setup{
		Label:       "RHOP",
		NumClusters: clusters,
		Pass:        &Pass{Kind: "RHOP", NumTargets: clusters, Run: partition.AnnotateRHOP},
		Spec:        &engine.SetupSpec{Kind: "RHOP", NumClusters: clusters},
		NewPolicy:   func() steer.Policy { return &steer.Static{Label: "RHOP"} },
	}
}

// SetupVC returns the paper's hybrid configuration with numVC virtual
// clusters on a machine with the given physical cluster count. The paper's
// VC(2→4) is SetupVC(2, 4).
func SetupVC(numVC, clusters int) Setup {
	return SetupVCChain(numVC, clusters, 0)
}

// SetupVCComm returns the communication-aware extension of the hybrid
// mapper (the co-design direction of the paper's conclusion): leaders map
// by load plus an estimated copy penalty for the leader's operands.
func SetupVCComm(numVC, clusters int) Setup {
	label := "VC-comm"
	if numVC != clusters {
		label = fmt.Sprintf("VC-comm(%d->%d)", numVC, clusters)
	}
	return Setup{
		Label:       label,
		NumClusters: clusters,
		Pass:        &Pass{Kind: "VC", NumTargets: numVC, Run: partition.AnnotateVC},
		Spec:        &engine.SetupSpec{Kind: "VC-comm", NumClusters: clusters, NumVC: numVC},
		NewPolicy:   func() steer.Policy { return steer.NewVCComm(numVC) },
	}
}

// SetupScoped returns OB/RHOP/VC variants with a capped compiler region
// size, for the compile-window ablation. kind is "OB", "RHOP" or "VC".
func SetupScoped(kind string, clusters, regionMaxOps int) Setup {
	label := fmt.Sprintf("%s/region%d", kind, regionMaxOps)
	switch kind {
	case "OB":
		return Setup{
			Label:       label,
			NumClusters: clusters,
			Pass:        &Pass{Kind: "OB", NumTargets: clusters, RegionMaxOps: regionMaxOps, Run: partition.AnnotateOB},
			Spec:        &engine.SetupSpec{Kind: "OB", NumClusters: clusters, RegionMaxOps: regionMaxOps},
			NewPolicy:   func() steer.Policy { return &steer.Static{Label: label} },
		}
	case "RHOP":
		return Setup{
			Label:       label,
			NumClusters: clusters,
			Pass:        &Pass{Kind: "RHOP", NumTargets: clusters, RegionMaxOps: regionMaxOps, Run: partition.AnnotateRHOP},
			Spec:        &engine.SetupSpec{Kind: "RHOP", NumClusters: clusters, RegionMaxOps: regionMaxOps},
			NewPolicy:   func() steer.Policy { return &steer.Static{Label: label} },
		}
	case "VC":
		return Setup{
			Label:       label,
			NumClusters: clusters,
			Pass:        &Pass{Kind: "VC", NumTargets: clusters, RegionMaxOps: regionMaxOps, Run: partition.AnnotateVC},
			Spec:        &engine.SetupSpec{Kind: "VC", NumClusters: clusters, RegionMaxOps: regionMaxOps},
			NewPolicy:   func() steer.Policy { return steer.NewVC(clusters) },
		}
	}
	panic(fmt.Sprintf("sim: unknown scoped setup kind %q", kind))
}

// SetupVCChain is SetupVC with an explicit chain-length cap (zero means the
// partitioner default); the chain-length ablation sweeps it.
func SetupVCChain(numVC, clusters, maxChainLen int) Setup {
	label := "VC"
	if numVC != clusters {
		label = fmt.Sprintf("VC(%d->%d)", numVC, clusters)
	}
	if maxChainLen != 0 {
		label = fmt.Sprintf("%s/chain%d", label, maxChainLen)
	}
	return Setup{
		Label:       label,
		NumClusters: clusters,
		Pass:        &Pass{Kind: "VC", NumTargets: numVC, MaxChainLen: maxChainLen, Run: partition.AnnotateVC},
		Spec:        &engine.SetupSpec{Kind: "VC", NumClusters: clusters, NumVC: numVC, MaxChainLen: maxChainLen},
		NewPolicy:   func() steer.Policy { return steer.NewVC(numVC) },
	}
}

// RunOne executes one simulation from scratch: clone, annotate, expand,
// run. It never serves from or populates caches — engine.Execute is the
// reference run path cached engine results are verified against.
func RunOne(sp *workload.Simpoint, setup Setup, opt RunOptions) *Result {
	return engine.Execute(context.Background(), engine.Job{Simpoint: sp, Setup: setup, Opts: opt})
}

// RunMatrix runs every (simpoint × setup) pair across a worker pool and
// returns results indexed as [simpoint][setup], matching the input order.
// Parallelism ≤ 0 means GOMAXPROCS. Each call uses a private engine, so
// annotated programs and traces are shared between the matrix's own cells
// but nothing persists across calls; share an explicit engine.Engine (or
// any engine.Runner) via RunMatrixOn to cache across invocations.
func RunMatrix(sps []*workload.Simpoint, setups []Setup, opt RunOptions, parallelism int) [][]*Result {
	eng := engine.New(engine.Options{Parallelism: parallelism})
	res, _ := eng.RunMatrix(context.Background(), sps, setups, opt)
	return res
}

// RunOneOn executes one simulation on any Runner — a shared local engine
// or a remote clusterd client — with cancellation.
func RunOneOn(ctx context.Context, r engine.Runner, sp *workload.Simpoint, setup Setup, opt RunOptions) *Result {
	return r.Run(ctx, engine.Job{Simpoint: sp, Setup: setup, Opts: opt})
}

// RunMatrixOn fans the (simpoint × setup) matrix through any Runner;
// results are indexed [simpoint][setup]. Where the simulations execute —
// this process or a clusterd fleet — is entirely the runner's concern.
func RunMatrixOn(ctx context.Context, r engine.Runner, sps []*workload.Simpoint, setups []Setup, opt RunOptions) ([][]*Result, error) {
	return engine.RunMatrixOn(ctx, r, sps, setups, opt)
}
