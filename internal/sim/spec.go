package sim

import (
	"fmt"
	"sync"

	"clustersim/internal/engine"
	"clustersim/internal/prog"
	"clustersim/internal/workload"
)

// suiteIdentity is the per-simpoint data SpecFromJob validates against.
type suiteIdentity struct {
	seed int64
	fp   uint64
}

// simpointIndex memoizes one canonical suite build (name → simpoint):
// workload.ByName regenerates all ~40 synthetic programs per call, far
// too heavy for anything that resolves specs per request. Serving stable
// pointers also keeps the engine's pointer-keyed fingerprint memo hot
// across submissions instead of missing (and growing) on every batch.
// Nothing mutates these simpoints: workload.QuickSuite reweighs its own
// fresh build, never this one.
var simpointIndex = sync.OnceValue(func() map[string]*workload.Simpoint {
	idx := map[string]*workload.Simpoint{}
	for _, sp := range workload.Suite() {
		idx[sp.Name] = sp
	}
	return idx
})

// suiteIndex memoizes the suite's (name → seed, program fingerprint)
// map for SpecFromJob's identity checks, derived from the same canonical
// build simpointIndex holds.
var suiteIndex = sync.OnceValue(func() map[string]suiteIdentity {
	idx := map[string]suiteIdentity{}
	for name, sp := range simpointIndex() {
		idx[name] = suiteIdentity{seed: sp.Seed, fp: fingerprintOf(sp.Program)}
	}
	return idx
})

// fingerprintOf memoizes Program.Fingerprint per program value (programs
// are immutable once built), so a matrix submitting the same workload
// under many setups hashes it once, not once per job. The memo is
// bounded — a caller that resolves fresh program instances per request
// must not have them pinned for process lifetime — by dropping the whole
// map when it fills; steady-state workloads re-warm it in one pass.
func fingerprintOf(p *prog.Program) uint64 {
	const maxEntries = 512
	fpMu.Lock()
	fp, ok := fpMemo[p]
	fpMu.Unlock()
	if ok {
		return fp
	}
	fp = p.Fingerprint() // outside the lock: the walk is the expensive part
	fpMu.Lock()
	if len(fpMemo) >= maxEntries {
		fpMemo = make(map[*prog.Program]uint64, maxEntries)
	}
	fpMemo[p] = fp
	fpMu.Unlock()
	return fp
}

var (
	fpMu   sync.Mutex
	fpMemo = map[*prog.Program]uint64{}
)

// passEqual compares the cacheable signature of two compiler passes (the
// same fields engine folds into result keys).
func passEqual(a, b *engine.Pass) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return a.Kind == b.Kind && a.NumTargets == b.NumTargets &&
		a.RegionMaxOps == b.RegionMaxOps && a.MaxChainLen == b.MaxChainLen
}

// SetupFromSpec resolves a declarative setup spec (the clusterd wire form)
// into a runnable Setup. Unknown kinds are rejected so a typo in a request
// fails the submission, not the simulation.
func SetupFromSpec(s engine.SetupSpec) (engine.Setup, error) {
	clusters := s.NumClusters
	if clusters == 0 {
		clusters = 2
	}
	numVC := s.NumVC
	if numVC == 0 {
		numVC = clusters
	}
	switch s.Kind {
	case "OP":
		return SetupOP(clusters), nil
	case "OP-nostall":
		return SetupOPNoStall(clusters), nil
	case "one-cluster":
		return SetupOneCluster(clusters), nil
	case "OB":
		if s.RegionMaxOps > 0 {
			return SetupScoped("OB", clusters, s.RegionMaxOps), nil
		}
		return SetupOB(clusters), nil
	case "RHOP":
		if s.RegionMaxOps > 0 {
			return SetupScoped("RHOP", clusters, s.RegionMaxOps), nil
		}
		return SetupRHOP(clusters), nil
	case "VC":
		if s.RegionMaxOps > 0 {
			return SetupScoped("VC", clusters, s.RegionMaxOps), nil
		}
		return SetupVCChain(numVC, clusters, s.MaxChainLen), nil
	case "VC-comm":
		return SetupVCComm(numVC, clusters), nil
	case "ADV", "LC", "SLC", "MOD":
		return SetupHeuristic(s.Kind, clusters), nil
	}
	return engine.Setup{}, fmt.Errorf("sim: unknown setup kind %q", s.Kind)
}

// SpecFromJob converts a runnable job back to its declarative wire form —
// the inverse of JobFromSpec, used by remote runners to ship a job to a
// clusterd worker. Not every job can travel: setups hand-built around
// custom passes or policies, and workloads outside the synthetic suite,
// have no declarative form and must execute on a local engine. The
// returned error says which constraint failed.
func SpecFromJob(job engine.Job) (engine.JobSpec, error) {
	if job.Simpoint == nil {
		return engine.JobSpec{}, fmt.Errorf("sim: job has no simpoint")
	}
	if job.Setup.Spec == nil {
		return engine.JobSpec{}, fmt.Errorf("sim: setup %q has no declarative spec (custom setups run locally only)", job.Setup.Label)
	}
	// The spec must still describe the setup: Setup fields are exported,
	// so a caller may have mutated the setup after construction, and a
	// remote worker resolving the stale spec would silently simulate the
	// wrong configuration. Closure swaps (NewPolicy) are undetectable;
	// everything the result key depends on is checked.
	resolved, err := SetupFromSpec(*job.Setup.Spec)
	if err != nil {
		return engine.JobSpec{}, fmt.Errorf("sim: setup %q carries an unresolvable spec: %w", job.Setup.Label, err)
	}
	if resolved.Label != job.Setup.Label || resolved.NumClusters != job.Setup.NumClusters ||
		!passEqual(resolved.Pass, job.Setup.Pass) {
		return engine.JobSpec{}, fmt.Errorf("sim: setup %q was modified after construction; its declarative spec no longer describes it (rebuild it with a Setup* constructor)", job.Setup.Label)
	}
	if err := job.Opts.Machine.Validate(); err != nil {
		return engine.JobSpec{}, err
	}
	suite, ok := suiteIndex()[job.Simpoint.Name]
	if !ok {
		return engine.JobSpec{}, fmt.Errorf("sim: workload %q is not a suite member (custom workloads run locally only)", job.Simpoint.Name)
	}
	// A remote worker resolves the spec against *its* suite by name, so a
	// custom program that happens to share a suite name must be caught
	// here — by seed and content — or the worker would silently simulate
	// the wrong program.
	if suite.seed != job.Simpoint.Seed || suite.fp != fingerprintOf(job.Simpoint.Program) {
		return engine.JobSpec{}, fmt.Errorf("sim: workload %q does not match the suite's definition (custom workloads run locally only)", job.Simpoint.Name)
	}
	opts := engine.OptionsSpec{NumUops: job.Opts.NumUops, WarmupUops: job.Opts.WarmupUops}
	if m := job.Opts.Machine; m != (engine.MachineSpec{}) {
		opts.Machine = &m // the default machine sends no "machine" key
	}
	return engine.JobSpec{Simpoint: job.Simpoint.Name, Setup: *job.Setup.Spec, Opts: opts}, nil
}

// JobFromSpec resolves a serialized job spec into a runnable engine job:
// the simpoint is looked up in the synthetic suite (programs are never
// shipped — they are rebuilt deterministically from the suite tables) and
// the setup kind is mapped to its constructor. Machine overrides are
// range-checked here, so a bad one fails the submission before it
// reaches a core.
func JobFromSpec(spec engine.JobSpec) (engine.Job, error) {
	sp := simpointIndex()[spec.Simpoint]
	if sp == nil {
		return engine.Job{}, fmt.Errorf("sim: unknown simpoint %q", spec.Simpoint)
	}
	setup, err := SetupFromSpec(spec.Setup)
	if err != nil {
		return engine.Job{}, err
	}
	opts := spec.Opts.RunOptions()
	if err := opts.Machine.Validate(); err != nil {
		return engine.Job{}, err
	}
	return engine.Job{Simpoint: sp, Setup: setup, Opts: opts}, nil
}
