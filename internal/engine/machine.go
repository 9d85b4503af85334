package engine

import (
	"crypto/sha256"
	"fmt"

	"clustersim/internal/interconnect"
	"clustersim/internal/pipeline"
)

// ModelVersion versions the timing model. Store keys carry it next to
// CodecVersion, so results of another model never answer a lookup; bump
// it with any deliberate re-baseline of the golden tables.
const ModelVersion = 1

// MachineSpec overrides the paper's default machine (pipeline.DefaultConfig).
// Each zero field keeps the default, so the zero value is the default
// machine. It is plain data: it travels with a job, and the result key
// hashes the config it resolves to.
type MachineSpec struct {
	// LinkLatency is the per-hop link latency in cycles (Net.Latency).
	LinkLatency int `json:"link_latency,omitempty"`
	// IQSize sizes each cluster's INT and FP issue queues.
	IQSize int `json:"iq_size,omitempty"`
	// Topology is "p2p" (the default mesh) or "ring".
	Topology string `json:"topology,omitempty"`
	// CopyBandwidth sets Cluster.IssueCopy and Net.BandwidthPerLink.
	CopyBandwidth int `json:"copy_bandwidth,omitempty"`
	// PrefetchDegree sets Mem.PrefetchDegree; a pointer to 0 turns
	// prefetching off.
	PrefetchDegree *int `json:"prefetch_degree,omitempty"`
	// Histograms sets TrackHistograms.
	Histograms bool `json:"histograms,omitempty"`
}

var ringTopology = interconnect.TopologyRing.String()

// Validate rejects overrides no core can run; pipeline.Config.Validate
// does not range-check these knobs, and a spec may arrive over HTTP.
func (m MachineSpec) Validate() error {
	switch {
	case m.LinkLatency < 0:
		return fmt.Errorf("engine: negative link latency %d", m.LinkLatency)
	case m.IQSize < 0:
		return fmt.Errorf("engine: issue-queue size %d (want >= 1)", m.IQSize)
	case m.CopyBandwidth < 0:
		return fmt.Errorf("engine: copy bandwidth %d (want >= 1)", m.CopyBandwidth)
	case m.PrefetchDegree != nil && *m.PrefetchDegree < 0:
		return fmt.Errorf("engine: negative prefetch degree %d", *m.PrefetchDegree)
	case m.Topology != "" && m.Topology != interconnect.TopologyPointToPoint.String() && m.Topology != ringTopology:
		return fmt.Errorf("engine: unknown topology %q (want p2p or ring)", m.Topology)
	}
	return nil
}

// config is the one config resolver: the default machine for the setup's
// cluster count, then the warm-up window, then the machine overrides.
// execute runs exactly this config and resultKey hashes it.
func (job Job) config() pipeline.Config {
	m := job.Opts.Machine
	cfg := pipeline.DefaultConfig(job.Setup.NumClusters)
	cfg.WarmupUops = int64(job.Opts.WarmupUops)
	if m.LinkLatency != 0 {
		cfg.Net.Latency = m.LinkLatency
	}
	if m.IQSize != 0 {
		cfg.Cluster.IQInt, cfg.Cluster.IQFP = m.IQSize, m.IQSize
	}
	if m.Topology == ringTopology {
		cfg.Net.Topology = interconnect.TopologyRing
	}
	if m.CopyBandwidth != 0 {
		cfg.Cluster.IssueCopy, cfg.Net.BandwidthPerLink = m.CopyBandwidth, m.CopyBandwidth
	}
	if m.PrefetchDegree != nil {
		cfg.Mem.PrefetchDegree = *m.PrefetchDegree
	}
	cfg.TrackHistograms = m.Histograms
	return cfg
}

// configHash is a content hash of every field of a resolved config,
// memoized per distinct config: the key is derived at submission, in the
// fleet and in the engine, and hashing costs microseconds. The memo is
// dropped whole when full, so configs arriving over HTTP cannot grow it
// without bound.
func (e *Engine) configHash(cfg pipeline.Config) string {
	e.cfgMu.Lock()
	defer e.cfgMu.Unlock()
	h, ok := e.cfgHashes[cfg]
	if !ok {
		sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", cfg)))
		h = fmt.Sprintf("%x", sum[:8])
		if len(e.cfgHashes) >= 256 {
			e.cfgHashes = make(map[pipeline.Config]string)
		}
		e.cfgHashes[cfg] = h
	}
	return h
}
