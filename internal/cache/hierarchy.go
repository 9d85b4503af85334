package cache

import (
	"fmt"
	"math"
)

// HierarchyConfig assembles the two-level hierarchy of the paper's Table 2:
// L1D 32KB/4-way/3-cycle with 2R+1W ports, unified L2 2MB/16-way/13-cycle,
// memory ≥500 cycles, and a bounded miss-status-holding-register file.
type HierarchyConfig struct {
	L1, L2     Config
	MemLatency int
	// MSHRs bounds outstanding L1 misses; zero means 16.
	MSHRs int
	// PrefetchDegree is the number of sequential next lines fetched on a
	// demand miss (a simple stream prefetcher, standard on the paper's era
	// of hardware). Zero disables prefetching; a negative value selects a
	// degree of 2. DefaultHierarchyConfig uses 4.
	PrefetchDegree int
}

// DefaultHierarchyConfig returns the paper's Table 2 memory parameters.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1: Config{
			SizeBytes: 32 << 10, LineBytes: 64, Assoc: 4,
			HitLatency: 3, ReadPorts: 2, WritePorts: 1,
		},
		L2: Config{
			SizeBytes: 2 << 20, LineBytes: 64, Assoc: 16,
			HitLatency: 13,
		},
		MemLatency:     500,
		MSHRs:          16,
		PrefetchDegree: 4,
	}
}

// mshr tracks one outstanding line fill.
type mshr struct {
	lineAddr uint64
	ready    int64 // cycle at which the fill completes
}

// AccessResult reports one hierarchy access.
type AccessResult struct {
	// Ready is the cycle the data is available.
	Ready int64
	// Level is 1 (L1 hit), 2 (L2 hit) or 3 (memory).
	Level int
	// Merged reports the access coalesced onto an in-flight MSHR.
	Merged bool
}

// Hierarchy is the shared data-cache hierarchy. It is accessed by all
// clusters through the unified LSQ, per the paper's design.
type Hierarchy struct {
	cfg   HierarchyConfig
	l1    *Cache
	l2    *Cache
	mshrs []mshr
	// prefetches tracks in-flight prefetched lines (separate from demand
	// MSHRs so prefetching never starves demand misses). pfHeap orders the
	// same records by ready cycle so expiry pops instead of sweeping the
	// map; a popped record whose line was since deleted (or re-prefetched
	// with another ready cycle) is stale and skipped.
	prefetches map[uint64]int64
	pfHeap     []pfRecord

	// Counters.
	L1Hits, L2Hits, MemAccesses uint64
	MSHRFullEvents, Prefetches  uint64
	// Gen advances whenever an access could stop being refused for a full
	// MSHR file: a line filled into L1, a new MSHR, a new prefetch record.
	Gen uint64
}

// pfRecord is one prefetch record in ready-cycle order.
type pfRecord struct {
	ready int64
	line  uint64
}

// NewHierarchy builds the hierarchy.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	if cfg.MSHRs == 0 {
		cfg.MSHRs = 16
	}
	l1, err := New(cfg.L1)
	if err != nil {
		return nil, fmt.Errorf("L1: %w", err)
	}
	l2, err := New(cfg.L2)
	if err != nil {
		return nil, fmt.Errorf("L2: %w", err)
	}
	if cfg.PrefetchDegree < 0 {
		cfg.PrefetchDegree = 2
	}
	return &Hierarchy{cfg: cfg, l1: l1, l2: l2, prefetches: make(map[uint64]int64)}, nil
}

// L1 exposes the first-level cache (for port reservation by the LSQ).
func (h *Hierarchy) L1() *Cache { return h.l1 }

// expireMSHRs drops completed fills and, once more than 64 prefetch
// records are held, every completed prefetch record (their lines already
// sit in the caches). The threshold is part of the model: a dropped record
// no longer re-arms its stream on the next demand touch.
func (h *Hierarchy) expireMSHRs(cycle int64) {
	out := h.mshrs[:0]
	for _, m := range h.mshrs {
		if m.ready > cycle {
			out = append(out, m)
		}
	}
	h.mshrs = out
	if len(h.prefetches) > 64 {
		h.sweepPrefetches(cycle)
	}
}

// sweepPrefetches deletes every prefetch record ready by cycle.
func (h *Hierarchy) sweepPrefetches(cycle int64) {
	for len(h.pfHeap) > 0 && h.pfHeap[0].ready <= cycle {
		r := h.popPrefetch()
		if ready, ok := h.prefetches[r.line]; ok && ready == r.ready {
			delete(h.prefetches, r.line)
		}
	}
}

// pushPrefetch records a prefetch in the map and the heap. Stale heap
// records pile up while the map stays at or below the sweep threshold, so
// the heap is rebuilt from the map once they dominate.
func (h *Hierarchy) pushPrefetch(line uint64, ready int64) {
	h.prefetches[line] = ready
	if len(h.pfHeap) > 2*len(h.prefetches)+64 {
		h.pfHeap = h.pfHeap[:0]
		for l, r := range h.prefetches {
			h.pfHeap = append(h.pfHeap, pfRecord{ready: r, line: l})
		}
		for i := len(h.pfHeap)/2 - 1; i >= 0; i-- {
			h.siftDown(i)
		}
		return
	}
	h.pfHeap = append(h.pfHeap, pfRecord{ready: ready, line: line})
	for i := len(h.pfHeap) - 1; i > 0; {
		parent := (i - 1) / 2
		if h.pfHeap[parent].ready <= h.pfHeap[i].ready {
			break
		}
		h.pfHeap[parent], h.pfHeap[i] = h.pfHeap[i], h.pfHeap[parent]
		i = parent
	}
}

// popPrefetch removes and returns the earliest-ready heap record.
func (h *Hierarchy) popPrefetch() pfRecord {
	top := h.pfHeap[0]
	last := len(h.pfHeap) - 1
	h.pfHeap[0] = h.pfHeap[last]
	h.pfHeap = h.pfHeap[:last]
	h.siftDown(0)
	return top
}

func (h *Hierarchy) siftDown(i int) {
	n := len(h.pfHeap)
	for {
		min := i
		if l := 2*i + 1; l < n && h.pfHeap[l].ready < h.pfHeap[min].ready {
			min = l
		}
		if r := 2*i + 2; r < n && h.pfHeap[r].ready < h.pfHeap[min].ready {
			min = r
		}
		if min == i {
			return
		}
		h.pfHeap[i], h.pfHeap[min] = h.pfHeap[min], h.pfHeap[i]
		i = min
	}
}

// Access performs a load or store probe at the given cycle and returns when
// the data will be ready, or ok=false if the access must retry (MSHR file
// full). Fills are performed eagerly (contents updated now, timing via the
// returned Ready cycle), a standard trace-simulator simplification.
func (h *Hierarchy) Access(cycle int64, addr uint64, write bool) (AccessResult, bool) {
	h.expireMSHRs(cycle)
	lineAddr := h.l1.LineAddr(addr)

	// Coalesce with an in-flight fill first: the line is not yet in L1.
	for _, m := range h.mshrs {
		if m.lineAddr == lineAddr {
			return AccessResult{Ready: m.ready + int64(h.cfg.L1.HitLatency), Level: 2, Merged: true}, true
		}
	}
	// A completed prefetch behaves as an L1 hit; an in-flight one as a
	// merged miss. Either way the first demand touch of a prefetched line
	// re-arms the stream (tagged prefetching), keeping sequential streams
	// running ahead of the consumer.
	if pf, ok := h.prefetches[lineAddr]; ok {
		h.prefetchAfter(cycle, lineAddr)
		if pf <= cycle {
			delete(h.prefetches, lineAddr)
		} else {
			return AccessResult{Ready: pf + int64(h.cfg.L1.HitLatency), Level: 2, Merged: true}, true
		}
	}
	if h.l1.Lookup(addr) {
		h.L1Hits++
		return AccessResult{Ready: cycle + int64(h.cfg.L1.HitLatency), Level: 1}, true
	}
	// L1 miss: need an MSHR.
	if len(h.mshrs) >= h.cfg.MSHRs {
		h.MSHRFullEvents++
		return AccessResult{}, false
	}
	fillReady, level := h.fill(cycle, addr)
	h.mshrs = append(h.mshrs, mshr{lineAddr: lineAddr, ready: fillReady})
	h.Gen++
	h.prefetchAfter(cycle, lineAddr)
	return AccessResult{Ready: fillReady, Level: level}, true
}

// fill brings the line into L1 (and L2 on an L2 miss) and returns the fill
// completion cycle and the serving level.
func (h *Hierarchy) fill(cycle int64, addr uint64) (int64, int) {
	if h.l2.Lookup(addr) {
		h.L2Hits++
		h.l1.Fill(addr)
		return cycle + int64(h.cfg.L2.HitLatency), 2
	}
	h.MemAccesses++
	h.l2.Fill(addr)
	h.l1.Fill(addr)
	return cycle + int64(h.cfg.L2.HitLatency) + int64(h.cfg.MemLatency), 3
}

// prefetchAfter launches the sequential next-line prefetches that follow a
// demand miss. Prefetches use their own tracking (not demand MSHRs, so
// they never starve demand misses) and fill without touching demand
// hit/miss statistics.
func (h *Hierarchy) prefetchAfter(cycle int64, lineAddr uint64) {
	lineBytes := uint64(h.cfg.L1.LineBytes)
	for d := 1; d <= h.cfg.PrefetchDegree; d++ {
		next := lineAddr + uint64(d)*lineBytes
		if _, inflight := h.prefetches[next]; inflight {
			continue
		}
		already := false
		for _, m := range h.mshrs {
			if m.lineAddr == next {
				already = true
				break
			}
		}
		if already || h.l1.Contains(next) {
			continue
		}
		lat := int64(h.cfg.L2.HitLatency)
		if !h.l2.Contains(next) {
			lat += int64(h.cfg.MemLatency)
			h.l2.Fill(next)
		}
		h.l1.Fill(next)
		h.pushPrefetch(next, cycle+lat)
		h.Prefetches++
		h.Gen++
	}
}

// Refuses reports whether Access(cycle, addr, ·) would be refused for a
// full MSHR file, without performing it: no in-flight fill or prefetch
// record covers the line, L1 misses, and every MSHR is still busy at
// cycle. Until Gen advances or cycle reaches MSHRFreeAt, the answer stays
// true and a refused access changes nothing but what RefusedSpan replays.
func (h *Hierarchy) Refuses(cycle int64, addr uint64) bool {
	lineAddr := h.l1.LineAddr(addr)
	busy := 0
	for _, m := range h.mshrs {
		if m.ready > cycle {
			if m.lineAddr == lineAddr {
				return false
			}
			busy++
		}
	}
	if busy < h.cfg.MSHRs {
		return false
	}
	if pf, ok := h.prefetches[lineAddr]; ok && (len(h.prefetches) <= 64 || pf > cycle) {
		return false
	}
	return !h.l1.Contains(addr)
}

// MSHRFreeAt returns the first cycle at which a demand miss can claim an
// MSHR without another access freeing one first: math.MinInt64 when one
// is free already, else the earliest completion of a held fill.
func (h *Hierarchy) MSHRFreeAt() int64 {
	if len(h.mshrs) < h.cfg.MSHRs {
		return math.MinInt64
	}
	free := int64(math.MaxInt64)
	for _, m := range h.mshrs {
		free = min(free, m.ready)
	}
	return free
}

// RefusedSpan replays n refused accesses in every cycle of [from, to], a
// span with no other access and no MSHR completion (to < MSHRFreeAt). It
// is exact: expiry deletes the same prefetch records, in the same cycles,
// as the per-cycle calls would, but costs only one heap pop per record.
func (h *Hierarchy) RefusedSpan(from, to int64, n int) {
	if n <= 0 || to < from {
		return
	}
	calls := uint64(n) * uint64(to-from+1)
	h.MSHRFullEvents += calls
	h.l1.stats.Misses += calls
	h.expireMSHRs(from)
	for c := from + 1; len(h.prefetches) > 64 && len(h.pfHeap) > 0; c++ {
		if r := h.pfHeap[0].ready; r > c {
			c = r
		}
		if c > to {
			break
		}
		h.sweepPrefetches(c)
	}
}

// Reset restores post-construction state (between runs) without
// reallocating: cache contents are zeroed in place, the MSHR backing and
// prefetch map are kept.
func (h *Hierarchy) Reset() {
	h.l1.Reset()
	h.l2.Reset()
	h.mshrs = h.mshrs[:0]
	clear(h.prefetches)
	h.pfHeap = h.pfHeap[:0]
	h.Gen = 0
	h.L1Hits, h.L2Hits, h.MemAccesses = 0, 0, 0
	h.MSHRFullEvents, h.Prefetches = 0, 0
}
