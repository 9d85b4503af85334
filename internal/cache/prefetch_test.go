package cache

import (
	"math/rand"
	"testing"
)

// TestTaggedPrefetchHidesStream verifies the tagged stream prefetcher: a
// sequential sweep should, after startup, be served at L1-hit or merged
// latency rather than paying memory latency per line.
func TestTaggedPrefetchHidesStream(t *testing.T) {
	h, err := NewHierarchy(DefaultHierarchyConfig())
	if err != nil {
		t.Fatal(err)
	}
	cycle := int64(0)
	memLevelAccesses := 0
	const lines = 64
	for line := 0; line < lines; line++ {
		for word := 0; word < 8; word++ {
			addr := uint64(0x100000 + line*64 + word*8)
			res, ok := h.Access(cycle, addr, false)
			if !ok {
				cycle += 2
				continue
			}
			if res.Level == 3 {
				memLevelAccesses++
			}
			// Consume slowly enough for the stream to run ahead.
			cycle += 12
		}
	}
	// Only the first access should see memory directly; everything else is
	// covered by in-flight or completed prefetches.
	if memLevelAccesses > 3 {
		t.Errorf("memory-level demand accesses = %d, want ≤ 3 (prefetcher should cover the stream)",
			memLevelAccesses)
	}
	if h.Prefetches == 0 {
		t.Error("no prefetches issued on a sequential stream")
	}
}

func TestPrefetchDisabled(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.PrefetchDegree = 0
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for line := 0; line < 16; line++ {
		h.Access(int64(line*600), uint64(0x200000+line*64), false)
	}
	if h.Prefetches != 0 {
		t.Errorf("prefetches issued with degree 0: %d", h.Prefetches)
	}
	if h.MemAccesses != 16 {
		t.Errorf("every line of a cold sweep should miss to memory: %d/16", h.MemAccesses)
	}
}

func TestPrefetchDoesNotConsumeDemandMSHRs(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.MSHRs = 2
	cfg.PrefetchDegree = 4
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two demand misses fill the MSHRs; their prefetches must not make the
	// THIRD demand miss be refused for longer than the two demand fills.
	h.Access(0, 0x300000, false)
	h.Access(0, 0x310000, false)
	if _, ok := h.Access(0, 0x320000, false); ok {
		t.Fatal("third demand miss should be refused with 2 MSHRs")
	}
	// After the demand fills complete, capacity is back even though
	// prefetches were launched.
	if _, ok := h.Access(2000, 0x320000, false); !ok {
		t.Error("demand miss refused after MSHRs drained; prefetches leak MSHRs")
	}
}

func TestPrefetchedLineCountsAsDemandHitLater(t *testing.T) {
	h, _ := NewHierarchy(DefaultHierarchyConfig())
	res1, _ := h.Access(0, 0x400000, false) // miss; prefetches 0x400040...
	// Access the prefetched next line long after its fill completed.
	late := res1.Ready + 1000
	res2, ok := h.Access(late, 0x400040, false)
	if !ok {
		t.Fatal("access refused")
	}
	if res2.Level != 1 {
		t.Errorf("completed prefetch should serve as L1 hit, got level %d", res2.Level)
	}
	if got := res2.Ready - late; got != 3 {
		t.Errorf("latency = %d, want 3 (L1 hit)", got)
	}
}

// refHierarchy is the hierarchy with the original full-map prefetch
// sweep, kept as the reference for the heap-ordered expiry. It shares the
// Cache type (unchanged) and repeats Access step for step.
type refHierarchy struct {
	cfg        HierarchyConfig
	l1, l2     *Cache
	mshrs      []mshr
	prefetches map[uint64]int64

	prefetchCount, fullEvents uint64
}

func newRefHierarchy(cfg HierarchyConfig) *refHierarchy {
	return &refHierarchy{cfg: cfg, l1: MustNew(cfg.L1), l2: MustNew(cfg.L2), prefetches: map[uint64]int64{}}
}

func (h *refHierarchy) expire(cycle int64) {
	out := h.mshrs[:0]
	for _, m := range h.mshrs {
		if m.ready > cycle {
			out = append(out, m)
		}
	}
	h.mshrs = out
	if len(h.prefetches) > 64 {
		for line, ready := range h.prefetches {
			if ready <= cycle {
				delete(h.prefetches, line)
			}
		}
	}
}

func (h *refHierarchy) access(cycle int64, addr uint64) (AccessResult, bool) {
	h.expire(cycle)
	line := h.l1.LineAddr(addr)
	for _, m := range h.mshrs {
		if m.lineAddr == line {
			return AccessResult{Ready: m.ready + int64(h.cfg.L1.HitLatency), Level: 2, Merged: true}, true
		}
	}
	if pf, ok := h.prefetches[line]; ok {
		h.prefetchAfter(cycle, line)
		if pf <= cycle {
			delete(h.prefetches, line)
		} else {
			return AccessResult{Ready: pf + int64(h.cfg.L1.HitLatency), Level: 2, Merged: true}, true
		}
	}
	if h.l1.Lookup(addr) {
		return AccessResult{Ready: cycle + int64(h.cfg.L1.HitLatency), Level: 1}, true
	}
	if len(h.mshrs) >= h.cfg.MSHRs {
		h.fullEvents++
		return AccessResult{}, false
	}
	ready, level := cycle+int64(h.cfg.L2.HitLatency), 2
	if h.l2.Lookup(addr) {
		h.l1.Fill(addr)
	} else {
		ready, level = ready+int64(h.cfg.MemLatency), 3
		h.l2.Fill(addr)
		h.l1.Fill(addr)
	}
	h.mshrs = append(h.mshrs, mshr{lineAddr: line, ready: ready})
	h.prefetchAfter(cycle, line)
	return AccessResult{Ready: ready, Level: level}, true
}

func (h *refHierarchy) prefetchAfter(cycle int64, line uint64) {
	for d := 1; d <= h.cfg.PrefetchDegree; d++ {
		next := line + uint64(d*h.cfg.L1.LineBytes)
		if _, inflight := h.prefetches[next]; inflight {
			continue
		}
		already := false
		for _, m := range h.mshrs {
			already = already || m.lineAddr == next
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
		h.prefetches[next] = cycle + lat
		h.prefetchCount++
	}
}

// TestPrefetchExpiryMatchesFullSweep drives random access streams that
// push the prefetch table past its 64-record sweep threshold and re-touch
// prefetched lines, and requires the heap-ordered expiry to match the
// full-map sweep exactly: every AccessResult, the prefetch records, the
// Prefetches count and the refused-access count. Replayed refusals
// (RefusedSpan) must match per-cycle refused accesses too.
func TestPrefetchExpiryMatchesFullSweep(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.L1.SizeBytes = 4 << 10 // small caches keep lines cycling out
	cfg.L2.SizeBytes = 64 << 10
	cfg.MemLatency = 300
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h, err := NewHierarchy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefHierarchy(cfg)
		cycle := int64(0)
		streams := make([]uint64, 6)
		for i := range streams {
			streams[i] = uint64(0x100000 * (i + 1))
		}
		crossed := false
		for step := 0; step < 4000; step++ {
			var addr uint64
			switch r := rng.Intn(10); {
			case r < 6: // sequential streams re-touch prefetched lines
				s := rng.Intn(len(streams))
				addr = streams[s]
				streams[s] += uint64(8 * (1 + rng.Intn(16)))
			case r < 8: // revisit a recent line
				addr = streams[rng.Intn(len(streams))] - uint64(64*rng.Intn(6))
			default: // cold line elsewhere
				addr = 0x4000000 + uint64(rng.Intn(1<<14))*64
			}
			if h.Refuses(cycle, addr) && rng.Intn(2) == 0 {
				// Replay a span of refused polls; the span must end before
				// any MSHR completes, as the core guarantees.
				span := int64(rng.Intn(40))
				if free := h.MSHRFreeAt(); cycle+span >= free {
					span = free - cycle - 1
				}
				n := 1 + rng.Intn(2)
				h.RefusedSpan(cycle, cycle+span, n)
				for c := cycle; c <= cycle+span; c++ {
					for i := 0; i < n; i++ {
						if _, ok := ref.access(c, addr); ok {
							t.Fatalf("seed %d step %d: Refuses(%d, %#x) but the reference access succeeded", seed, step, c, addr)
						}
					}
				}
				cycle += span + 1
			} else {
				got, gok := h.Access(cycle, addr, rng.Intn(4) == 0)
				want, wok := ref.access(cycle, addr)
				if got != want || gok != wok {
					t.Fatalf("seed %d step %d: Access(%d, %#x) = %+v/%v, reference %+v/%v",
						seed, step, cycle, addr, got, gok, want, wok)
				}
			}
			if len(h.prefetches) > 64 {
				crossed = true
			}
			if len(h.prefetches) != len(ref.prefetches) {
				t.Fatalf("seed %d step %d: %d prefetch records, reference %d", seed, step, len(h.prefetches), len(ref.prefetches))
			}
			for line, ready := range ref.prefetches {
				if r, ok := h.prefetches[line]; !ok || r != ready {
					t.Fatalf("seed %d step %d: prefetch record %#x = %d/%v, reference %d", seed, step, line, r, ok, ready)
				}
			}
			if h.Prefetches != ref.prefetchCount || h.MSHRFullEvents != ref.fullEvents || h.l1.Stats() != ref.l1.Stats() {
				t.Fatalf("seed %d step %d: counters diverged: prefetches %d/%d, refused %d/%d",
					seed, step, h.Prefetches, ref.prefetchCount, h.MSHRFullEvents, ref.fullEvents)
			}
			cycle += int64(rng.Intn(12))
			if rng.Intn(50) == 0 {
				cycle += 400
			}
		}
		if !crossed {
			t.Errorf("seed %d: the prefetch table never passed the sweep threshold", seed)
		}
	}
}
