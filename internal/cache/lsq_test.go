package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLSQAllocateRelease(t *testing.T) {
	q := NewLSQ(4)
	for i := int64(0); i < 4; i++ {
		if !q.Allocate(i, i%2 == 0) {
			t.Fatalf("allocation %d refused below capacity", i)
		}
	}
	if q.Allocate(4, false) {
		t.Fatal("allocation above capacity accepted")
	}
	if !q.Full() {
		t.Error("Full() = false at capacity")
	}
	q.Release(0)
	if q.Len() != 3 {
		t.Errorf("Len = %d after release, want 3", q.Len())
	}
	if !q.Allocate(4, false) {
		t.Fatal("allocation refused after release")
	}
}

func TestLSQReleaseOutOfOrderPanics(t *testing.T) {
	q := NewLSQ(4)
	q.Allocate(0, false)
	q.Allocate(1, false)
	defer func() {
		if recover() == nil {
			t.Error("out-of-order release should panic")
		}
	}()
	q.Release(1)
}

func TestLoadBlockedByUnknownStoreAddress(t *testing.T) {
	q := NewLSQ(8)
	q.Allocate(1, true)  // store, address unknown
	q.Allocate(2, false) // load
	q.SetAddress(2, 0x100)
	if got, _ := q.ProbeLoad(2, 0x100); got != LoadBlocked {
		t.Errorf("ProbeLoad = %v, want blocked (older store address unknown)", got)
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	q := NewLSQ(8)
	q.Allocate(1, true)
	q.Allocate(2, false)
	q.SetAddress(1, 0x100)
	if got, _ := q.ProbeLoad(2, 0x100); got != LoadWaitData {
		t.Errorf("ProbeLoad = %v, want wait-data (store data not produced)", got)
	}
	q.SetStoreData(1)
	if got, _ := q.ProbeLoad(2, 0x100); got != LoadForward {
		t.Errorf("ProbeLoad = %v, want forward", got)
	}
	if q.ForwardHits != 1 {
		t.Errorf("ForwardHits = %d, want 1", q.ForwardHits)
	}
}

func TestLoadAccessWhenNoConflict(t *testing.T) {
	q := NewLSQ(8)
	q.Allocate(1, true)
	q.Allocate(2, false)
	q.SetAddress(1, 0x200) // different address
	if got, _ := q.ProbeLoad(2, 0x100); got != LoadAccess {
		t.Errorf("ProbeLoad = %v, want access", got)
	}
}

func TestYoungestOlderStoreWins(t *testing.T) {
	q := NewLSQ(8)
	q.Allocate(1, true)
	q.Allocate(2, true)
	q.Allocate(3, false)
	q.SetAddress(1, 0x100)
	q.SetStoreData(1)
	q.SetAddress(2, 0x100) // younger store, same address, data NOT ready
	if got, _ := q.ProbeLoad(3, 0x100); got != LoadWaitData {
		t.Errorf("ProbeLoad = %v, want wait-data (youngest matching store lacks data)", got)
	}
}

func TestYoungerStoresDoNotAffectLoad(t *testing.T) {
	q := NewLSQ(8)
	q.Allocate(1, false)
	q.Allocate(2, true) // younger than the load
	if got, _ := q.ProbeLoad(1, 0x100); got != LoadAccess {
		t.Errorf("ProbeLoad = %v, want access (younger store is irrelevant)", got)
	}
}

// Property: with all store addresses known and no address match, loads are
// never blocked; with any older unknown-address store, always blocked.
func TestLSQDisambiguationProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%20 + 2
		rng := rand.New(rand.NewSource(seed))
		q := NewLSQ(64)
		anyUnknown := false
		for i := 0; i < n; i++ {
			seq := int64(i)
			if rng.Intn(2) == 0 {
				q.Allocate(seq, true)
				if rng.Intn(4) > 0 {
					q.SetAddress(seq, uint64(0x1000+i*64)) // unique addresses
				} else {
					anyUnknown = true
				}
			} else {
				q.Allocate(seq, false)
			}
		}
		got, _ := q.ProbeLoad(int64(n), 0x9999)
		if anyUnknown {
			return got == LoadBlocked
		}
		return got == LoadAccess
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// refLSQ is a linear-scan load/store queue: the reference the indexed
// probe must agree with.
type refLSQ struct {
	ents     []refLSQEntry
	forwards uint64
}

type refLSQEntry struct {
	seq                int64
	store, known, data bool
	addr               uint64
}

func (r *refLSQ) find(seq int64) *refLSQEntry {
	for i := range r.ents {
		if r.ents[i].seq == seq {
			return &r.ents[i]
		}
	}
	return nil
}

// probe scans every older entry: an unknown-address store blocks, and the
// youngest same-address store forwards or makes the load wait.
func (r *refLSQ) probe(seq int64, addr uint64) (LoadStatus, int64) {
	var match *refLSQEntry
	for i := range r.ents {
		e := &r.ents[i]
		if e.seq >= seq {
			break
		}
		if !e.store {
			continue
		}
		if !e.known {
			return LoadBlocked, e.seq
		}
		if e.addr == addr {
			match = e
		}
	}
	switch {
	case match == nil:
		return LoadAccess, -1
	case match.data:
		r.forwards++
		return LoadForward, -1
	}
	return LoadWaitData, match.seq
}

// TestLSQProbeMatchesLinearScan drives random allocate, address, data,
// release and reset sequences through a small (wrapping) LSQ and requires
// every probe's status, blocking store and forward count to equal the
// linear-scan reference's.
func TestLSQProbeMatchesLinearScan(t *testing.T) {
	addrs := []uint64{0x100, 0x140, 0x180, 0x1c0, 0x200}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := NewLSQ(12)
		ref := &refLSQ{}
		next := int64(0)
		live := func() *refLSQEntry {
			if len(ref.ents) == 0 {
				return nil
			}
			return &ref.ents[rng.Intn(len(ref.ents))]
		}
		for step := 0; step < 1500; step++ {
			switch op := rng.Intn(20); {
			case op < 6:
				store := rng.Intn(2) == 0
				ok := q.Allocate(next, store)
				if ok != (len(ref.ents) < 12) {
					t.Fatalf("seed %d step %d: Allocate = %v with %d live", seed, step, ok, len(ref.ents))
				}
				if ok {
					ref.ents = append(ref.ents, refLSQEntry{seq: next, store: store})
				}
				next += 1 + int64(rng.Intn(3))
			case op < 10:
				if e := live(); e != nil && !e.known {
					e.addr, e.known = addrs[rng.Intn(len(addrs))], true
					q.SetAddress(e.seq, e.addr)
				}
			case op < 12:
				if e := live(); e != nil && e.store && !e.data {
					e.data = true
					q.SetStoreData(e.seq)
				}
			case op < 15:
				if len(ref.ents) > 0 {
					q.Release(ref.ents[0].seq)
					ref.ents = ref.ents[1:]
				}
			case op < 16 && rng.Intn(20) == 0:
				q.Reset()
				ref = &refLSQ{}
			default:
				seq := next
				if e := live(); e != nil && rng.Intn(4) > 0 {
					seq = e.seq
				}
				addr := addrs[rng.Intn(len(addrs))]
				gotSt, gotBy := q.ProbeLoad(seq, addr)
				wantSt, wantBy := ref.probe(seq, addr)
				if gotSt != wantSt || gotBy != wantBy {
					t.Fatalf("seed %d step %d: ProbeLoad(%d, %#x) = %v/%d, reference %v/%d",
						seed, step, seq, addr, gotSt, gotBy, wantSt, wantBy)
				}
			}
			if q.ForwardHits != ref.forwards || q.Len() != len(ref.ents) {
				t.Fatalf("seed %d step %d: ForwardHits %d len %d, reference %d len %d",
					seed, step, q.ForwardHits, q.Len(), ref.forwards, len(ref.ents))
			}
		}
	}
}
