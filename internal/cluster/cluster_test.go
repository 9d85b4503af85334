package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"

	"clustersim/internal/uarch"
)

func TestIQInsertSelect(t *testing.T) {
	q := NewIQ("t", 4, 2)
	if q.Insert(1, 0, 0) == nil { // ready at insert
		t.Fatal("insert refused below capacity")
	}
	q.Insert(2, 0, 1)
	q.Insert(3, 0, 0)
	got := q.SelectReady(0, nil)
	if len(got) != 2 {
		t.Fatalf("selected %d, want 2 (width)", len(got))
	}
	if got[0].Seq != 1 || got[1].Seq != 3 {
		t.Errorf("selected %d,%d — want oldest-first 1,3", got[0].Seq, got[1].Seq)
	}
	if q.Len() != 1 {
		t.Errorf("Len = %d after select, want 1", q.Len())
	}
}

func TestIQWakeup(t *testing.T) {
	q := NewIQ("t", 4, 2)
	e := q.Insert(5, 0, 2)
	if got := q.SelectReady(0, nil); len(got) != 0 {
		t.Fatal("entry with pending operands selected")
	}
	q.OperandReady(e)
	if got := q.SelectReady(0, nil); len(got) != 0 {
		t.Fatal("entry with one pending operand selected")
	}
	q.OperandReady(e)
	got := q.SelectReady(0, nil)
	if len(got) != 1 || got[0].Seq != 5 {
		t.Fatalf("entry not selectable after both wakeups: %v", got)
	}
}

func TestIQCapacity(t *testing.T) {
	q := NewIQ("t", 2, 1)
	q.Insert(1, 0, 0)
	q.Insert(2, 0, 0)
	if q.Insert(3, 0, 0) != nil {
		t.Fatal("insert above capacity accepted")
	}
	if !q.Full() {
		t.Error("Full() = false at capacity")
	}
}

func TestIQAcceptFilter(t *testing.T) {
	q := NewIQ("t", 4, 2)
	q.Insert(1, 0, 0)
	q.Insert(2, 0, 0)
	// Refuse seq 1; seq 2 should still be picked, and seq 1 stays queued.
	got := q.SelectReady(0, func(e *Entry) bool { return e.Seq != 1 })
	if len(got) != 1 || got[0].Seq != 2 {
		t.Fatalf("got %v, want only seq 2", got)
	}
	if q.Len() != 1 {
		t.Errorf("Len = %d, want 1 (seq 1 kept)", q.Len())
	}
}

func TestIQSelectMaxBelowWidth(t *testing.T) {
	q := NewIQ("t", 8, 4)
	for i := int64(0); i < 5; i++ {
		q.Insert(i, 0, 0)
	}
	if got := q.SelectReady(2, nil); len(got) != 2 {
		t.Fatalf("selected %d, want 2", len(got))
	}
}

func TestIQDoubleWakeupPanics(t *testing.T) {
	q := NewIQ("t", 4, 1)
	e := q.Insert(1, 0, 1)
	q.OperandReady(e)
	defer func() {
		if recover() == nil {
			t.Error("a wakeup past the entry's pending operands should panic")
		}
	}()
	q.OperandReady(e)
}

func TestClusterQueueFor(t *testing.T) {
	c := New(0, DefaultConfig())
	cases := []struct {
		class uarch.Class
		want  *IQ
	}{
		{uarch.ClassInt, c.IntQ},
		{uarch.ClassLoad, c.IntQ},
		{uarch.ClassStore, c.IntQ},
		{uarch.ClassBranch, c.IntQ},
		{uarch.ClassFP, c.FPQ},
		{uarch.ClassCopy, c.CopyQ},
	}
	for _, cse := range cases {
		if got := c.QueueFor(cse.class); got != cse.want {
			t.Errorf("QueueFor(%v) = %s, want %s", cse.class, got.Name(), cse.want.Name())
		}
	}
}

func TestRegAllocationAccounting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IntRegs, cfg.FPRegs = 2, 1
	c := New(0, cfg)
	r := uarch.IntReg(0)
	f := uarch.FPReg(0)
	if !c.HasRegFor(r) || !c.HasRegFor(f) {
		t.Fatal("fresh cluster should have free registers")
	}
	c.AllocReg(r)
	c.AllocReg(r)
	if c.HasRegFor(r) {
		t.Error("int regfile should be exhausted")
	}
	if !c.HasRegFor(f) {
		t.Error("fp bank unaffected by int allocation")
	}
	c.FreeReg(r)
	if !c.HasRegFor(r) {
		t.Error("free not visible")
	}
}

func TestRegOverflowPanics(t *testing.T) {
	cfg := DefaultConfig()
	c := New(0, cfg)
	defer func() {
		if recover() == nil {
			t.Error("freeing beyond capacity should panic")
		}
	}()
	c.FreeReg(uarch.IntReg(0))
}

func TestDividerOccupancy(t *testing.T) {
	c := New(0, DefaultConfig())
	if !c.DividerFree(uarch.OpDiv, 0) {
		t.Fatal("divider busy at reset")
	}
	c.ReserveDivider(uarch.OpDiv, 0)
	if c.DividerFree(uarch.OpDiv, 5) {
		t.Error("int divider free mid-operation (latency 20)")
	}
	if !c.DividerFree(uarch.OpFDiv, 5) {
		t.Error("fp divider should be independent")
	}
	if !c.DividerFree(uarch.OpDiv, 20) {
		t.Error("divider should free at cycle 20")
	}
	if !c.DividerFree(uarch.OpAdd, 1) {
		t.Error("pipelined opcodes never blocked")
	}
}

func TestClusterReset(t *testing.T) {
	c := New(0, DefaultConfig())
	c.IntQ.Insert(1, 0, 0)
	c.AllocReg(uarch.IntReg(0))
	c.InFlight = 5
	c.Reset()
	if c.IntQ.Len() != 0 || c.InFlight != 0 {
		t.Error("Reset left state behind")
	}
	if !c.HasRegFor(uarch.IntReg(0)) {
		t.Error("Reset did not restore registers")
	}
}

// Property: selection is always oldest-first and never exceeds width.
func TestIQSelectionOrderProperty(t *testing.T) {
	f := func(seed int64, nRaw, widthRaw uint8) bool {
		n := int(nRaw)%20 + 1
		width := int(widthRaw)%4 + 1
		rng := rand.New(rand.NewSource(seed))
		q := NewIQ("q", 64, width)
		for i := 0; i < n; i++ {
			pending := 0
			if rng.Intn(3) == 0 {
				pending = 1
			}
			q.Insert(int64(i), 0, pending)
		}
		got := q.SelectReady(0, nil)
		if len(got) > width {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].Seq <= got[i-1].Seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: occupancy equals inserts minus selects.
func TestIQOccupancyBalanceProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%30 + 1
		rng := rand.New(rand.NewSource(seed))
		q := NewIQ("q", 128, 2)
		inserted, selected := 0, 0
		for i := 0; i < n; i++ {
			if q.Insert(int64(i), 0, 0) != nil {
				inserted++
			}
			if rng.Intn(2) == 0 {
				selected += len(q.SelectReady(0, nil))
			}
		}
		return q.Len() == inserted-selected
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestIQAuxPayloadPreserved(t *testing.T) {
	q := NewIQ("t", 4, 2)
	q.Insert(1, 7, 0)
	q.Insert(2, 9, 0)
	got := q.SelectReady(0, nil)
	if len(got) != 2 || got[0].Aux != 7 || got[1].Aux != 9 {
		t.Fatalf("aux payloads lost: %+v", got)
	}
}

func TestIQIssuedCounter(t *testing.T) {
	q := NewIQ("t", 4, 2)
	q.Insert(1, 0, 0)
	q.Insert(2, 0, 0)
	q.SelectReady(0, nil)
	if q.Issued != 2 {
		t.Errorf("Issued = %d, want 2", q.Issued)
	}
	q.Reset()
	if q.Issued != 0 {
		t.Error("Reset did not clear Issued")
	}
}

// Out-of-order wakeups must still surface entries oldest-first: a younger
// entry waking before an older one cannot jump the selection order.
func TestIQWakeupOrderIndependence(t *testing.T) {
	q := NewIQ("t", 8, 4)
	oldest := q.Insert(10, 0, 1)
	mid := q.Insert(11, 0, 1)
	youngest := q.Insert(12, 0, 1)
	// Wake youngest-first.
	q.OperandReady(youngest)
	q.OperandReady(mid)
	q.OperandReady(oldest)
	got := q.SelectReady(0, nil)
	if len(got) != 3 || got[0].Seq != 10 || got[1].Seq != 11 || got[2].Seq != 12 {
		t.Fatalf("selection order %v, want oldest-first 10,11,12", got)
	}
}

// An entry refused by the accept filter stays on the ready list and is
// re-offered, still in age position, on the next select.
func TestIQRefusedEntryStaysReady(t *testing.T) {
	q := NewIQ("t", 8, 4)
	q.Insert(1, 0, 0)
	q.Insert(2, 0, 0)
	got := q.SelectReady(0, func(e *Entry) bool { return e.Seq != 1 })
	if len(got) != 1 || got[0].Seq != 2 {
		t.Fatalf("got %v, want only seq 2", got)
	}
	got = q.SelectReady(0, nil)
	if len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("refused entry not re-offered: %v", got)
	}
}

// Property: interleaved inserts, out-of-order wakeups and selects always
// pick ready entries oldest-first (insertion order), mirroring what a full
// age-list scan would produce.
func TestIQReadyListMatchesScanProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%40 + 5
		rng := rand.New(rand.NewSource(seed))
		q := NewIQ("q", 64, 3)
		type slot struct {
			e    *Entry
			woke bool
		}
		var pendingSlots []slot
		var order []int64 // insertion order of currently-queued entries
		picked := map[int64]bool{}
		for i := 0; i < n; i++ {
			switch rng.Intn(3) {
			case 0: // insert, sometimes with a dependency
				seq := int64(i)
				if rng.Intn(2) == 0 {
					pendingSlots = append(pendingSlots, slot{e: q.Insert(seq, 0, 1)})
				} else {
					q.Insert(seq, 0, 0)
				}
				order = append(order, seq)
			case 1: // wake a random still-pending entry
				if len(pendingSlots) > 0 {
					j := rng.Intn(len(pendingSlots))
					if !pendingSlots[j].woke {
						q.OperandReady(pendingSlots[j].e)
						pendingSlots[j].woke = true
					}
				}
			case 2:
				for _, e := range q.SelectReady(0, nil) {
					picked[e.Seq] = true
				}
			}
		}
		// Drain: wake everything, then selection order must equal the
		// insertion order of whatever is still queued.
		for _, s := range pendingSlots {
			if !s.woke {
				q.OperandReady(s.e)
			}
		}
		var want []int64
		for _, seq := range order {
			if !picked[seq] {
				want = append(want, seq)
			}
		}
		for len(want) > 0 {
			got := q.SelectReady(0, nil)
			if len(got) == 0 {
				return false
			}
			for _, e := range got {
				if len(want) == 0 || e.Seq != want[0] {
					return false
				}
				want = want[1:]
			}
		}
		return q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Steady-state insert/wakeup/select cycles must not allocate, including
// the no-ready-work early-out path.
func TestIQSteadyStateAllocFree(t *testing.T) {
	q := NewIQ("t", 32, 4)
	var waiting [8]*Entry
	allocs := testing.AllocsPerRun(200, func() {
		for i := range waiting {
			waiting[i] = q.Insert(int64(i), 0, 1)
		}
		q.SelectReady(0, nil) // nothing ready: early-out
		for _, e := range waiting {
			q.OperandReady(e)
		}
		for q.Len() > 0 {
			q.SelectReady(0, nil)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state cycle allocates %v times per run", allocs)
	}
	q.Reset()
	allocs = testing.AllocsPerRun(50, func() { q.Reset() })
	if allocs > 0 {
		t.Errorf("Reset allocates %v times per run", allocs)
	}
}

func TestOccupancySumsQueues(t *testing.T) {
	c := New(0, DefaultConfig())
	c.IntQ.Insert(1, 0, 0)
	c.FPQ.Insert(2, 0, 0)
	c.CopyQ.Insert(3, 0, 0)
	if got := c.Occupancy(); got != 3 {
		t.Errorf("Occupancy = %d, want 3", got)
	}
}
