package pipeline

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"clustersim/internal/prog"
	"clustersim/internal/steer"
	"clustersim/internal/trace"
	"clustersim/internal/uarch"
)

// handTrace builds a trace from static ops with explicit addresses.
func handTrace(ops []prog.StaticOp, addrs []uint64) *trace.Trace {
	tr := &trace.Trace{Name: "hand"}
	for i := range ops {
		tr.Uops = append(tr.Uops, trace.Uop{Static: &ops[i], PC: uint32(i), Addr: addrs[i]})
	}
	return tr
}

// assertNothingParked checks the parking invariant at the end of a run:
// no op parked, no park group scheduled or in use, no MSHR wait list.
func assertNothingParked(t *testing.T, label string, c *Core) {
	t.Helper()
	if c.parked != [numParkKinds]int{} {
		t.Errorf("%s: ops left parked: %s", label, c.describeParked())
	}
	if len(c.mshrParked) != 0 {
		t.Errorf("%s: %d loads left on the MSHR wait list", label, len(c.mshrParked))
	}
	if len(c.freeGroups) != len(c.groups) {
		t.Errorf("%s: %d of %d park groups still in use", label, len(c.groups)-len(c.freeGroups), len(c.groups))
	}
	for _, slot := range c.wheel {
		for _, ev := range slot {
			if ev.kind == evParked {
				t.Fatalf("%s: park group event left in the wheel", label)
			}
		}
	}
	for i := range c.uops {
		if st := &c.uops[i]; st.park != parkNone || st.waiters != 0 {
			t.Fatalf("%s: seq %d left parked (kind %d) or with waiters", label, st.seq, st.park)
		}
	}
}

func TestNoOpLeftParkedAfterRun(t *testing.T) {
	traces := suiteTraces(t, 3000)
	for cname, cfg := range memStressConfigs() {
		for name, tr := range traces {
			for _, pol := range []steer.Policy{&steer.OP{}, steer.NewVC(2), &steer.ModN{}} {
				core, err := NewCore(cfg, pol, tr)
				if err != nil {
					t.Fatal(err)
				}
				label := cname + "/" + name + "/" + pol.Name()
				if _, err := core.Run(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertNothingParked(t, label, core)
			}
		}
	}
}

// TestFastForwardMatchesCycleByCycle requires runs that fast-forward idle
// cycles to produce byte-identical metrics and steering counters to the
// cycle-by-cycle reference: on the memory-stress machines, with a cancel
// channel set so skips also stop at every cancel check, and on seeded
// random machines under every policy family.
func TestFastForwardMatchesCycleByCycle(t *testing.T) {
	if testing.Short() {
		t.Skip("memory-stress sweep")
	}
	traces := suiteTraces(t, 5000)
	encode := func(cfg Config, tr *trace.Trace, pol steer.Policy) ([]byte, int64) {
		enc, core := runEncoded(t, cfg, tr, pol)
		return enc, core.evStats.skipped
	}
	defer func() { fastForward = true }()
	var skipped int64
	for cname, cfg := range memStressConfigs() {
		for _, name := range memStressNames {
			for _, pol := range []func() steer.Policy{
				func() steer.Policy { return &steer.OP{} },
				func() steer.Policy { return steer.NewVC(2) },
			} {
				fastForward = false
				want, _ := encode(cfg, traces[name], pol())
				fastForward = true
				withCancel := cfg
				withCancel.Cancel = make(chan struct{})
				got, n := encode(withCancel, traces[name], pol())
				skipped += n
				if !bytes.Equal(got, want) {
					t.Errorf("%s/%s/%s: fast-forwarded run differs from the cycle-by-cycle one",
						cname, name, pol().Name())
				}
			}
		}
	}
	// Seeded random machines widen the net: queue, register and window
	// sizes, frontend depth, link and memory latencies, port and MSHR
	// counts, and every steering policy family.
	policies := []func() steer.Policy{
		func() steer.Policy { return &steer.OP{} },
		func() steer.Policy { return &steer.OP{NoStall: true} },
		func() steer.Policy { return steer.NewVC(2) },
		func() steer.Policy { return &steer.ModN{} },
		func() steer.Policy { return &steer.LeastLoaded{} },
		func() steer.Policy { return &steer.DependenceBalanced{} },
		func() steer.Policy { return &steer.Slice{} },
		func() steer.Policy { return &steer.OneCluster{} },
	}
	names := make([]string, 0, len(traces))
	for name := range traces {
		names = append(names, name)
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(1))
	pick := func(vals ...int) int { return vals[rng.Intn(len(vals))] }
	for i := 0; i < 25; i++ {
		cfg := DefaultConfig(pick(1, 2, 4))
		cfg.ROBSize, cfg.LSQSize = pick(32, 128, 512), pick(4, 32, 256)
		cfg.Cluster.IQInt, cfg.Cluster.IQFP, cfg.Cluster.IQCopy = pick(4, 48), pick(4, 48), pick(2, 24)
		cfg.Cluster.IntRegs, cfg.Cluster.FPRegs = pick(48, 256), pick(48, 256)
		cfg.FetchToDispatch, cfg.Net.Latency = pick(1, 3, 5), pick(1, 2, 4)
		cfg.Mem.L1.ReadPorts, cfg.Mem.L1.WritePorts = pick(0, 1, 2), pick(0, 1)
		cfg.Mem.MSHRs, cfg.Mem.PrefetchDegree = pick(1, 2, 16), pick(0, 1, 4)
		cfg.Mem.MemLatency = pick(50, 500, 2000)
		cfg.TrackHistograms, cfg.WarmupUops = pick(0, 1) == 1, int64(pick(0, 500))
		name, pol := names[rng.Intn(len(names))], policies[rng.Intn(len(policies))]
		fastForward = false
		want, _ := encode(cfg, traces[name], pol())
		fastForward = true
		got, n := encode(cfg, traces[name], pol())
		skipped += n
		if !bytes.Equal(got, want) {
			t.Errorf("random machine %d (%s, %s, %+v): fast-forwarded run differs from the cycle-by-cycle one",
				i, name, pol().Name(), cfg)
		}
	}
	if skipped == 0 {
		t.Error("no idle cycle was fast-forwarded")
	}
}

// TestStoreDataArrivesByCopy parks a store whose data is produced in
// another cluster and arrives by an inter-cluster copy. The producer's
// completion in its home cluster must not complete the store; the copy's
// arrival wakes it, and the store completes in the cycle its poll would have
// seen the data: the arrival cycle itself when the copy's event precedes
// the park group in that cycle's drain (link latency 2), the next cycle
// when the group was re-appended first (latency 1, the copy being
// scheduled by the issue stage after the drain).
func TestStoreDataArrivesByCopy(t *testing.T) {
	for _, lat := range []int{1, 2} {
		ops := []prog.StaticOp{
			{Opcode: uarch.OpDiv, Dst: uarch.IntReg(1), Src1: uarch.IntReg(2), Src2: uarch.IntReg(3)},
			{Opcode: uarch.OpStore, Dst: uarch.RegNone, Src1: uarch.IntReg(1), Src2: uarch.IntReg(15)},
		}
		tr := handTrace(ops, []uint64{0, 0x4000})
		cfg := DefaultConfig(2)
		cfg.Net.Latency = lat
		core, err := NewCore(cfg, &steer.ModN{}, tr)
		if err != nil {
			t.Fatal(err)
		}
		const producer, store = 0, 1
		parked := false
		arrived, done := int64(-1), int64(-1)
		for core.cycle < 200 && done < 0 {
			core.step()
			st := core.uop(store)
			if v := core.value(producer); st != nil && v != nil {
				if st.cluster == v.home {
					t.Fatalf("latency %d: store and producer share cluster %d", lat, st.cluster)
				}
				if st.park == parkStoreData {
					parked = true
				}
				if arrived < 0 && v.readyMask&(1<<uint(st.cluster)) != 0 {
					arrived = core.cycle
				}
				if st.completed && arrived < 0 {
					t.Fatalf("latency %d: store completed at %d on home-cluster readiness, before its copy arrived", lat, core.cycle)
				}
				if st.completed {
					done = core.cycle
					if v.waiters != 0 {
						t.Errorf("latency %d: completed store still linked on the value", lat)
					}
				}
			}
			core.cycle++
		}
		if !parked || arrived < 0 || done < 0 {
			t.Fatalf("latency %d: parked=%v arrived=%d done=%d", lat, parked, arrived, done)
		}
		want := arrived
		if lat == 1 {
			want = arrived + 1
		}
		if done != want {
			t.Errorf("latency %d: copy arrived at %d, store completed at %d, want %d", lat, arrived, done, want)
		}
	}
}

// TestMSHRFullLoadWokenByPrefetch parks a load refused for the only MSHR
// and wakes it with a hierarchy change: a later load touches a line the
// prefetcher brought in, which re-arms the stream onto the parked load's
// line. The parked load must merge onto that prefetch while the MSHR is
// still busy, not wait for the MSHR and then miss to memory itself.
func TestMSHRFullLoadWokenByPrefetch(t *testing.T) {
	const x = 0x100000
	ops := []prog.StaticOp{
		{Opcode: uarch.OpLoad, Dst: uarch.IntReg(1), Src1: uarch.IntReg(15), Src2: uarch.RegNone},
		{Opcode: uarch.OpLoad, Dst: uarch.IntReg(2), Src1: uarch.IntReg(15), Src2: uarch.RegNone},
		{Opcode: uarch.OpLoad, Dst: uarch.IntReg(3), Src1: uarch.IntReg(15), Src2: uarch.RegNone},
	}
	tr := handTrace(ops, []uint64{x, x + 128, x + 64})
	cfg := DefaultConfig(2)
	cfg.Mem.MSHRs, cfg.Mem.PrefetchDegree = 1, 1
	core, err := NewCore(cfg, &steer.OneCluster{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	const blocked = 1
	parkedMSHR := false
	wokenAt, done := int64(-1), int64(-1)
	for core.cycle < 5000 && done < 0 {
		core.step()
		if st := core.uop(blocked); st != nil {
			switch {
			case st.park == parkMSHR:
				parkedMSHR = true
			case parkedMSHR && wokenAt < 0 && st.park == parkNone:
				wokenAt = core.cycle
				if free := core.mem.MSHRFreeAt(); free <= core.cycle {
					t.Fatalf("load left the MSHR wait at %d, but the MSHR freed at %d: woken by time, not by the prefetch", core.cycle, free)
				}
			}
			if st.completed {
				done = core.cycle
			}
		}
		core.cycle++
	}
	if !parkedMSHR || wokenAt < 0 || done < 0 {
		t.Fatalf("parked=%v woken=%d done=%d", parkedMSHR, wokenAt, done)
	}
	memTrip := int64(cfg.Mem.L2.HitLatency + cfg.Mem.MemLatency)
	if done > wokenAt+memTrip+int64(cfg.Mem.L1.HitLatency) {
		t.Errorf("woken load completed at %d, beyond one memory trip from %d", done, wokenAt)
	}
	if got := core.mem.MemAccesses; got != 1 {
		t.Errorf("demand memory accesses = %d, want 1 (the woken load merges onto the prefetch)", got)
	}
}

// TestDeadlockErrorNamesParked wedges the ROB head on a load slower than
// the no-commit watchdog and checks the error names the ops parked behind
// it by kind: a store waiting for the load's value, a load waiting for the
// store's data, and a load refused for the only MSHR. The same wedge under
// a MaxCycles cap below the watchdog aborts instead. Either way the
// fast-forwarded run must stop at the same cycle, with the same error and
// metrics, as the cycle-by-cycle one.
func TestDeadlockErrorNamesParked(t *testing.T) {
	ops := []prog.StaticOp{
		{Opcode: uarch.OpLoad, Dst: uarch.IntReg(1), Src1: uarch.IntReg(15), Src2: uarch.RegNone},
		{Opcode: uarch.OpStore, Dst: uarch.RegNone, Src1: uarch.IntReg(1), Src2: uarch.IntReg(15)},
		{Opcode: uarch.OpLoad, Dst: uarch.IntReg(4), Src1: uarch.IntReg(15), Src2: uarch.RegNone},
		{Opcode: uarch.OpLoad, Dst: uarch.IntReg(5), Src1: uarch.IntReg(15), Src2: uarch.RegNone},
	}
	tr := handTrace(ops, []uint64{0x100000, 0x800000, 0x800000, 0x2000000})
	run := func(maxCycles int64) (*Metrics, *Core, error) {
		cfg := DefaultConfig(2)
		cfg.Mem.MSHRs, cfg.Mem.MemLatency = 1, 600_000
		cfg.MaxCycles = maxCycles
		cfg.TrackHistograms = true
		core, err := NewCore(cfg, &steer.OneCluster{}, tr)
		if err != nil {
			t.Fatal(err)
		}
		m, err := core.Run()
		if err == nil {
			t.Fatalf("MaxCycles %d: run with a 600k-cycle load finished", maxCycles)
		}
		return m, core, err
	}
	defer func() { fastForward = true }()
	for _, maxCycles := range []int64{0, 300_000} {
		fastForward = true
		m, core, err := run(maxCycles)
		if maxCycles == 0 {
			if want := "parked: store-data=1 lsq=1 mshr=1 port=0"; !strings.Contains(err.Error(), want) {
				t.Errorf("deadlock error %q does not name %q", err, want)
			}
		} else if !m.MaxCyclesExceeded {
			t.Errorf("MaxCycles %d: run stopped without MaxCyclesExceeded: %v", maxCycles, err)
		}
		if core.evStats.skipped == 0 {
			t.Errorf("MaxCycles %d: the wedged run fast-forwarded no idle cycle", maxCycles)
		}
		fastForward = false
		refM, _, refErr := run(maxCycles)
		if err.Error() != refErr.Error() {
			t.Errorf("MaxCycles %d: fast-forwarded error %q, cycle-by-cycle %q", maxCycles, err, refErr)
		}
		var a, b bytes.Buffer
		if gob.NewEncoder(&a).Encode(m) != nil || gob.NewEncoder(&b).Encode(refM) != nil {
			t.Fatal("encoding metrics")
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("MaxCycles %d: metrics differ from the cycle-by-cycle run", maxCycles)
		}
	}
}

// cancelAfter closes a cancel channel on its policy's n-th steering call.
type cancelAfter struct {
	steer.Policy
	n    int
	done chan struct{}
}

func (p *cancelAfter) Steer(ctx steer.Context, u *trace.Uop) steer.Decision {
	if p.n--; p.n == 0 {
		close(p.done)
	}
	return p.Policy.Steer(ctx, u)
}

// TestCancelStopsAtSameCycle cancels memory-bound runs part-way through:
// Run notices cancellation only at its periodic check, so a fast-forward
// that skipped over a check cycle would stop later than the cycle-by-cycle
// run. Both must stop at the same cycle.
func TestCancelStopsAtSameCycle(t *testing.T) {
	traces := suiteTraces(t, 6000)
	stopAt := func(name string, calls int) int64 {
		done := make(chan struct{})
		cfg := DefaultConfig(2)
		cfg.Cancel = done
		core, err := NewCore(cfg, &cancelAfter{Policy: &steer.OP{}, n: calls, done: done}, traces[name])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.Run(); err != ErrCanceled {
			t.Fatalf("%s: Run = %v, want ErrCanceled", name, err)
		}
		return core.cycle
	}
	defer func() { fastForward = true }()
	for _, name := range []string{"gcc-1", "mcf", "ammp"} {
		for _, calls := range []int{500, 2000, 4000} {
			fastForward = true
			got := stopAt(name, calls)
			fastForward = false
			if want := stopAt(name, calls); got != want {
				t.Errorf("%s, cancel after %d steers: fast-forwarded run stopped at cycle %d, cycle-by-cycle at %d",
					name, calls, got, want)
			}
		}
	}
}
