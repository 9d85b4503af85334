package pipeline

import (
	"errors"
	"fmt"

	"clustersim/internal/cache"
	"clustersim/internal/cluster"
	"clustersim/internal/steer"
	"clustersim/internal/uarch"
)

// ErrCanceled is returned by Run when Config.Cancel fires mid-simulation.
var ErrCanceled = errors.New("pipeline: run canceled")

// Run simulates the whole trace and returns the metrics. The per-cycle
// stage order is: commit (sees last cycle's completions), writeback events
// (complete execution, deliver copies, wake consumers), issue, steer +
// dispatch, fetch. This ordering gives back-to-back issue of single-cycle
// dependence chains and a one-cycle dispatch-to-issue gap. Runs of cycles
// that provably change nothing but per-cycle counters are fast-forwarded
// (idleSpan, skipIdle) with the same result as stepping through them.
//
// The returned Metrics is detached from the core: it stays valid (and
// immutable) after the core is Reset for its next pooled run, so result
// caches may retain it indefinitely.
func (c *Core) Run() (*Metrics, error) {
	total := int64(len(c.tr.Uops))
	lastCommit := int64(0)
	lastCommitted := int64(0)
	var warmup *Metrics
	for c.committed < total {
		if c.cfg.Cancel != nil && c.cycle&0xfff == 0 {
			select {
			case <-c.cfg.Cancel:
				return c.detachMetrics(), ErrCanceled
			default:
			}
		}
		if c.cycle >= c.cfg.MaxCycles {
			c.m.MaxCyclesExceeded = true
			return c.detachMetrics(), fmt.Errorf("pipeline: exceeded %d cycles at %d/%d uops",
				c.cfg.MaxCycles, c.committed, total)
		}
		c.step()

		if c.committed > lastCommitted {
			lastCommitted = c.committed
			lastCommit = c.cycle
		} else if c.cycle-lastCommit > 500_000 {
			return c.detachMetrics(), fmt.Errorf("pipeline: no commit for 500000 cycles at cycle %d (%d/%d uops); head=%s; %s",
				c.cycle, c.committed, total, c.describeHead(), c.describeParked())
		}
		if warmup == nil && c.cfg.WarmupUops > 0 && c.committed >= c.cfg.WarmupUops {
			snap := c.captureCounters()
			warmup = &snap
		}
		if fastForward && c.committed < total {
			if span := c.idleSpan(lastCommit); span > 0 {
				c.skipIdle(span)
			}
		}
		c.cycle++
	}
	final := c.captureCounters()
	if warmup != nil {
		final = subtractCounters(final, *warmup)
	}
	final.PerCluster = c.m.PerCluster
	final.MaxCyclesExceeded = c.m.MaxCyclesExceeded
	c.m = final
	return c.detachMetrics(), nil
}

// step runs one cycle's stages, in order.
func (c *Core) step() {
	c.commit()
	c.processEvents()
	c.issue()
	c.dispatchStage()
	c.fetch()
	c.accountOccupancy(1)
}

// detachMetrics copies the accumulated metrics off the core's reusable
// state: the copy and its PerCluster slice are freshly allocated, so a
// caller (or result cache) can retain them across a pooled Reset. The
// histograms pointer transfers as-is — Reset allocates fresh histograms
// rather than reusing them.
func (c *Core) detachMetrics() *Metrics {
	m := c.m
	m.PerCluster = append([]ClusterMetrics(nil), c.m.PerCluster...)
	return &m
}

// captureCounters snapshots every cumulative counter into a Metrics value
// (PerCluster excluded; it stays cumulative).
func (c *Core) captureCounters() Metrics {
	m := c.m
	m.Cycles = c.cycle
	m.Uops = c.committed
	m.LinkTransfers = c.net.Transfers
	m.LinkConflicts = c.net.Conflicts
	m.L1Hits = c.mem.L1Hits
	m.L2Hits = c.mem.L2Hits
	m.MemAccesses = c.mem.MemAccesses
	m.LSQForwards = c.lsq.ForwardHits
	m.PerCluster = nil
	return m
}

// subtractCounters returns a−b field-wise for the cumulative counters,
// yielding post-warmup metrics.
func subtractCounters(a, b Metrics) Metrics {
	out := a
	out.Cycles = a.Cycles - b.Cycles
	out.Uops = a.Uops - b.Uops
	out.Copies = a.Copies - b.Copies
	out.AllocStallCycles = a.AllocStallCycles - b.AllocStallCycles
	for i := range out.StallCycles {
		out.StallCycles[i] = a.StallCycles[i] - b.StallCycles[i]
	}
	out.FetchStallCycles = a.FetchStallCycles - b.FetchStallCycles
	out.Branches = a.Branches - b.Branches
	out.Mispredicts = a.Mispredicts - b.Mispredicts
	out.LinkTransfers = a.LinkTransfers - b.LinkTransfers
	out.LinkConflicts = a.LinkConflicts - b.LinkConflicts
	out.L1Hits = a.L1Hits - b.L1Hits
	out.L2Hits = a.L2Hits - b.L2Hits
	out.MemAccesses = a.MemAccesses - b.MemAccesses
	out.LSQForwards = a.LSQForwards - b.LSQForwards
	return out
}

// describeHead renders the ROB head for deadlock diagnostics.
func (c *Core) describeHead() string {
	if c.robLen == 0 {
		return "empty ROB"
	}
	st := c.robHeadState()
	return fmt.Sprintf("seq=%d op=%v cluster=%d completed=%v",
		st.seq, st.u.Static.Opcode, st.cluster, st.completed)
}

// schedule enqueues an event for the given cycle: into the wheel when the
// cycle is within the horizon, into the far-future overflow bucket
// otherwise. Events within one cycle drain in insertion order, and all
// overflow insertions for a cycle necessarily predate all wheel insertions
// for it (they were scheduled at least a horizon earlier), so draining
// overflow first preserves the exact order a single per-cycle list had.
func (c *Core) schedule(cycle int64, ev event) {
	c.evStats.scheduled++
	d := cycle - c.cycle
	if d <= 0 {
		// An event due the current cycle arrives after this cycle's drain
		// already ran (only possible with zero-latency configurations); the
		// old per-cycle map never processed such events either.
		return
	}
	if d > c.wheelMask {
		if c.evOverflow == nil {
			c.evOverflow = make(map[int64][]event)
		}
		c.evOverflow[cycle] = append(c.evOverflow[cycle], ev)
		c.evOverflowLen++
		c.evStats.overflowed++
		return
	}
	idx := cycle & c.wheelMask
	c.wheel[idx] = append(c.wheel[idx], ev)
}

// --- commit ----------------------------------------------------------------

func (c *Core) commit() {
	budget := c.cfg.CommitWidth
	for budget > 0 && c.robLen > 0 {
		st := c.robHeadState()
		if !st.completed {
			return
		}
		if st.u.Static.Opcode == uarch.OpStore {
			// Stores write the cache at retirement through the single L1
			// write port; port or MSHR pressure stalls commit.
			if !c.mem.L1().ReservePort(c.cycle, true) {
				return
			}
			if _, ok := c.access(st.u.Addr, true); !ok {
				return
			}
		}
		if st.u.IsMem() {
			c.lsq.Release(st.seq)
		}
		if st.u.Static.Dst != uarch.RegNone {
			c.freeValue(st.prevValue)
		}
		c.clusters[st.cluster].InFlight--
		st.live = false
		c.robHead++
		c.robLen--
		c.committed++
		budget--
	}
}

// --- events (writeback / copy delivery / memory progress) -------------------

func (c *Core) processEvents() {
	if len(c.mshrParked) > 0 && c.cycle >= c.mem.MSHRFreeAt() {
		c.wakeMSHRParked()
	}
	if c.evOverflowLen > 0 {
		if over, ok := c.evOverflow[c.cycle]; ok {
			delete(c.evOverflow, c.cycle)
			c.evOverflowLen -= len(over)
			for i := range over {
				c.handleEvent(over[i])
			}
		}
	}
	idx := c.cycle & c.wheelMask
	evs := c.wheel[idx]
	if len(evs) == 0 {
		return
	}
	// Detach the slot while draining. In-window schedules during the drain
	// always land in other slots (a same-slot target would be exactly one
	// horizon ahead, which goes to overflow), so the backing array can be
	// put straight back for reuse.
	c.wheel[idx] = nil
	for i := range evs {
		c.handleEvent(evs[i])
	}
	c.wheel[idx] = evs[:0]
}

// handleEvent dispatches one drained event to its handler.
func (c *Core) handleEvent(ev event) {
	switch ev.kind {
	case evComplete:
		c.finish(ev.seq)
	case evAgen:
		c.agen(ev.seq)
	case evParked:
		c.drainGroup(int32(ev.aux))
	case evCopyArrive:
		c.valueReadyIn(ev.seq, ev.aux)
		if c.copyInserted != nil {
			key := copyKey{ev.seq, ev.aux}
			if t0, ok := c.copyInserted[key]; ok {
				c.m.Histograms.CopyLatency.Observe(c.cycle - t0)
				delete(c.copyInserted, key)
			}
		}
	}
}

// storeDataCheck completes a store once its data operand is readable in its
// cluster (the store-data half of the split store; the address half already
// ran). Until then the store parks on the value, and valueReadyIn wakes it.
func (c *Core) storeDataCheck(st *uopState) {
	if st.completed {
		return
	}
	if c.valueIsReadyIn(st.srcValues[0], st.cluster) {
		c.lsq.SetStoreData(st.seq)
		c.wakeWaiters(st)
		c.finish(st.seq)
		return
	}
	v := c.value(st.srcValues[0])
	st.waitNext = v.waiters
	v.waiters = st.seq + 1
	c.park(st, parkStoreData)
}

// finish completes execution of a micro-op.
func (c *Core) finish(seq int64) {
	st := c.uop(seq)
	if st == nil || st.completed {
		return
	}
	st.completed = true
	if st.u.Static.Dst != uarch.RegNone {
		v := c.value(seq)
		v.produced = true
		c.valueReadyIn(seq, st.cluster)
	}
	if st.mispredicted {
		// Branch resolved: release the frontend. The refill cost is the
		// fetch-to-dispatch depth of newly fetched micro-ops.
		c.fetchStalled = false
	}
}

// agen finishes address generation for a memory op.
func (c *Core) agen(seq int64) {
	st := c.uop(seq)
	if st == nil {
		return
	}
	c.lsq.SetAddress(seq, st.u.Addr)
	if st.u.Static.Opcode == uarch.OpStore {
		c.wakeWaiters(st)
		c.storeDataCheck(st)
		return
	}
	c.memTry(st)
}

// memTry advances a load through disambiguation and the cache. A load the
// LSQ holds back parks on the store it waits for; a load refused for a
// full MSHR file parks until a hierarchy change or an MSHR completes; a
// load refused a read port parks until a port is free at its position.
func (c *Core) memTry(st *uopState) {
	if st.completed {
		return
	}
	switch status, blocker := c.lsq.ProbeLoad(st.seq, st.u.Addr); status {
	case cache.LoadBlocked, cache.LoadWaitData:
		s := c.uop(blocker)
		st.waitNext = s.waiters
		s.waiters = st.seq + 1
		c.park(st, parkLSQ)
	case cache.LoadForward:
		c.schedule(c.cycle+1, event{evComplete, st.seq, 0})
	case cache.LoadAccess:
		if !c.mem.L1().ReservePort(c.cycle, false) {
			c.park(st, parkPort)
			return
		}
		res, ok := c.access(st.u.Addr, false)
		if !ok {
			c.mshrParked = append(c.mshrParked, st.seq)
			c.park(st, parkMSHR)
			return
		}
		c.schedule(res.Ready, event{evComplete, st.seq, 0})
	}
}

// access performs a hierarchy access for the current cycle and wakes the
// loads parked on a full MSHR file when it changed the hierarchy.
func (c *Core) access(addr uint64, write bool) (cache.AccessResult, bool) {
	res, ok := c.mem.Access(c.cycle, addr, write)
	if c.mem.Gen != c.memGen {
		c.memGen = c.mem.Gen
		c.wakeMSHRParked()
	}
	return res, ok
}

// --- issue -------------------------------------------------------------------

func (c *Core) issue() {
	for _, cl := range c.clusters {
		cl := cl
		for _, q := range [2]*cluster.IQ{cl.IntQ, cl.FPQ} {
			picked := q.SelectReady(0, func(e *cluster.Entry) bool {
				st := c.uop(e.Seq)
				return cl.DividerFree(st.u.Static.Opcode, c.cycle)
			})
			for _, e := range picked {
				c.startExec(c.uop(e.Seq), cl)
			}
		}
		// Copies: one per cycle, gated on link bandwidth. The reservation
		// happens inside accept so refused copies stay queued.
		cl.CopyQ.SelectReady(0, func(e *cluster.Entry) bool {
			arr, ok := c.net.Reserve(c.cycle, cl.ID, e.Aux)
			if !ok {
				return false
			}
			c.schedule(arr, event{evCopyArrive, e.Seq, e.Aux})
			return true
		})
	}
}

// startExec schedules the completion of an issued micro-op.
func (c *Core) startExec(st *uopState, cl *cluster.Cluster) {
	op := st.u.Static.Opcode
	cl.ReserveDivider(op, c.cycle)
	switch {
	case op.IsMem():
		c.schedule(c.cycle+int64(op.Latency()), event{evAgen, st.seq, 0})
	default:
		c.schedule(c.cycle+int64(op.Latency()), event{evComplete, st.seq, 0})
	}
}

// --- steer + dispatch --------------------------------------------------------

func (c *Core) dispatchStage() {
	budget := c.cfg.SteerWidth
	reason := StallNone
	for budget > 0 && c.fetchLen > 0 {
		slot := &c.fetchPipe[c.fetchHead&c.fetchMask]
		if slot.readyAt > c.cycle {
			break
		}
		if !slot.steered {
			d := c.policy.Steer(steerCtx{c}, slot.u)
			if d.Stall {
				reason = StallPolicy
				break
			}
			c.steered(slot, d)
		}
		if r := c.tryDispatch(slot); r != StallNone {
			reason = r
			break
		}
		c.fetchHead++
		c.fetchLen--
		budget--
	}
	c.lastStall = reason
	if reason != StallNone {
		c.m.StallCycles[reason]++
		if reason == StallPolicy || reason == StallIQ {
			c.m.AllocStallCycles++
		}
	}
}

// tryDispatch allocates all resources for the steered micro-op, or reports
// the first missing resource without side effects.
func (c *Core) tryDispatch(slot *fetchSlot) StallReason {
	u := slot.u
	ci := slot.cluster
	cl := c.clusters[ci]
	class := u.Static.Opcode.Class()

	if c.robLen >= c.cfg.ROBSize {
		return StallROB
	}
	if cl.QueueFor(class).Full() {
		return StallIQ
	}
	if u.IsMem() && c.lsq.Full() {
		return StallLSQ
	}

	// Plan operand copies: a source value not present (nor en route) in the
	// target cluster needs an explicit copy micro-op in its home cluster.
	copies := c.planCopies[:0]
	needRegInt, needRegFP := 0, 0
	if u.Static.Dst != uarch.RegNone {
		if u.Static.Dst.IsFP() {
			needRegFP++
		} else {
			needRegInt++
		}
	}
	srcs := [2]uarch.Reg{u.Static.Src1, u.Static.Src2}
	var vseqs [2]int64
	for i, src := range srcs {
		vseqs[i] = initialValue
		if src == uarch.RegNone {
			continue
		}
		vseq := c.regVal[src]
		vseqs[i] = vseq
		if vseq == initialValue {
			continue
		}
		v := c.value(vseq)
		if v == nil {
			continue
		}
		bit := uint32(1) << uint(ci)
		if v.locMask&bit == 0 {
			dup := false
			for _, pc := range copies {
				if pc.vseq == vseq {
					dup = true
					break
				}
			}
			if !dup {
				home := c.clusters[v.home]
				// Each planned copy needs a copy-queue slot in the home
				// cluster and a register in the target cluster.
				pendingToHome := 0
				for _, pc := range copies {
					if pc.home == v.home {
						pendingToHome++
					}
				}
				if home.CopyQ.Len()+pendingToHome >= home.CopyQ.Cap() {
					c.planCopies = copies[:0]
					return StallCopyQ
				}
				copies = append(copies, plannedCopy{vseq, v.home, src})
				if src.IsFP() {
					needRegFP++
				} else {
					needRegInt++
				}
			}
		}
	}
	c.planCopies = copies[:0]
	if needRegInt > cl.FreeRegs(uarch.IntReg(0)) || needRegFP > cl.FreeRegs(uarch.FPReg(0)) {
		if len(copies) > 0 {
			return StallCopyRegs
		}
		return StallRegs
	}

	// All resources available: perform the dispatch.
	seq := slot.seq
	for _, pc := range copies {
		v := c.value(pc.vseq)
		q := c.clusters[pc.home].CopyQ
		pending := 0
		if v.readyMask&(1<<uint(pc.home)) == 0 {
			pending = 1
		}
		e := q.Insert(pc.vseq, ci, pending)
		if e == nil {
			panic("pipeline: copy queue insert failed after capacity check")
		}
		if pending > 0 {
			c.waitFor(v, pc.home, q, e)
		}
		v.locMask |= 1 << uint(ci)
		v.allocMask |= 1 << uint(ci)
		cl.AllocReg(pc.reg)
		c.m.Copies++
		c.m.PerCluster[pc.home].CopiesInserted++
		if c.copyInserted != nil {
			c.copyInserted[copyKey{pc.vseq, ci}] = c.cycle
		}
	}
	isStore := u.Static.Opcode == uarch.OpStore
	var unready [2]*valueState
	pending := 0
	for i, src := range srcs {
		if src == uarch.RegNone || vseqs[i] == initialValue {
			continue
		}
		// Split store: the IQ entry waits only for the address operand
		// (Src2); the data half completes separately after issue, as real
		// STA/STD micro-op pairs do.
		if isStore && i == 0 {
			continue
		}
		v := c.value(vseqs[i])
		if v == nil || v.readyMask&(1<<uint(ci)) != 0 {
			continue
		}
		if pending == 0 || unready[0] != v {
			unready[pending] = v
			pending++
		}
	}
	q := cl.QueueFor(class)
	e := q.Insert(seq, 0, pending)
	if e == nil {
		panic("pipeline: IQ insert failed after capacity check")
	}
	for _, v := range unready[:pending] {
		c.waitFor(v, ci, q, e)
	}
	if u.IsMem() {
		if !c.lsq.Allocate(seq, u.Static.Opcode == uarch.OpStore) {
			panic("pipeline: LSQ allocate failed after capacity check")
		}
	}
	if want := c.robHead + int64(c.robLen); seq != want {
		panic(fmt.Sprintf("pipeline: out-of-order dispatch: seq %d, ROB tail %d", seq, want))
	}
	st := &c.uops[seq&c.uopMask]
	*st = uopState{
		seq: seq, u: u, cluster: ci, live: true,
		mispredicted: slot.mispred, prevValue: initialValue,
		srcValues: vseqs,
	}
	if u.Static.Dst != uarch.RegNone {
		cl.AllocReg(u.Static.Dst)
		st.prevValue = c.regVal[u.Static.Dst]
		c.regVal[u.Static.Dst] = seq
		c.newValue(seq, u.Static.Dst, ci)
	}
	c.robLen++
	cl.InFlight++
	cl.DispatchedUops++
	c.m.PerCluster[ci].Dispatched++
	return StallNone
}

// --- fetch ---------------------------------------------------------------

func (c *Core) fetch() {
	if c.fetchStalled {
		c.m.FetchStallCycles++
		return
	}
	budget := c.cfg.FetchWidth
	for budget > 0 && c.nextFetch < len(c.tr.Uops) && c.fetchLen < c.fetchCap {
		u := &c.tr.Uops[c.nextFetch]
		slot := &c.fetchPipe[(c.fetchHead+int64(c.fetchLen))&c.fetchMask]
		*slot = fetchSlot{
			seq: c.nextSeq, u: u,
			readyAt: c.cycle + int64(c.cfg.FetchToDispatch),
		}
		stop := false
		if u.IsBranch() {
			c.m.Branches++
			predicted := c.bp.predictAndUpdate(u.PC, u.Taken)
			if predicted != u.Taken {
				c.m.Mispredicts++
				slot.mispred = true
				c.fetchStalled = true
				stop = true
			}
		}
		c.fetchLen++
		c.nextFetch++
		c.nextSeq++
		budget--
		if stop {
			break
		}
	}
}

// accountOccupancy integrates issue-queue occupancy for utilization stats
// over n cycles of unchanged occupancy.
func (c *Core) accountOccupancy(n uint64) {
	for i, cl := range c.clusters {
		pc := &c.m.PerCluster[i]
		pc.OccupancySum += n * uint64(cl.Occupancy())
		pc.IntOccSum += n * uint64(cl.IntQ.Len())
		pc.FPOccSum += n * uint64(cl.FPQ.Len())
		pc.IntIssued = cl.IntQ.Issued
		pc.FPIssued = cl.FPQ.Issued
		pc.CopyIssued = cl.CopyQ.Issued
		if h := c.m.Histograms; h != nil {
			h.IntIQ.ObserveN(int64(cl.IntQ.Len()), n)
			h.FPIQ.ObserveN(int64(cl.FPQ.Len()), n)
			h.CopyQ.ObserveN(int64(cl.CopyQ.Len()), n)
		}
	}
	if h := c.m.Histograms; h != nil {
		h.ROB.ObserveN(int64(c.robLen), n)
	}
}

// ComplexityOf returns the policy's steering-logic accounting.
func (c *Core) ComplexityOf() steer.Complexity { return *c.policy.Complexity() }
