package pipeline

import (
	"fmt"

	"clustersim/internal/steer"
	"clustersim/internal/uarch"
)

// A memory op that cannot progress parks instead of retrying every
// cycle: a store waiting for its data, a load the LSQ holds back, and a
// load refused a read port or an MSHR. It stays parked until the event
// that can change its outcome wakes it, as a Microgrid thread suspends on
// an empty register until the write.
//
// The model is defined by per-cycle retries, and their order is
// observable: it decides which load gets an L1 read port and whether a
// store completes in the cycle its data arrives or the next. So a parked
// op keeps the position its retry would hold in each cycle's event drain.
// Consecutive parked ops share one park group behind a single evParked
// event; draining a group whose members were not woken re-appends it for
// the next cycle in O(1), exactly where the members' retries would go. A
// woken member runs its real handler at its own position in the group,
// and the members around it keep theirs. A failed retry has no side
// effect except for MSHR-parked loads, which take a read port and make a
// refused access; the group replays those at its position.

// tailGroup returns the park group that is the latest event due next
// cycle, or -1 when that event is not a park group.
func (c *Core) tailGroup() int32 {
	slot := c.wheel[(c.cycle+1)&c.wheelMask]
	if n := len(slot); n > 0 && slot[n-1].kind == evParked {
		return int32(slot[n-1].aux)
	}
	return -1
}

// enqueue appends st to the park group at the tail of next cycle's drain,
// starting a new group when the tail is some other event.
func (c *Core) enqueue(st *uopState) {
	gi := c.tailGroup()
	if gi < 0 {
		if n := len(c.freeGroups); n > 0 {
			gi = c.freeGroups[n-1]
			c.freeGroups = c.freeGroups[:n-1]
		} else {
			gi = int32(len(c.groups))
			c.groups = append(c.groups, parkGroup{})
		}
		c.schedule(c.cycle+1, event{kind: evParked, aux: int(gi)})
	}
	g := &c.groups[gi]
	g.members = append(g.members, st.seq)
	switch st.park {
	case parkMSHR:
		g.mshr++
		if g.port == 0 {
			g.lead++
		}
	case parkPort:
		g.port++
	}
	st.group = gi
}

// park suspends st until its wait fires. The caller has linked st where
// the wake will find it.
func (c *Core) park(st *uopState, kind parkKind) {
	st.park, st.woken = kind, false
	c.parked[kind]++
	c.enqueue(st)
}

// wake marks a parked op to rerun at its group's next drain.
func (c *Core) wake(st *uopState) {
	if st.park == parkNone || st.woken {
		return
	}
	st.woken = true
	c.groups[st.group].woken++
}

// wakeWaiters wakes every load parked on store s; its address or data just
// arrived.
func (c *Core) wakeWaiters(s *uopState) {
	for w := s.waiters; w != 0; {
		st := &c.uops[(w-1)&c.uopMask]
		w = st.waitNext
		c.wake(st)
	}
	s.waiters = 0
}

// wakeMSHRParked wakes every load parked on a full MSHR file.
func (c *Core) wakeMSHRParked() {
	for _, seq := range c.mshrParked {
		c.wake(&c.uops[seq&c.uopMask])
	}
	c.mshrParked = c.mshrParked[:0]
}

// refuseParked replays the polls of n loads parked on a full MSHR file:
// each takes a read port while one is free, then makes a refused access.
func (c *Core) refuseParked(n int) {
	took := 0
	for took < n && c.mem.L1().ReservePort(c.cycle, false) {
		took++
	}
	if took > 0 {
		c.mem.RefusedSpan(c.cycle, c.cycle, took)
	}
}

// portsBlock reports whether every port-parked member of g finds the read
// ports taken when the group drains with free ports free (-1: unlimited):
// the MSHR-parked members ahead of the first one use them up.
func portsBlock(g *parkGroup, free int) bool {
	return g.port == 0 || (free >= 0 && g.lead >= free)
}

// drainGroup is a park group's turn in the current cycle's drain. A group
// with no woken member, whose port-parked members find no free port,
// replays the MSHR-parked members' refused accesses and moves on whole;
// otherwise each member takes its turn: a port-parked load retries for
// real, as does a woken op.
func (c *Core) drainGroup(gi int32) {
	if g := &c.groups[gi]; g.woken == 0 && portsBlock(g, c.mem.L1().FreeReadPorts(c.cycle)) {
		if g.mshr > 0 {
			c.refuseParked(g.mshr)
		}
		c.requeue(gi)
		return
	}
	members := c.groups[gi].members
	for _, seq := range members {
		st := &c.uops[seq&c.uopMask]
		if !st.woken && st.park != parkPort {
			if st.park == parkMSHR {
				c.refuseParked(1)
			}
			c.enqueue(st)
			continue
		}
		kind := st.park
		st.park, st.woken = parkNone, false
		c.parked[kind]--
		if kind == parkStoreData {
			c.storeDataCheck(st)
		} else {
			c.memTry(st)
		}
	}
	c.groups[gi] = parkGroup{members: members[:0]}
	c.freeGroups = append(c.freeGroups, gi)
}

// requeue moves an unwoken group to next cycle's drain. When the tail of
// that drain is another park group, the two are adjacent and merge, so a
// group split by a wake coalesces again.
func (c *Core) requeue(gi int32) {
	tg := c.tailGroup()
	if tg < 0 {
		c.schedule(c.cycle+1, event{kind: evParked, aux: int(gi)})
		return
	}
	g := c.groups[gi]
	for _, seq := range g.members {
		c.uops[seq&c.uopMask].group = tg
	}
	t := &c.groups[tg]
	t.members = append(t.members, g.members...)
	if t.port == 0 {
		t.lead += g.lead
	}
	t.woken += g.woken
	t.mshr += g.mshr
	t.port += g.port
	c.groups[gi] = parkGroup{members: g.members[:0]}
	c.freeGroups = append(c.freeGroups, gi)
}

// describeParked renders the parked-op counts for deadlock diagnostics.
func (c *Core) describeParked() string {
	return fmt.Sprintf("parked: store-data=%d lsq=%d mshr=%d port=%d",
		c.parked[parkStoreData], c.parked[parkLSQ], c.parked[parkMSHR], c.parked[parkPort])
}

// --- idle-cycle fast-forward ------------------------------------------------

// fastForward enables skipping idle cycles. It is a variable only so tests
// can compare a run against the cycle-by-cycle reference.
var fastForward = true

// idleSpan returns how many cycles after the current one provably change
// nothing but what skipIdle replays: no event but unwoken park groups is
// due and no port-parked load would find a read port, no issue-queue
// entry is ready, fetch is frozen or blocked, dispatch repeats the stall
// it just hit (or waits for the fetch pipe), and the ROB head is either
// unfinished or a store the full MSHR file keeps refusing. The span never
// reaches a cycle at which MaxCycles, the no-commit watchdog or the
// cancel check could fire, nor an MSHR completion.
func (c *Core) idleSpan(lastCommit int64) int64 {
	t := c.cycle
	end := lastCommit + 500_000
	end = min(end, c.cfg.MaxCycles-1, t+c.wheelMask-1)
	if c.cfg.Cancel != nil {
		end = min(end, t|0xfff)
	}
	if end <= t {
		return 0
	}
	if !c.fetchStalled && c.nextFetch < len(c.tr.Uops) && c.fetchLen < c.fetchCap {
		return 0
	}
	for _, cl := range c.clusters {
		if cl.IntQ.ReadyLen() > 0 || cl.FPQ.ReadyLen() > 0 || cl.CopyQ.ReadyLen() > 0 {
			return 0
		}
	}
	if c.fetchLen > 0 {
		if slot := &c.fetchPipe[c.fetchHead&c.fetchMask]; slot.readyAt > t+1 {
			end = min(end, slot.readyAt-1)
		} else if c.lastStall == StallNone {
			return 0
		}
	}
	refusing := false
	if c.robLen > 0 {
		if st := c.robHeadState(); st.completed {
			if st.u.Static.Opcode != uarch.OpStore || !c.mem.Refuses(t+1, st.u.Addr) {
				return 0
			}
			refusing = true
		}
	}
	// Each skipped cycle starts with every read port free; MSHR-parked
	// loads take them in drain order, and a port-parked load that would
	// find one left ends the span.
	free := c.mem.L1().FreeReadPorts(t + 1)
	for _, ev := range c.wheel[(t+1)&c.wheelMask] {
		if ev.kind != evParked {
			return 0
		}
		g := &c.groups[ev.aux]
		if g.woken > 0 || !portsBlock(g, free) {
			return 0
		}
		if free >= 0 {
			free = max(free-g.mshr, 0)
		}
	}
	if refusing || len(c.mshrParked) > 0 {
		freeAt := c.mem.MSHRFreeAt()
		if freeAt <= t+1 {
			return 0
		}
		end = min(end, freeAt-1)
	}
	for u := t + 2; u <= end+1; u++ {
		if len(c.wheel[u&c.wheelMask]) > 0 {
			end = u - 1
			break
		}
	}
	if c.evOverflowLen > 0 {
		for u := range c.evOverflow {
			end = min(end, u-1)
		}
	}
	return max(end-t, 0)
}

// skipIdle fast-forwards over the next span cycles (from idleSpan), adding
// what each would have added: the repeated dispatch stall, the frozen
// fetch, occupancy samples, and the refused accesses of an MSHR-bound ROB
// head and of MSHR-parked loads. A policy stall re-asks the policy every
// cycle, as the dispatch stage would, because steering bumps its
// complexity counters; if the policy steers, the skip ends before that
// cycle, which then dispatches the already-steered head. The park groups
// move unchanged to the end of the first cycle after the span.
func (c *Core) skipIdle(span int64) {
	from, to := c.cycle+1, c.cycle+span
	if c.lastStall == StallPolicy {
		slot := &c.fetchPipe[c.fetchHead&c.fetchMask]
		for u := from; u <= to; u++ {
			if d := c.policy.Steer(steerCtx{c}, slot.u); !d.Stall {
				c.steered(slot, d)
				to = u - 1
				break
			}
		}
	}
	n := to - from + 1
	if n <= 0 {
		return
	}
	if r := c.lastStall; r != StallNone {
		c.m.StallCycles[r] += n
		if r == StallPolicy || r == StallIQ {
			c.m.AllocStallCycles += n
		}
	}
	if c.fetchStalled {
		c.m.FetchStallCycles += n
	}
	src := (c.cycle + 1) & c.wheelMask
	refused := 0
	for _, ev := range c.wheel[src] {
		refused += c.groups[ev.aux].mshr
	}
	if ports := c.mem.L1().FreeReadPorts(from); ports >= 0 {
		refused = min(refused, ports)
	}
	if c.robLen > 0 && c.robHeadState().completed {
		refused++
	}
	c.mem.RefusedSpan(from, to, refused)
	c.accountOccupancy(uint64(n))
	dst := (to + 1) & c.wheelMask
	c.wheel[dst] = append(c.wheel[dst], c.wheel[src]...)
	c.wheel[src] = c.wheel[src][:0]
	c.evStats.skipped += n
	c.cycle = to
}

// steered records the policy's decision for a fetch slot.
func (c *Core) steered(slot *fetchSlot, d steer.Decision) {
	if d.Cluster < 0 || d.Cluster >= c.cfg.NumClusters {
		panic(fmt.Sprintf("pipeline: policy %s chose cluster %d of %d",
			c.policy.Name(), d.Cluster, c.cfg.NumClusters))
	}
	slot.steered = true
	slot.cluster = d.Cluster
}
