package pipeline

import (
	"fmt"

	"clustersim/internal/cache"
	"clustersim/internal/cluster"
	"clustersim/internal/interconnect"
	"clustersim/internal/stats"
	"clustersim/internal/steer"
	"clustersim/internal/trace"
	"clustersim/internal/uarch"
)

// initialValue is the sequence number denoting an architectural initial
// value: ready in every cluster, occupying no physical register.
const initialValue int64 = -1

// uopState is the in-flight state of one dynamic micro-op. States live in a
// ring buffer indexed by seq mod window, so the struct carries its own seq
// and liveness to disambiguate slot reuse.
type uopState struct {
	seq     int64
	u       *trace.Uop
	cluster int

	live      bool
	completed bool
	// mispredicted marks a conditional branch whose prediction was wrong;
	// its completion releases the fetch stall.
	mispredicted bool
	// prevValue is the value the destination register held before this op
	// (freed when this op commits).
	prevValue int64
	// srcValues are the operand value tags consumed (for store-data
	// bookkeeping and debugging).
	srcValues [2]int64

	// park says what a parked op waits for (parkNone when it is not
	// parked); group is its park group, woken marks a fired wait: the op
	// reruns at its group's next drain, at the position its retry poll
	// would have held.
	park  parkKind
	woken bool
	group int32
	// waitNext links the ops parked on one value or store. waiters heads
	// the list of loads parked on this store (seq+1; 0 is empty).
	waitNext int64
	waiters  int64
}

// valueState tracks one produced register value across clusters. Values
// normally live in a ring window indexed by seq; the rare value that
// outlives the window (a register not overwritten for a whole window of
// dispatches) is evicted to an overflow map.
type valueState struct {
	seq  int64
	reg  uarch.Reg
	home int
	live bool
	// locMask marks clusters where the value is or will become available
	// (home plus any copy destinations, pending or arrived).
	locMask uint32
	// readyMask marks clusters where the value is readable now.
	readyMask uint32
	// allocMask marks clusters where a physical register is held.
	allocMask uint32
	// produced reports execution of the producer has finished.
	produced bool
	// waiters heads the list of stores parked until this value is
	// readable in their cluster (seq+1; 0 is empty).
	waiters int64
	// iqWait heads the list of issue-queue entries waiting for this value
	// to become readable in their cluster: an index into Core.iqWaiters,
	// 0 when empty. A waited-on value is always live, since the writer
	// that overwrites its register commits only after its consumers.
	iqWait int32
}

// iqWaiter is one node of a value's iqWait list: issue-queue entry e in
// queue q of cluster ci, and the next node's index (0 ends the list).
type iqWaiter struct {
	e    *cluster.Entry
	q    *cluster.IQ
	ci   int32
	next int32
}

// event is a scheduled micro-architectural occurrence.
type event struct {
	kind eventKind
	seq  int64
	aux  int // copy destination cluster
}

type eventKind uint8

const (
	evComplete   eventKind = iota // execution finishes
	evAgen                        // load/store address generated
	evCopyArrive                  // copy lands in destination cluster
	evParked                      // a park group's turn (aux is the group)
)

// parkKind is what a parked op waits for.
type parkKind uint8

const (
	parkNone      parkKind = iota
	parkStoreData          // store: its data operand, readable in its cluster
	parkLSQ                // load: an older store's address or data
	parkMSHR               // load: a free MSHR or a hierarchy change
	parkPort               // load: an L1 read port free at its position
	numParkKinds
)

// parkGroup is a run of parked ops that hold consecutive positions in a
// cycle's event drain. woken counts members whose wait fired, mshr and
// port the members parked on a full MSHR file and on a read port, and
// lead the MSHR-parked members ahead of the first port-parked one.
type parkGroup struct {
	members          []int64
	woken            int
	mshr, port, lead int
}

// fetchSlot is one frontend-pipe entry.
type fetchSlot struct {
	seq     int64
	u       *trace.Uop
	readyAt int64
	// mispred marks a conditional branch the predictor got wrong.
	mispred bool
	// steered caches a sticky steering decision across dispatch retries so
	// policy state is not perturbed by resource stalls.
	steered bool
	cluster int
}

// plannedCopy is one operand copy the dispatch stage intends to insert: the
// value, its home cluster, and the architectural register (for free-list
// accounting in the target cluster).
type plannedCopy struct {
	vseq int64
	home int
	reg  uarch.Reg
}

// eventWheelStats counts event-wheel activity; the bounded-memory
// regression test reads it, and it is cheap enough to keep always on.
type eventWheelStats struct {
	// scheduled counts all scheduled events; overflowed counts the subset
	// that landed beyond the wheel horizon (far-future overflow bucket).
	scheduled, overflowed int64
	// skipped counts the idle cycles fast-forwarded over.
	skipped int64
}

// Core is one simulated machine instance. It is single-goroutine; run many
// cores in parallel for experiment sweeps.
//
// The per-cycle working set is held in dense, index-addressed structures so
// the steady-state loop allocates nothing: in-flight micro-op state lives
// in a ring indexed by seq mod window (in-order dispatch and commit keep
// the live range within ROB size), value state in a larger ring with a
// small overflow map for values that outlive it, scheduled events in a
// fixed-horizon wheel of reusable slices, and the ROB itself is just the
// contiguous live seq range [robHead, robHead+robLen).
type Core struct {
	cfg    Config
	policy steer.Policy
	tr     *trace.Trace
	// shape is cfg.Shape() frozen at construction: the structural
	// fingerprint every Reset config must match, since ring and wheel
	// sizes were derived from it.
	shape Config

	cycle     int64
	nextFetch int
	nextSeq   int64

	// fetchPipe is a ring of fetched-but-not-dispatched micro-ops, bounded
	// by fetchCap (width × depth + steer backlog).
	fetchPipe []fetchSlot
	fetchMask int64
	fetchHead int64
	fetchLen  int
	fetchCap  int
	// fetchStalled marks fetch frozen on an unresolved misprediction.
	fetchStalled bool

	// uops is the in-flight micro-op window: a ring indexed by seq&uopMask.
	// Dispatch and commit are both in program order, so the live entries
	// are exactly the ROB contents — seqs [robHead, robHead+robLen).
	uops    []uopState
	uopMask int64
	robHead int64
	robLen  int

	regVal [uarch.NumRegs]int64
	// values is the value window ring indexed by seq&valMask; valOverflow
	// holds the rare values still live when their slot is reclaimed.
	values      []valueState
	valMask     int64
	valOverflow map[int64]*valueState

	clusters []*cluster.Cluster
	net      *interconnect.Network
	lsq      *cache.LSQ
	mem      *cache.Hierarchy
	bp       *gshare

	// wheel is the event wheel: wheel[cycle&wheelMask] holds the events due
	// that cycle, with backing arrays reused after draining. Events beyond
	// the horizon go to the evOverflow bucket (evOverflowLen counts them so
	// the per-cycle check is a plain integer compare).
	wheel         [][]event
	wheelMask     int64
	evOverflow    map[int64][]event
	evOverflowLen int
	evStats       eventWheelStats

	// groups holds the park groups, indexed by evParked events; freeGroups
	// lists the unused ones. mshrParked lists the loads parked on a full
	// MSHR file, all woken together; memGen is the hierarchy generation
	// they were refused at. parked counts parked ops by kind.
	groups     []parkGroup
	freeGroups []int32
	mshrParked []int64
	memGen     uint64
	parked     [numParkKinds]int

	// lastStall is the reason the latest dispatch stage stopped on a stall
	// (StallNone when it did not), which the idle-cycle fast-forward
	// replays.
	lastStall StallReason

	// iqWaiters pools the nodes of the values' iqWait lists. Index 0 is
	// the empty link; iqFree heads the free nodes. It holds one node per
	// operand an issue-queue slot can wait on, so it never runs out.
	iqWaiters []iqWaiter
	iqFree    int32

	// planCopies is a dispatch-stage scratch buffer, reused across cycles
	// so steering/dispatch never allocates.
	planCopies []plannedCopy

	// copyInserted records copy-queue insertion cycles for the optional
	// copy-latency histogram (nil unless TrackHistograms).
	copyInserted map[copyKey]int64

	committed int64
	m         Metrics
}

// copyKey identifies an in-flight copy: the value and its destination.
type copyKey struct {
	seq int64
	dst int
}

// nextPow2 returns the smallest power of two ≥ n (and ≥ 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// maxWheelHorizon caps the event wheel's slot count. It is a variable
// only so tests can raise it to run an overflow-free control of the same
// configuration; simulation code treats it as a constant.
var maxWheelHorizon = 4096

// wheelHorizon sizes the event wheel to cover every latency the machine
// can schedule in one hop — the memory hierarchy's worst case (L2 miss to
// DRAM) dominates. Anything beyond (e.g. an ablation with an extreme
// memory latency) falls into the overflow bucket, which is correct but
// slower, so the horizon errs generously — while staying capped so an
// extreme configuration costs overflow lookups instead of memory.
func wheelHorizon(cfg *Config) int {
	worst := cfg.Mem.L1.HitLatency + cfg.Mem.L2.HitLatency + cfg.Mem.MemLatency
	if net := cfg.Net.Latency * cfg.NumClusters; net > worst {
		worst = net
	}
	h := nextPow2(worst + 2)
	if h < 64 {
		h = 64
	}
	if h > maxWheelHorizon {
		h = maxWheelHorizon
	}
	return h
}

// NewCore builds a machine for the given trace and policy.
func NewCore(cfg Config, pol steer.Policy, tr *trace.Trace) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 200_000_000
	}
	net, err := interconnect.New(cfg.Net)
	if err != nil {
		return nil, err
	}
	mem, err := cache.NewHierarchy(cfg.Mem)
	if err != nil {
		return nil, err
	}
	fetchCap := cfg.FetchWidth * (cfg.FetchToDispatch + 4)
	c := &Core{
		cfg:       cfg,
		policy:    pol,
		tr:        tr,
		shape:     cfg.Shape(),
		fetchPipe: make([]fetchSlot, nextPow2(fetchCap)),
		fetchCap:  fetchCap,
		uops:      make([]uopState, nextPow2(cfg.ROBSize)),
		values:    make([]valueState, nextPow2(2*cfg.ROBSize)),
		wheel:     make([][]event, wheelHorizon(&cfg)),
		net:       net,
		lsq:       cache.NewLSQ(cfg.LSQSize),
		mem:       mem,
		bp:        newGShare(cfg.BPredBits),
	}
	c.fetchMask = int64(len(c.fetchPipe) - 1)
	c.uopMask = int64(len(c.uops) - 1)
	c.valMask = int64(len(c.values) - 1)
	c.wheelMask = int64(len(c.wheel) - 1)
	// Seed every wheel slot with a small chunk of one flat backing array:
	// the average cycle carries a handful of events, so most slots never
	// regrow and per-run warm-up allocation stays O(1) instead of O(slots).
	const slotSeedCap = 8
	backing := make([]event, slotSeedCap*len(c.wheel))
	for i := range c.wheel {
		c.wheel[i] = backing[i*slotSeedCap : i*slotSeedCap : (i+1)*slotSeedCap]
	}
	for i := 0; i < cfg.NumClusters; i++ {
		c.clusters = append(c.clusters, cluster.New(i, cfg.Cluster))
	}
	// INT and FP entries wait on at most two operands, copies on one.
	q := cfg.Cluster
	c.iqWaiters = make([]iqWaiter, 1+cfg.NumClusters*(2*q.IQInt+2*q.IQFP+q.IQCopy))
	c.resetWaiters()
	for r := range c.regVal {
		c.regVal[r] = initialValue
	}
	c.m.PerCluster = make([]ClusterMetrics, cfg.NumClusters)
	if cfg.TrackHistograms {
		c.m.Histograms = &OccupancyHistograms{
			ROB:         stats.NewHistogram(cfg.ROBSize),
			IntIQ:       stats.NewHistogram(cfg.Cluster.IQInt),
			FPIQ:        stats.NewHistogram(cfg.Cluster.IQFP),
			CopyQ:       stats.NewHistogram(cfg.Cluster.IQCopy),
			CopyLatency: stats.NewHistogram(128),
		}
		c.copyInserted = make(map[copyKey]int64)
	}
	pol.Reset()
	return c, nil
}

// --- windowed state access -------------------------------------------------

// uop returns the in-flight state for seq, or nil if it already committed.
func (c *Core) uop(seq int64) *uopState {
	st := &c.uops[seq&c.uopMask]
	if st.live && st.seq == seq {
		return st
	}
	return nil
}

// robHeadState returns the oldest in-flight micro-op (ROB head).
func (c *Core) robHeadState() *uopState {
	return &c.uops[c.robHead&c.uopMask]
}

// value returns the live value state for seq, or nil if it was freed. The
// ring slot is the hot path; the overflow map holds only values that
// outlived the window.
func (c *Core) value(seq int64) *valueState {
	v := &c.values[seq&c.valMask]
	if v.live && v.seq == seq {
		return v
	}
	if c.valOverflow != nil {
		if ov, ok := c.valOverflow[seq]; ok {
			return ov
		}
	}
	return nil
}

// newValue claims the window slot for seq. A slot still occupied by a live
// out-of-window value (its register was not overwritten for a whole window
// of dispatches) evicts that value to the overflow map first.
func (c *Core) newValue(seq int64, reg uarch.Reg, home int) *valueState {
	v := &c.values[seq&c.valMask]
	if v.live {
		if c.valOverflow == nil {
			c.valOverflow = make(map[int64]*valueState)
		}
		old := *v
		c.valOverflow[old.seq] = &old
	}
	*v = valueState{
		seq: seq, reg: reg, home: home, live: true,
		locMask: 1 << uint(home), allocMask: 1 << uint(home),
	}
	return v
}

// --- steering context ------------------------------------------------------

// steerCtx adapts the core to the steer.Context interface.
type steerCtx struct{ c *Core }

// NumClusters implements steer.Context.
func (s steerCtx) NumClusters() int { return s.c.cfg.NumClusters }

// Occupancy implements steer.Context.
func (s steerCtx) Occupancy(ci int) int { return s.c.clusters[ci].Occupancy() }

// InFlight implements steer.Context.
func (s steerCtx) InFlight(ci int) int { return s.c.clusters[ci].InFlight }

// HasSpace implements steer.Context.
func (s steerCtx) HasSpace(ci int, class uarch.Class) bool {
	return !s.c.clusters[ci].QueueFor(class).Full()
}

// ValueClusters implements steer.Context.
func (s steerCtx) ValueClusters(r uarch.Reg) uint32 {
	seq := s.c.regVal[r]
	if seq == initialValue {
		return (1 << uint(s.c.cfg.NumClusters)) - 1
	}
	if v := s.c.value(seq); v != nil {
		return v.locMask
	}
	return (1 << uint(s.c.cfg.NumClusters)) - 1
}

// --- value helpers ---------------------------------------------------------

// resetWaiters frees every node of the iqWait pool.
func (c *Core) resetWaiters() {
	for i := range c.iqWaiters {
		c.iqWaiters[i] = iqWaiter{next: int32(i + 1)}
	}
	c.iqWaiters[len(c.iqWaiters)-1].next = 0
	c.iqFree = 1
}

// waitFor links entry e, queued in q of cluster ci, onto v's iqWait list.
func (c *Core) waitFor(v *valueState, ci int, q *cluster.IQ, e *cluster.Entry) {
	n := c.iqFree
	if n == 0 {
		panic("pipeline: issue-queue waiter pool exhausted")
	}
	w := &c.iqWaiters[n]
	c.iqFree = w.next
	*w = iqWaiter{e: e, q: q, ci: int32(ci), next: v.iqWait}
	v.iqWait = n
}

// valueReadyIn marks value seq readable in cluster ci and wakes its waiters.
func (c *Core) valueReadyIn(seq int64, ci int) {
	v := c.value(seq)
	if v == nil {
		panic(fmt.Sprintf("pipeline: ready for dead value %d", seq))
	}
	bit := uint32(1) << uint(ci)
	if v.readyMask&bit != 0 {
		return
	}
	v.readyMask |= bit
	// Wake the issue-queue entries waiting in cluster ci; entries in other
	// clusters stay linked until their own copy arrives.
	for link := &v.iqWait; *link != 0; {
		n := *link
		w := &c.iqWaiters[n]
		if int(w.ci) != ci {
			link = &w.next
			continue
		}
		*link = w.next
		w.q.OperandReady(w.e)
		*w = iqWaiter{next: c.iqFree}
		c.iqFree = n
	}
	// Wake the stores parked on this value in cluster ci; stores parked in
	// other clusters stay linked.
	for link := &v.waiters; *link != 0; {
		st := &c.uops[(*link-1)&c.uopMask]
		if st.cluster == ci {
			*link = st.waitNext
			c.wake(st)
			continue
		}
		link = &st.waitNext
	}
}

// valueIsReadyIn reports whether the operand value is readable in cluster ci.
func (c *Core) valueIsReadyIn(seq int64, ci int) bool {
	if seq == initialValue {
		return true
	}
	v := c.value(seq)
	if v == nil {
		return true // producer already committed and freed: architecturally visible
	}
	return v.readyMask&(1<<uint(ci)) != 0
}

// freeValue releases every physical register the value holds.
func (c *Core) freeValue(seq int64) {
	if seq == initialValue {
		return
	}
	v := c.value(seq)
	if v == nil {
		return
	}
	if v.iqWait != 0 {
		panic(fmt.Sprintf("pipeline: value %d freed with issue-queue entries waiting on it", seq))
	}
	for ci := 0; ci < c.cfg.NumClusters; ci++ {
		if v.allocMask&(1<<uint(ci)) != 0 {
			c.clusters[ci].FreeReg(v.reg)
		}
	}
	if ring := &c.values[seq&c.valMask]; ring == v {
		ring.live = false
	} else {
		delete(c.valOverflow, seq)
	}
}

// Metrics returns the accumulated metrics (valid after Run). The returned
// pointer aliases core-owned state; use the detached copy Run returns when
// the metrics must outlive a pooled Reset.
func (c *Core) Metrics() *Metrics { return &c.m }

// Shape returns the structural fingerprint the core was built for.
func (c *Core) Shape() Config { return c.shape }

// Reset rewinds the core to post-construction state for a new run with the
// given configuration, policy and trace — without reallocating rings,
// freelists, the event wheel, caches or cluster state. The configuration
// must have the same Shape the core was built with (ring and wheel sizes
// were derived from it); per-run fields (MaxCycles, WarmupUops, Cancel) may
// differ freely. A reset core produces byte-identical results to a freshly
// constructed one.
func (c *Core) Reset(cfg Config, pol steer.Policy, tr *trace.Trace) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Shape() != c.shape {
		return fmt.Errorf("pipeline: Reset config shape differs from construction shape")
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 200_000_000
	}
	c.cfg = cfg
	c.policy = pol
	c.tr = tr

	c.cycle, c.nextFetch, c.nextSeq = 0, 0, 0
	c.fetchHead, c.fetchLen = 0, 0
	c.fetchStalled = false
	// A canceled or aborted run leaves live entries behind, and the next
	// run's seqs restart at zero — so every ring slot must be scrubbed, not
	// just the nominally-live range.
	for i := range c.fetchPipe {
		c.fetchPipe[i] = fetchSlot{}
	}
	for i := range c.uops {
		c.uops[i] = uopState{}
	}
	c.robHead, c.robLen = 0, 0
	for r := range c.regVal {
		c.regVal[r] = initialValue
	}
	for i := range c.values {
		c.values[i] = valueState{}
	}
	clear(c.valOverflow)

	for _, cl := range c.clusters {
		cl.Reset()
	}
	c.resetWaiters()
	c.net.Reset()
	c.lsq.Reset()
	c.mem.Reset()
	c.bp.reset()

	for i := range c.wheel {
		c.wheel[i] = c.wheel[i][:0]
	}
	clear(c.evOverflow)
	c.evOverflowLen = 0
	c.evStats = eventWheelStats{}
	c.freeGroups = c.freeGroups[:0]
	for i := range c.groups {
		c.groups[i] = parkGroup{members: c.groups[i].members[:0]}
		c.freeGroups = append(c.freeGroups, int32(i))
	}
	c.mshrParked = c.mshrParked[:0]
	c.memGen = 0
	c.parked = [numParkKinds]int{}
	c.lastStall = StallNone

	c.planCopies = c.planCopies[:0]

	c.committed = 0
	// The previous run's detached metrics may still be referenced by
	// callers, so PerCluster is the one piece of metrics state the core
	// reuses: zero it in place. Histograms are per-run heap objects.
	per := c.m.PerCluster
	for i := range per {
		per[i] = ClusterMetrics{}
	}
	c.m = Metrics{PerCluster: per}
	if cfg.TrackHistograms {
		c.m.Histograms = &OccupancyHistograms{
			ROB:         stats.NewHistogram(cfg.ROBSize),
			IntIQ:       stats.NewHistogram(cfg.Cluster.IQInt),
			FPIQ:        stats.NewHistogram(cfg.Cluster.IQFP),
			CopyQ:       stats.NewHistogram(cfg.Cluster.IQCopy),
			CopyLatency: stats.NewHistogram(128),
		}
		if c.copyInserted == nil {
			c.copyInserted = make(map[copyKey]int64)
		} else {
			clear(c.copyInserted)
		}
	} else {
		c.copyInserted = nil
	}
	pol.Reset()
	return nil
}

// Release drops the references a pooled core must not pin between runs:
// the trace (often a large shared object), the policy, and the cancel
// channel. Call before parking the core in a pool.
func (c *Core) Release() {
	c.tr = nil
	c.policy = nil
	c.cfg.Cancel = nil
}
