// Package cluster models one backend cluster of the clustered
// microarchitecture: its issue queues (INT, FP, COPY) with wakeup/select
// logic, its functional-unit occupancy, and its register-file free-list
// accounting. Values are identified by the producing micro-op's sequence
// number; readiness is always per-cluster (a value becomes ready in another
// cluster only when an explicit copy arrives).
package cluster

import "fmt"

// Entry is one issue-queue slot. Entries are linked into two intrusive
// lists owned by the IQ: the age list (every queued entry, insertion
// order) and the ready list (the subset whose operands have all arrived,
// also in insertion order).
type Entry struct {
	// Seq is the waiting micro-op's sequence number.
	Seq int64
	// Aux is policy-defined payload (copy queue: destination cluster).
	Aux int
	// pending counts unready source operands.
	pending int
	// age is the queue-local insertion stamp; it orders both lists.
	// (Seq would not do: copy-queue entries are keyed by the copied
	// value's seq, which does not arrive in insertion order.)
	age uint64

	ageNext, agePrev     *Entry
	readyNext, readyPrev *Entry
}

// Ready reports whether all operands have arrived.
func (e *Entry) Ready() bool { return e.pending == 0 }

// IQ is an issue queue with capacity, per-cycle issue width and
// oldest-first selection. It does not know which values its entries wait
// for: the owner keeps each waiting entry on its value's waiter list and
// calls OperandReady as operands arrive. Entries are pooled across the
// queue's lifetime, so steady-state insert/wakeup/select cycles allocate
// nothing.
//
// Readiness is tracked at wakeup time: an entry whose last pending operand
// arrives moves onto an age-ordered ready list, so SelectReady walks only
// the entries actually eligible this cycle instead of scanning the whole
// occupancy. A cycle with nothing ready is a single integer compare.
type IQ struct {
	name  string
	cap   int
	width int

	// n is the occupancy (age-list length); nReady the ready-list length.
	n, nReady int
	// ageClock stamps insertions; it orders ready-list insertion.
	ageClock uint64
	// ageHead/ageTail bound the age list (all queued entries, oldest
	// first); readyHead/readyTail the ready list (same order, ready only).
	ageHead, ageTail     *Entry
	readyHead, readyTail *Entry

	// picked is the reusable SelectReady result buffer; its entries are
	// recycled into free at the start of the next SelectReady call, so a
	// returned slice is valid only until then.
	picked []*Entry
	// free pools retired Entry objects.
	free []*Entry

	// Issued counts selections.
	Issued uint64
}

// NewIQ builds an issue queue.
func NewIQ(name string, capacity, width int) *IQ {
	if capacity <= 0 || width <= 0 {
		panic(fmt.Sprintf("cluster: IQ %q capacity %d width %d", name, capacity, width))
	}
	q := &IQ{name: name, cap: capacity, width: width}
	// Pre-populate the entry pool from one flat array: at most cap queued
	// plus width freshly selected entries are ever live, so inserts never
	// allocate.
	ents := make([]Entry, capacity+width)
	q.free = make([]*Entry, len(ents))
	for i := range ents {
		q.free[i] = &ents[i]
	}
	return q
}

// Name returns the queue's label.
func (q *IQ) Name() string { return q.name }

// Len returns current occupancy; Cap the capacity; Width the issue width.
func (q *IQ) Len() int { return q.n }

// Cap returns the capacity.
func (q *IQ) Cap() int { return q.cap }

// Width returns the per-cycle issue width.
func (q *IQ) Width() int { return q.width }

// ReadyLen returns the number of entries whose operands are all ready.
func (q *IQ) ReadyLen() int { return q.nReady }

// Full reports whether insertion would fail.
func (q *IQ) Full() bool { return q.n >= q.cap }

// Insert queues the micro-op with pending source operands not yet
// readable and returns its entry, or nil when the queue is full. The
// caller reports each operand's arrival with OperandReady.
func (q *IQ) Insert(seq int64, aux, pending int) *Entry {
	if q.Full() {
		return nil
	}
	var e *Entry
	if n := len(q.free); n > 0 {
		e = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
	} else {
		e = &Entry{}
	}
	*e = Entry{Seq: seq, Aux: aux, pending: pending, age: q.ageClock}
	q.ageClock++
	// Append to the age tail: a fresh insert is by definition the youngest.
	e.agePrev = q.ageTail
	if q.ageTail != nil {
		q.ageTail.ageNext = e
	} else {
		q.ageHead = e
	}
	q.ageTail = e
	q.n++
	if pending == 0 {
		// Youngest entry in the queue, so appending keeps the ready list
		// age-ordered.
		q.readyAppend(e)
	}
	return e
}

// readyAppend pushes e (the youngest ready entry) onto the ready tail.
func (q *IQ) readyAppend(e *Entry) {
	e.readyPrev = q.readyTail
	if q.readyTail != nil {
		q.readyTail.readyNext = e
	} else {
		q.readyHead = e
	}
	q.readyTail = e
	q.nReady++
}

// readyInsert places e into the ready list at its age position. Entries
// typically become ready youngest-last, so the scan starts from the tail
// and is O(1) in the common case.
func (q *IQ) readyInsert(e *Entry) {
	at := q.readyTail
	for at != nil && at.age > e.age {
		at = at.readyPrev
	}
	if at == q.readyTail {
		q.readyAppend(e)
		return
	}
	q.nReady++
	if at == nil {
		e.readyPrev = nil
		e.readyNext = q.readyHead
		q.readyHead.readyPrev = e
		q.readyHead = e
		return
	}
	e.readyPrev = at
	e.readyNext = at.readyNext
	at.readyNext.readyPrev = e
	at.readyNext = e
}

// readyRemove unlinks e from the ready list.
func (q *IQ) readyRemove(e *Entry) {
	if e.readyPrev != nil {
		e.readyPrev.readyNext = e.readyNext
	} else {
		q.readyHead = e.readyNext
	}
	if e.readyNext != nil {
		e.readyNext.readyPrev = e.readyPrev
	} else {
		q.readyTail = e.readyPrev
	}
	e.readyNext, e.readyPrev = nil, nil
	q.nReady--
}

// ageRemove unlinks e from the age list.
func (q *IQ) ageRemove(e *Entry) {
	if e.agePrev != nil {
		e.agePrev.ageNext = e.ageNext
	} else {
		q.ageHead = e.ageNext
	}
	if e.ageNext != nil {
		e.ageNext.agePrev = e.agePrev
	} else {
		q.ageTail = e.agePrev
	}
	e.ageNext, e.agePrev = nil, nil
	q.n--
}

// OperandReady records the arrival of one of e's pending operands. An
// entry whose last operand this was moves onto the ready list at its age
// position, so the order in which entries wake never changes selection.
func (q *IQ) OperandReady(e *Entry) {
	e.pending--
	if e.pending < 0 {
		panic(fmt.Sprintf("cluster: IQ %q double wakeup of %d", q.name, e.Seq))
	}
	if e.pending == 0 {
		q.readyInsert(e)
	}
}

// SelectReady pops up to max ready entries, oldest first. A max of zero or
// a negative value selects up to the configured width. Accept filters
// candidates (e.g. FU availability, link bandwidth); returning false leaves
// the entry queued — and still ready — without consuming a selection slot.
// The returned slice is reused: it is valid only until the next SelectReady
// call on this queue. Cost scales with the ready-list length, not the
// queue occupancy; a cycle with nothing ready does no list work at all.
func (q *IQ) SelectReady(max int, accept func(*Entry) bool) []*Entry {
	if max <= 0 || max > q.width {
		max = q.width
	}
	// Entries handed out by the previous call are done with: recycle them.
	for i, e := range q.picked {
		q.free = append(q.free, e)
		q.picked[i] = nil
	}
	q.picked = q.picked[:0]
	if q.nReady == 0 {
		return q.picked
	}
	for e := q.readyHead; e != nil && len(q.picked) < max; {
		next := e.readyNext
		if accept == nil || accept(e) {
			q.readyRemove(e)
			q.ageRemove(e)
			q.picked = append(q.picked, e)
			q.Issued++
		}
		e = next
	}
	return q.picked
}

// Reset clears the queue (between runs) without allocating: every entry
// returns to the pool, so a pooled core's queues come back warm.
func (q *IQ) Reset() {
	for e := q.ageHead; e != nil; {
		next := e.ageNext
		e.ageNext, e.agePrev = nil, nil
		e.readyNext, e.readyPrev = nil, nil
		q.free = append(q.free, e)
		e = next
	}
	q.ageHead, q.ageTail = nil, nil
	q.readyHead, q.readyTail = nil, nil
	q.n, q.nReady = 0, 0
	q.ageClock = 0
	for i, e := range q.picked {
		q.free = append(q.free, e)
		q.picked[i] = nil
	}
	q.picked = q.picked[:0]
	q.Issued = 0
}
