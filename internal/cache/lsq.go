package cache

import "fmt"

// LSQ is the unified load/store queue shared by all clusters (paper §2:
// "The Load/Store Queue and the data cache are unified and accessed by
// clusters through dedicated buses"). Loads and stores reserve a slot at
// dispatch, addresses arrive after address generation in the owning
// cluster, and entries drain at commit.
//
// Memory disambiguation is conservative: a load may access memory only
// when every older store's address is known; an exact-address match with
// data forwards from the store (store-to-load forwarding), otherwise the
// load reads the cache.
type LSQ struct {
	cap int
	// buf is a ring holding the live entries in program order (ascending
	// seq): logical entry i lives at buf[(head+i)&mask]. head counts
	// releases without wrapping, so head+i is a stable absolute position.
	// The ring is sized once at construction, so allocate/release cycles
	// never allocate.
	buf  []lsqEntry
	mask int
	head int
	n    int

	// unknown is the absolute position of the oldest store whose address
	// may be unknown: every live entry before it is a load or a store with
	// a known address. It only moves forward, so advancing it is amortised
	// O(1) per allocation.
	unknown int
	// known counts the live known-address stores per address hash bucket
	// (knownMask+1 buckets, four per ring slot). A load whose bucket is empty
	// cannot match any store; a non-empty one is checked exactly.
	known     []int32
	knownMask uint64

	// ForwardHits counts successful store-to-load forwards.
	ForwardHits uint64
}

type lsqEntry struct {
	seq       int64
	isStore   bool
	addr      uint64
	addrKnown bool
	dataReady bool // stores only: data operand produced
}

// NewLSQ builds an LSQ with the given capacity.
func NewLSQ(capacity int) *LSQ {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: LSQ capacity %d", capacity))
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	return &LSQ{
		cap: capacity, buf: make([]lsqEntry, size), mask: size - 1,
		known: make([]int32, 4*size), knownMask: uint64(4*size - 1),
	}
}

// at returns the logical i-th oldest live entry.
func (q *LSQ) at(i int) *lsqEntry { return &q.buf[(q.head+i)&q.mask] }

// Len returns the live entry count; Cap the capacity.
func (q *LSQ) Len() int { return q.n }

// Cap returns the configured capacity.
func (q *LSQ) Cap() int { return q.cap }

// Full reports whether allocation would fail.
func (q *LSQ) Full() bool { return q.n >= q.cap }

// Allocate reserves a slot for the memory op with the given sequence
// number at dispatch. Sequence numbers must arrive in increasing order.
func (q *LSQ) Allocate(seq int64, isStore bool) bool {
	if q.Full() {
		return false
	}
	if q.n > 0 && q.at(q.n-1).seq >= seq {
		panic(fmt.Sprintf("cache: LSQ allocation out of order: %d after %d", seq, q.at(q.n-1).seq))
	}
	*q.at(q.n) = lsqEntry{seq: seq, isStore: isStore}
	q.n++
	return true
}

// lowerBound returns the logical index of the oldest entry whose seq is
// at least seq (q.n when there is none).
func (q *LSQ) lowerBound(seq int64) int {
	lo, hi := 0, q.n
	for lo < hi {
		mid := (lo + hi) / 2
		if q.at(mid).seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (q *LSQ) find(seq int64) *lsqEntry {
	if i := q.lowerBound(seq); i < q.n && q.at(i).seq == seq {
		return q.at(i)
	}
	return nil
}

// SetAddress records the op's effective address after address generation.
func (q *LSQ) SetAddress(seq int64, addr uint64) {
	e := q.find(seq)
	if e == nil {
		panic(fmt.Sprintf("cache: SetAddress for unknown LSQ entry %d", seq))
	}
	if e.isStore {
		if e.addrKnown {
			q.known[q.bucket(e.addr)]--
		}
		q.known[q.bucket(addr)]++
	}
	e.addr = addr
	e.addrKnown = true
}

// bucket hashes an address to its known-store counter.
func (q *LSQ) bucket(addr uint64) uint64 {
	return (addr * 0x9e3779b97f4a7c15 >> 32) & q.knownMask
}

// SetStoreData marks the store's data operand as produced.
func (q *LSQ) SetStoreData(seq int64) {
	e := q.find(seq)
	if e == nil || !e.isStore {
		panic(fmt.Sprintf("cache: SetStoreData for non-store LSQ entry %d", seq))
	}
	e.dataReady = true
}

// LoadStatus classifies a load's disambiguation state.
type LoadStatus int

const (
	// LoadBlocked: an older store's address is unknown; retry later.
	LoadBlocked LoadStatus = iota
	// LoadForward: an older same-address store with ready data forwards.
	LoadForward
	// LoadWaitData: an older same-address store exists but its data is not
	// produced yet; retry later.
	LoadWaitData
	// LoadAccess: no conflict; the load may read the cache.
	LoadAccess
)

// String names the status.
func (s LoadStatus) String() string {
	switch s {
	case LoadBlocked:
		return "blocked"
	case LoadForward:
		return "forward"
	case LoadWaitData:
		return "wait-data"
	case LoadAccess:
		return "access"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// ProbeLoad evaluates disambiguation for the load with the given seq and
// address. The youngest older same-address store wins; forwarding counts
// only when this returns LoadForward. It also names the store the load
// waits on: the oldest store with an unknown address for LoadBlocked, the
// matching store for LoadWaitData (-1 otherwise). The load's status cannot
// change until that store's address or data arrives.
//
// No entry is scanned on the common path: the unknown cursor answers
// LoadBlocked, and an address with no known-address store answers
// LoadAccess. Only a load whose address bucket holds a live store walks
// back from itself to the youngest older match.
func (q *LSQ) ProbeLoad(seq int64, addr uint64) (LoadStatus, int64) {
	end := q.head + q.n
	for q.unknown < end {
		e := &q.buf[q.unknown&q.mask]
		if e.isStore && !e.addrKnown {
			if e.seq < seq {
				return LoadBlocked, e.seq
			}
			break
		}
		q.unknown++
	}
	if q.known[q.bucket(addr)] == 0 {
		return LoadAccess, -1
	}
	for i := q.lowerBound(seq) - 1; i >= 0; i-- {
		e := q.at(i)
		if !e.isStore || e.addr != addr {
			continue
		}
		if e.dataReady {
			q.ForwardHits++
			return LoadForward, -1
		}
		return LoadWaitData, e.seq
	}
	return LoadAccess, -1
}

// Release drops the entry at commit. Entries must be released in program
// order (the ROB guarantees this).
func (q *LSQ) Release(seq int64) {
	if q.n == 0 || q.at(0).seq != seq {
		panic(fmt.Sprintf("cache: LSQ release out of order: head=%v want %d", q.headSeq(), seq))
	}
	if e := q.at(0); e.isStore && e.addrKnown {
		q.known[q.bucket(e.addr)]--
	}
	q.head++
	q.n--
	if q.unknown < q.head {
		q.unknown = q.head
	}
}

func (q *LSQ) headSeq() int64 {
	if q.n == 0 {
		return -1
	}
	return q.at(0).seq
}

// Reset clears all entries (between runs).
func (q *LSQ) Reset() {
	q.head, q.n, q.unknown = 0, 0, 0
	clear(q.known)
	q.ForwardHits = 0
}
