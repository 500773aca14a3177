package sim

import (
	"errors"
	"fmt"
	"math/bits"
)

// Priority orders events that share a timestamp. Lower values run first.
// It exists so that infrastructure events (e.g. freeing a CPU) can be
// ordered deterministically against user events at the same instant.
type Priority int

// Priority bands. The exact values are arbitrary; only relative order
// matters. They are spaced so callers can slot custom bands in between.
// Priorities must lie in [0, 1<<15): they are packed next to the insertion
// sequence in one comparison key.
const (
	PriorityHigh   Priority = 10
	PriorityNormal Priority = 20
	PriorityLow    Priority = 30
)

// maxPriority bounds the packable priority range.
const maxPriority = 1<<15 - 1

// EventID identifies a scheduled event so it can be cancelled. It encodes
// the event's slot and a per-slot generation, so lookup is two array reads —
// no hashing on the scheduling hot path. The zero value is never a valid ID
// (generations start at 1).
type EventID int64

// ErrHalted is returned by Run and RunUntil when the kernel was stopped
// explicitly via Stop.
var ErrHalted = errors.New("sim: kernel halted")

// event is one queue node. It deliberately contains no pointers: heap sifts
// and calendar moves are plain 24-byte copies with no write barriers, and
// the garbage collector never scans the queue. The event body (its
// callback) lives in the slot slab; gen detects stale nodes left behind by
// lazy cancellation.
type event struct {
	at   Time
	key  int64 // priority<<48 | insertion sequence: total order tie-breaker
	slot uint32
	gen  uint32
}

// before is the heap order: (at, pri, seq) lexicographically, with pri and
// seq packed into key. seq makes the order total, so the dispatch sequence
// is independent of the heap's internal arrangement.
func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.key < o.key
}

// slotEntry holds a scheduled event's callback. gen increments every time
// the slot is vacated (dispatch or cancel), invalidating outstanding
// EventIDs and any stale queue node still referring to the slot.
type slotEntry struct {
	fn  func()
	gen uint32
}

// Calendar geometry. A tick is 2^tickShift ns (about 1 ms). Level 0 has one
// bucket per tick of the current span, 2^l0Bits ticks (about 4.3 s); level 1
// has one slot per span, 2^l1Bits of them (the next 1 023 spans, about
// 73 min). The geometry is constants: there is no option and no heap-only path.
const (
	tickShift = 20
	l0Bits    = 12
	l1Bits    = 10
	spanShift = tickShift + l0Bits
	l0Len     = 1 << l0Bits
	l1Len     = 1 << l1Bits
)

// wheelNode is an event waiting in a calendar bucket. Buckets are singly
// linked lists threaded by index (0 is the nil link) through one node slab,
// so the calendar's storage is sized by the events it holds, not by its
// bucket count, and holds no pointer either. Vacant nodes form a free chain
// through the same links.
type wheelNode struct {
	ev   event
	next uint32
}

// nodeBlock is one fixed block of the node slab. The slab grows a block at
// a time and never copies or frees one, so the calendar allocates what it
// holds at its peak, once — a slice grown by append would allocate several
// times that over a run.
type nodeBlock [1 << nodeBlockBits]wheelNode

const nodeBlockBits = 8 // 256 nodes, 8 KiB

// Kernel is a single-threaded discrete-event scheduler.
//
// Pending events live in two places. A 4-ary heap holds every event due
// before the horizon (a tick boundary at or just past the current time)
// and anything beyond level 1's reach; a two-level calendar holds the rest,
// unsorted, in tick buckets. The horizon invariant — every calendar event
// is due at or after the horizon — makes the heap minimum the earliest
// pending event whenever it lies before the horizon; when it does not (or
// the heap is empty) the earliest occupied bucket spills into the heap and
// the horizon moves past it. The heap therefore decides every dispatch, by
// the same total (at, priority, seq) order as a heap holding everything:
// the calendar only defers sorting what is not due soon.
//
// The zero value is not usable; construct with NewKernel. A Kernel must be
// driven from a single goroutine; it performs no locking.
type Kernel struct {
	now       Time
	events    []event // 4-ary heap ordered by event.before
	slots     []slotEntry
	freeSlots []uint32
	nextSeq   int64
	live      int // scheduled and not yet dispatched or cancelled
	halted    bool
	running   bool
	executed  int64

	// horizon is a tick boundary: calendar events are due at or after it,
	// and it only moves forward, by spill.
	horizon  Time
	wheeled  int          // nodes in the calendar, cancelled ones included
	nodes    []*nodeBlock // node slab, indexed through node
	fresh    uint32       // next never-used node; node 0 is the nil link
	freeNode uint32       // head of the vacant-node chain
	// l0 holds the current span (horizon>>spanShift) by tick; l1 the next
	// l1Len-1 spans by span. Heads index nodes; the bitmaps mark non-empty
	// buckets so a spill skips empty ones a word at a time.
	l0     [l0Len]uint32
	l1     [l1Len]uint32
	l0Used [l0Len / 64]uint64
	l1Used [l1Len / 64]uint64
}

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel {
	return &Kernel{fresh: 1}
}

// Now reports the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Executed reports how many events have been dispatched so far.
func (k *Kernel) Executed() int64 { return k.executed }

// Pending reports how many events are currently scheduled.
func (k *Kernel) Pending() int { return k.live }

// Schedule arranges for fn to run after delay (which may be zero) at normal
// priority, returning an ID usable with Cancel. Negative delays are an
// error: scheduling into the past would break causality, so Schedule panics,
// as this always indicates a bug in the calling model.
func (k *Kernel) Schedule(delay Time, fn func()) EventID {
	return k.SchedulePri(delay, PriorityNormal, fn)
}

// ScheduleAt is Schedule with an absolute timestamp, which must not precede
// the current time.
func (k *Kernel) ScheduleAt(at Time, fn func()) EventID {
	return k.SchedulePriAt(at, PriorityNormal, fn)
}

// SchedulePri is Schedule with an explicit priority band.
func (k *Kernel) SchedulePri(delay Time, pri Priority, fn func()) EventID {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return k.SchedulePriAt(k.now+delay, pri, fn)
}

// SchedulePriAt is ScheduleAt with an explicit priority band.
func (k *Kernel) SchedulePriAt(at Time, pri Priority, fn func()) EventID {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling into the past: at=%v now=%v", at, k.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	if pri < 0 || pri > maxPriority {
		panic(fmt.Sprintf("sim: priority %d outside [0, %d]", pri, maxPriority))
	}
	var slot uint32
	if n := len(k.freeSlots); n > 0 {
		slot = k.freeSlots[n-1]
		k.freeSlots = k.freeSlots[:n-1]
	} else {
		k.slots = append(k.slots, slotEntry{gen: 1})
		slot = uint32(len(k.slots) - 1)
	}
	s := &k.slots[slot]
	s.fn = fn
	k.nextSeq++
	k.enqueue(event{at: at, key: int64(pri)<<48 | k.nextSeq, slot: slot, gen: s.gen})
	k.live++
	return EventID(int64(slot)<<32 | int64(s.gen))
}

// enqueue files ev where the horizon invariant puts it: the heap if it is
// due before the horizon, level 0 if it falls in the current span, level 1
// if in one of the next l1Len-1 spans, and the heap again beyond that.
func (k *Kernel) enqueue(ev event) {
	if ev.at < k.horizon {
		k.push(ev)
		return
	}
	span, cur := ev.at>>spanShift, k.horizon>>spanShift
	switch {
	case span == cur:
		b := int(ev.at>>tickShift) & (l0Len - 1)
		k.l0[b] = k.link(ev, k.l0[b])
		k.l0Used[b>>6] |= 1 << (b & 63)
	case span-cur < l1Len:
		s := int(span) & (l1Len - 1)
		k.l1[s] = k.link(ev, k.l1[s])
		k.l1Used[s>>6] |= 1 << (s & 63)
	default:
		k.push(ev)
	}
}

// link stores ev in a vacant node ahead of next and returns its index.
func (k *Kernel) link(ev event, next uint32) uint32 {
	k.wheeled++
	i := k.freeNode
	if i != 0 {
		k.freeNode = k.node(i).next
	} else {
		i = k.fresh
		k.fresh++
		if int(i>>nodeBlockBits) == len(k.nodes) {
			// one block per 256 events the calendar holds at its peak; never freed, reused through the vacant chain
			k.nodes = append(k.nodes, new(nodeBlock))
		}
	}
	*k.node(i) = wheelNode{ev: ev, next: next}
	return i
}

// node returns node i of the slab.
func (k *Kernel) node(i uint32) *wheelNode {
	return &k.nodes[i>>nodeBlockBits][i&(1<<nodeBlockBits-1)]
}

// settle makes the heap minimum the next event due, and reports whether
// any event is queued. Its test is the dispatch loop's only added cost
// while the heap minimum lies before the horizon.
func (k *Kernel) settle() bool {
	if len(k.events) == 0 || k.events[0].at >= k.horizon {
		k.spill()
	}
	return len(k.events) > 0
}

// spill runs while the heap is empty or its minimum is not before the
// horizon — a bucket may hold something earlier — and the calendar is not
// empty. Each round moves the earliest occupied level-0 bucket into the
// heap and sets the horizon to the end of its tick; when the current span
// has none left, the horizon first jumps to the next occupied span, whose
// level-1 slot cascades into level 0.
func (k *Kernel) spill() {
	for k.wheeled > 0 && (len(k.events) == 0 || k.events[0].at >= k.horizon) {
		cur := k.horizon >> spanShift
		if b := nextUsed(k.l0Used[:], int(k.horizon>>tickShift)&(l0Len-1)); b >= 0 {
			k.drain(b)
			k.advance(cur<<spanShift + Time(b+1)<<tickShift)
			continue
		}
		s := nextUsed(k.l1Used[:], int(cur+1)&(l1Len-1))
		if s < 0 {
			s = nextUsed(k.l1Used[:], 0)
		}
		ahead := Time(s-int(cur)) & (l1Len - 1) // 1 … l1Len-1 spans
		k.advance((cur + ahead) << spanShift)
	}
}

// drain empties level-0 bucket b into the heap. Cancelled events are
// dropped here rather than carried into the heap, and every node returns
// to the vacant chain.
func (k *Kernel) drain(b int) {
	i := k.l0[b]
	k.l0[b] = 0
	k.l0Used[b>>6] &^= 1 << (b & 63)
	for i != 0 {
		n := k.node(i)
		if !k.stale(n.ev) {
			k.push(n.ev)
		}
		next := n.next
		n.next = k.freeNode
		k.freeNode = i
		k.wheeled--
		i = next
	}
}

// advance moves the horizon to h; entering a new span cascades that span's
// level-1 slot into level 0. A jump over several spans only ever passes
// empty slots.
func (k *Kernel) advance(h Time) {
	cur := k.horizon >> spanShift
	k.horizon = h
	if span := h >> spanShift; span != cur {
		k.cascade(int(span) & (l1Len - 1))
	}
}

// cascade relinks level-1 slot s, which holds exactly the span the horizon
// just entered, into level 0 by tick. Nodes move; nothing is copied.
func (k *Kernel) cascade(s int) {
	i := k.l1[s]
	k.l1[s] = 0
	k.l1Used[s>>6] &^= 1 << (s & 63)
	for i != 0 {
		n := k.node(i)
		next := n.next
		b := int(n.ev.at>>tickShift) & (l0Len - 1)
		n.next = k.l0[b]
		k.l0[b] = i
		k.l0Used[b>>6] |= 1 << (b & 63)
		i = next
	}
}

// nextUsed returns the first set bit of used at or after index from, or -1.
func nextUsed(used []uint64, from int) int {
	w := from >> 6
	if m := used[w] >> (from & 63); m != 0 {
		return from + bits.TrailingZeros64(m)
	}
	for w++; w < len(used); w++ {
		if used[w] != 0 {
			return w<<6 + bits.TrailingZeros64(used[w])
		}
	}
	return -1
}

// The heap is 4-ary: half the depth of a binary heap, so pops touch fewer
// cache lines, and the four children of a node share two cache lines. The
// comparator is total (seq tie-break), so the dispatch order is identical
// whatever the arity — and whatever the calendar has not yet spilled.

// push appends ev and restores the heap invariant (sift up).
func (k *Kernel) push(ev event) {
	// amortised heap growth; the backing array is reused across pops
	h := append(k.events, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	k.events = h
}

// pop removes and returns the heap minimum (sift down). The heap must be
// non-empty.
func (k *Kernel) pop() event {
	h := k.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	k.events = h
	if n > 0 {
		i := 0
		for {
			child := 4*i + 1
			if child >= n {
				break
			}
			end := min(child+4, n)
			for c := child + 1; c < end; c++ {
				if h[c].before(h[child]) {
					child = c
				}
			}
			if !h[child].before(last) {
				break
			}
			h[i] = h[child]
			i = child
		}
		h[i] = last
	}
	return top
}

// vacate clears a slot after dispatch or cancellation: the generation bump
// invalidates the slot's EventID and any stale queue node, and the slot
// returns to the free list for reuse.
func (k *Kernel) vacate(slot uint32) {
	s := &k.slots[slot]
	s.fn = nil
	s.gen++
	if s.gen == 0 { // wrapped: 0 is reserved for "never valid"
		s.gen = 1
	}
	k.freeSlots = append(k.freeSlots, slot)
	k.live--
}

// Cancel removes a pending event. It reports whether the event was still
// pending (false if it already ran, was cancelled, or never existed).
// Cancellation is lazy: the slot is freed immediately but the queue node
// stays where it is — heap or calendar — until popped or spilled, where the
// generation mismatch discards it, keeping Cancel O(1).
func (k *Kernel) Cancel(id EventID) bool {
	slot := uint32(id >> 32)
	gen := uint32(id)
	if int(slot) >= len(k.slots) {
		return false
	}
	if s := &k.slots[slot]; s.gen != gen || s.fn == nil {
		return false
	}
	k.vacate(slot)
	return true
}

// stale reports whether a queued node was cancelled (its slot has moved on).
func (k *Kernel) stale(ev event) bool {
	s := &k.slots[ev.slot]
	return s.gen != ev.gen || s.fn == nil
}

// Step dispatches the next pending event, if any, and reports whether one
// was dispatched.
func (k *Kernel) Step() bool {
	for k.settle() {
		ev := k.pop()
		if k.stale(ev) {
			continue
		}
		if ev.at < k.now {
			panic(fmt.Sprintf("sim: time went backwards: event at %v, now %v", ev.at, k.now))
		}
		fn := k.slots[ev.slot].fn
		k.vacate(ev.slot)
		k.now = ev.at
		k.executed++
		fn()
		return true
	}
	return false
}

// Run dispatches events until none remain or Stop is called. It returns
// ErrHalted if stopped, nil otherwise.
func (k *Kernel) Run() error {
	return k.RunUntil(Time(1<<63 - 1))
}

// RunUntil dispatches events with timestamps at or before limit. The clock
// is left at the time of the last dispatched event (it does not jump to
// limit). Returns ErrHalted if Stop was called.
func (k *Kernel) RunUntil(limit Time) error {
	if k.running {
		return errors.New("sim: kernel already running")
	}
	k.running = true
	k.halted = false
	defer func() { k.running = false }()
	for !k.halted && k.settle() {
		next := k.events[0]
		if k.stale(next) {
			k.pop()
			continue
		}
		if next.at > limit {
			return nil
		}
		k.Step()
	}
	if k.halted {
		return ErrHalted
	}
	return nil
}

// Stop halts Run/RunUntil after the current event completes. It is safe to
// call from within an event handler.
func (k *Kernel) Stop() { k.halted = true }
