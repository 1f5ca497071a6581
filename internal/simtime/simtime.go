// Package simtime provides the virtual clock and event queue that drive the
// discrete-event simulations in this repository.
//
// Virtual time is represented as time.Duration since simulation start,
// giving nanosecond resolution and readable formatting for free. The event
// queue is an indexed binary min-heap keyed by (time, sequence) so that
// events scheduled for the same instant fire in FIFO order, which keeps
// simulations deterministic.
//
// A Queue never advances on its own: Step (or Run/RunAll) pops the
// earliest event and moves Now to its time, so whoever calls Step owns
// the pace of time. cpusim.Engine.Run steps one queue to completion;
// the cluster layer instead interleaves many queues by always stepping
// the engine whose next event is globally earliest. Scheduling At a
// time already in the past is clamped to Now and fires on the next
// Step — the idiom for "immediate" follow-up work. Cancel is O(log n)
// and safe on already-fired events, which is what lets schedulers
// re-arm timers without bookkeeping.
//
// Event structs are pooled: once an event fires or is cancelled, its
// struct is recycled for a later At/After call. An event that needs
// per-instance data carries it as a payload (AtArg) instead of in a
// fresh closure, so a caller that builds its callbacks once schedules
// events without allocating, and steady-state simulations allocate no
// event memory at all. Handles are therefore
// value-type EventRefs carrying a generation counter — a ref to a
// recycled event simply stops matching, which keeps Cancel on stale
// handles a safe no-op instead of a use-after-free on someone else's
// timer.
package simtime

import "time"

// Time is virtual time since simulation start.
type Time = time.Duration

// Infinity is a sentinel virtual time later than any event a simulation
// will schedule.
const Infinity Time = 1<<63 - 1

// Event is a callback scheduled to fire at a virtual time: fn(now, arg).
// Event structs are owned and recycled by the Queue; callers hold
// EventRef handles.
type Event struct {
	At   Time
	fn   func(now Time, arg any)
	arg  any
	seq  uint64
	idx  int // index in its partition's heap; -1 when not queued
	gen  uint32
	dead bool
	// local marks an event in the local partition (see Queue).
	local bool
}

// EventRef is a value handle to a scheduled event. The zero EventRef is
// valid and refers to no event. Because event structs are recycled, a
// ref is only live while its generation matches; Cancel and Cancelled
// on a stale ref (fired, cancelled, or recycled) are safe no-ops.
type EventRef struct {
	e   *Event
	gen uint32
}

// Cancelled reports whether the referenced event is no longer pending:
// it fired, was cancelled, or its struct was recycled for a newer event.
// The zero EventRef reports false.
func (r EventRef) Cancelled() bool {
	return r.e != nil && (r.e.gen != r.gen || r.e.dead)
}

// Queue is a deterministic discrete-event queue. The zero value is ready to
// use. Queue is not safe for concurrent use; simulations are single
// threaded by design.
//
// Pending events live in two partitions, global and local, ordered by
// the same (time, sequence) key and numbered from one sequence counter,
// so Step fires the union in exactly the order a single heap would. The
// split only matters to a driver interleaving many queues: a local
// event is one its owner has certified no other queue can observe, so
// the driver may order queues by PeekGlobal and let local events fire
// lazily (see cpusim.Engine.NextVisibleEventTime).
type Queue struct {
	now    Time
	seq    uint64
	global partition
	local  partition
	free   []*Event // recycled event structs
	fired  uint64
	sched  uint64
	cancel uint64
}

// Now returns the current virtual time.
func (q *Queue) Now() Time { return q.now }

// Len returns the number of pending events in both partitions.
func (q *Queue) Len() int { return len(q.global) + len(q.local) }

// Stats returns counters of scheduled, fired, and cancelled events.
func (q *Queue) Stats() (scheduled, fired, cancelled uint64) {
	return q.sched, q.fired, q.cancel
}

// ReserveLocal sizes the local partition for n pending events, so
// scheduling up to n local events at once never allocates.
func (q *Queue) ReserveLocal(n int) {
	if cap(q.local) < n {
		q.local = append(make(partition, 0, n), q.local...)
	}
}

// alloc takes an event struct from the free list or the heap allocator.
func (q *Queue) alloc() *Event {
	if n := len(q.free); n > 0 {
		e := q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		return e
	}
	return &Event{}
}

// release returns a finished event struct to the free list, bumping its
// generation so outstanding refs to its previous life go stale.
func (q *Queue) release(e *Event) {
	e.gen++
	e.fn, e.arg = nil, nil
	q.free = append(q.free, e)
}

// part returns the partition holding e.
func (q *Queue) part(e *Event) *partition {
	if e.local {
		return &q.local
	}
	return &q.global
}

// At schedules fn at absolute virtual time at. Scheduling in the past (or
// at the current instant) fires the event at the current time on the next
// Step; this is valid and used for "immediate" follow-up work. The returned
// EventRef may be passed to Cancel.
func (q *Queue) At(at Time, fn func(now Time)) EventRef {
	return q.schedule(at, callFn, fn, false)
}

// callFn adapts At's payload-free callback, carried as the payload.
func callFn(now Time, fn any) { fn.(func(now Time))(now) }

// AtArg schedules fn(now, arg) at absolute virtual time at, with At's
// clamping and ordering. Passing per-event data as arg lets a caller
// reuse one long-lived fn instead of allocating a closure per event;
// a pointer (or func) arg is stored without allocating.
func (q *Queue) AtArg(at Time, fn func(now Time, arg any), arg any) EventRef {
	return q.schedule(at, fn, arg, false)
}

// AtArgLocal is AtArg into the local partition.
func (q *Queue) AtArgLocal(at Time, fn func(now Time, arg any), arg any) EventRef {
	return q.schedule(at, fn, arg, true)
}

func (q *Queue) schedule(at Time, fn func(now Time, arg any), arg any, local bool) EventRef {
	if at < q.now {
		at = q.now
	}
	e := q.alloc()
	e.At, e.fn, e.arg, e.seq, e.dead, e.local = at, fn, arg, q.seq, false, local
	q.seq++
	q.sched++
	q.part(e).push(e)
	return EventRef{e: e, gen: e.gen}
}

// After schedules fn after delay d from the current virtual time.
func (q *Queue) After(d Time, fn func(now Time)) EventRef {
	if d < 0 {
		d = 0
	}
	return q.At(q.now+d, fn)
}

// Cancel removes a pending event. Cancelling a zero, already-fired,
// already-cancelled, or recycled ref is a no-op.
func (q *Queue) Cancel(r EventRef) {
	e := r.e
	if e == nil || e.gen != r.gen || e.dead {
		return
	}
	e.dead = true
	if e.idx >= 0 {
		q.part(e).remove(e.idx)
		q.cancel++
		q.release(e)
	}
}

// LocalLen returns the number of pending local events.
func (q *Queue) LocalLen() int { return len(q.local) }

// LocalArg returns the payload of the i'th pending local event, in no
// particular order; 0 <= i < LocalLen().
func (q *Queue) LocalArg(i int) any { return q.local[i].arg }

// DemoteLocal moves every local event whose payload keep rejects into
// the global partition, keeping its time and sequence, so the firing
// order is unchanged. It returns the number of events moved.
func (q *Queue) DemoteLocal(keep func(arg any) bool) int {
	kept, moved := q.local[:0], 0
	for _, e := range q.local {
		if keep(e.arg) {
			e.idx = len(kept)
			kept = append(kept, e)
			continue
		}
		e.local = false
		q.global.push(e)
		moved++
	}
	if moved == 0 {
		return 0
	}
	clear(q.local[len(kept):])
	q.local = kept
	for i := len(kept)/2 - 1; i >= 0; i-- {
		kept.down(i)
	}
	return moved
}

// PeekTime returns the time of the next pending event, or Infinity if none.
func (q *Queue) PeekTime() Time {
	at, _ := q.Peek()
	return at
}

// PeekGlobal returns the time of the next pending global event, or
// Infinity if none.
func (q *Queue) PeekGlobal() Time {
	if len(q.global) == 0 {
		return Infinity
	}
	return q.global[0].At
}

// Peek returns the time of the next pending event and whether it is
// local; (Infinity, false) when the queue is empty.
func (q *Queue) Peek() (at Time, local bool) {
	e := q.head()
	if e == nil {
		return Infinity, false
	}
	return e.At, e.local
}

// head returns the next event in (time, sequence) order across both
// partitions, or nil.
func (q *Queue) head() *Event {
	switch {
	case len(q.local) == 0:
		if len(q.global) == 0 {
			return nil
		}
		return q.global[0]
	case len(q.global) == 0:
		return q.local[0]
	}
	if g, l := q.global[0], q.local[0]; before(l, g) {
		return l
	}
	return q.global[0]
}

// Step fires the earliest pending event, advancing the clock to its time.
// It returns false if the queue is empty.
func (q *Queue) Step() bool {
	for {
		e := q.head()
		if e == nil {
			return false
		}
		q.part(e).remove(0)
		if e.dead {
			q.release(e)
			continue
		}
		q.now = e.At
		e.dead = true
		q.fired++
		fn, arg := e.fn, e.arg
		q.release(e)
		fn(q.now, arg)
		return true
	}
}

// Run fires events until the queue drains or until the next event would be
// after deadline. It returns the number of events fired.
func (q *Queue) Run(deadline Time) int {
	n := 0
	for q.Len() > 0 && q.PeekTime() <= deadline {
		if q.Step() {
			n++
		}
	}
	if q.now < deadline && deadline < Infinity {
		q.now = deadline
	}
	return n
}

// RunAll fires events until the queue is drained and returns the count.
func (q *Queue) RunAll() int {
	n := 0
	for q.Step() {
		n++
	}
	return n
}

// before orders events by time, breaking ties by scheduling sequence so
// same-instant events fire in FIFO order.
func before(a, b *Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.seq < b.seq
}

// partition is one indexed binary min-heap of pending events.
type partition []*Event

func (h partition) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}

func (h *partition) push(e *Event) {
	e.idx = len(*h)
	*h = append(*h, e)
	h.up(e.idx)
}

func (h *partition) remove(i int) {
	s := *h
	n := len(s) - 1
	e := s[i]
	if i != n {
		s.swap(i, n)
	}
	s[n] = nil
	*h = s[:n]
	e.idx = -1
	if i < n {
		h.down(i)
		h.up(i)
	}
}

func (h partition) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !before(h[i], h[parent]) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h partition) down(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && before(h[l], h[smallest]) {
			smallest = l
		}
		if r < n && before(h[r], h[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}
