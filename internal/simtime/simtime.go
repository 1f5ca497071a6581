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
	idx  int // heap index; -1 when not queued
	gen  uint32
	dead bool
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
type Queue struct {
	now    Time
	seq    uint64
	heap   []*Event
	free   []*Event // recycled event structs
	fired  uint64
	sched  uint64
	cancel uint64
}

// Now returns the current virtual time.
func (q *Queue) Now() Time { return q.now }

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.heap) }

// Stats returns counters of scheduled, fired, and cancelled events.
func (q *Queue) Stats() (scheduled, fired, cancelled uint64) {
	return q.sched, q.fired, q.cancel
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

// At schedules fn at absolute virtual time at. Scheduling in the past (or
// at the current instant) fires the event at the current time on the next
// Step; this is valid and used for "immediate" follow-up work. The returned
// EventRef may be passed to Cancel.
func (q *Queue) At(at Time, fn func(now Time)) EventRef {
	return q.AtArg(at, callFn, fn)
}

// callFn adapts At's payload-free callback, carried as the payload.
func callFn(now Time, fn any) { fn.(func(now Time))(now) }

// AtArg schedules fn(now, arg) at absolute virtual time at, with At's
// clamping and ordering. Passing per-event data as arg lets a caller
// reuse one long-lived fn instead of allocating a closure per event;
// a pointer (or func) arg is stored without allocating.
func (q *Queue) AtArg(at Time, fn func(now Time, arg any), arg any) EventRef {
	if at < q.now {
		at = q.now
	}
	e := q.alloc()
	e.At, e.fn, e.arg, e.seq, e.dead = at, fn, arg, q.seq, false
	q.seq++
	q.sched++
	q.push(e)
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
		q.remove(e.idx)
		q.cancel++
		q.release(e)
	}
}

// PeekTime returns the time of the next pending event, or Infinity if none.
func (q *Queue) PeekTime() Time {
	if len(q.heap) == 0 {
		return Infinity
	}
	return q.heap[0].At
}

// Step fires the earliest pending event, advancing the clock to its time.
// It returns false if the queue is empty.
func (q *Queue) Step() bool {
	for len(q.heap) > 0 {
		e := q.heap[0]
		q.remove(0)
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
	return false
}

// Run fires events until the queue drains or until the next event would be
// after deadline. It returns the number of events fired.
func (q *Queue) Run(deadline Time) int {
	n := 0
	for len(q.heap) > 0 && q.PeekTime() <= deadline {
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

// less orders events by time, breaking ties by scheduling sequence so
// same-instant events fire in FIFO order.
func (q *Queue) less(i, j int) bool {
	a, b := q.heap[i], q.heap[j]
	if a.At != b.At {
		return a.At < b.At
	}
	return a.seq < b.seq
}

func (q *Queue) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.heap[i].idx = i
	q.heap[j].idx = j
}

func (q *Queue) push(e *Event) {
	e.idx = len(q.heap)
	q.heap = append(q.heap, e)
	q.up(e.idx)
}

func (q *Queue) remove(i int) {
	n := len(q.heap) - 1
	e := q.heap[i]
	if i != n {
		q.swap(i, n)
	}
	q.heap[n] = nil
	q.heap = q.heap[:n]
	e.idx = -1
	if i < n {
		q.down(i)
		q.up(i)
	}
}

func (q *Queue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *Queue) down(i int) {
	n := len(q.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.swap(i, smallest)
		i = smallest
	}
}
