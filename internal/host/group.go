package host

import (
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
)

// submission is one placed invocation traveling to its runtime: it was
// assigned by a dispatcher and will enter the runtime's engine at `at`
// during the group's next Advance window.
type submission struct {
	t   *task.Task
	at  simtime.Time
	idx int // group-local runtime index
}

// Group drives a fleet of Runtimes in global next-event order. It is
// the host-advance core both cluster loops share: the serial loop
// steps the globally-earliest runtime one event at a time (Min, Step,
// Deliver), while the sharded engine builds one Group per shard and
// advances whole windows (Enqueue, Advance) — either way every event
// and delivery flows through the same primitives, so replays are
// byte-identical at any partitioning.
//
// The order is over visible events only (cpusim.Engine's
// NextVisibleEventTime): slice renewals a scheduler certifies stay
// local to their engine and fire lazily, inside Step or in the
// catch-up that precedes every delivery, so they never re-key the
// heap. Each engine still fires all of its own events in its own
// order, and hosts interact only through deliveries, so results are
// those of a strict (time, host index) order over every event.
type Group struct {
	rts     []*Runtime
	hh      *Heap[simtime.Time]
	subs    []submission // time-ordered; coordinator appends, Advance consumes
	subHead int
	// touched lists, in first-touch order, the runtimes the last
	// Advance stepped or delivered to; inTouched marks them.
	touched   []int
	inTouched []bool
}

// NewGroup builds a group over rts. The runtimes must be fresh: their
// engines hold no work, so every heap key starts at Infinity.
func NewGroup(rts []*Runtime) *Group {
	return &Group{
		rts:       rts,
		hh:        NewHeap(len(rts), simtime.Infinity),
		touched:   make([]int, 0, len(rts)),
		inTouched: make([]bool, len(rts)),
	}
}

// Len is the number of runtimes in the group.
func (g *Group) Len() int { return len(g.rts) }

// Runtime returns the i'th runtime.
func (g *Group) Runtime(i int) *Runtime { return g.rts[i] }

// Min returns the runtime with the earliest visible engine event
// (lowest index on ties) and that event's time; idle runtimes report
// simtime.Infinity.
func (g *Group) Min() (idx int, at simtime.Time) { return g.hh.Min() }

// Step fires runtime i's next visible event, with the local events
// due before it, and re-keys the runtime.
func (g *Group) Step(i int) {
	eng := g.rts[i].eng
	eng.StepVisible(g.hh.key[i])
	g.hh.Update(i, eng.NextVisibleEventTime())
}

// Deliver hands t to runtime i at instant `at` — through the runtime's
// full stage pipeline — and re-keys it. This is the serial path's
// immediate delivery; Advance uses it for queued submissions.
//
// after places the delivery among the runtime's own events at `at`:
// it follows them when i < after and precedes them otherwise, the
// order a strict (time, host index) loop gives work released by runtime
// `after`'s event at that instant. Trace arrivals and submissions,
// which follow every same-instant host event, pass Len().
func (g *Group) Deliver(i int, at simtime.Time, t *task.Task, after int) {
	eng := g.rts[i].eng
	eng.CatchUp(at, i < after)
	g.rts[i].Place(at, t)
	g.hh.Update(i, eng.NextVisibleEventTime())
}

// CatchUp fires every runtime's local events up to and including at.
// A driver that stops at a deadline calls it first, so each engine
// ends where a strict event order would have left it.
func (g *Group) CatchUp(at simtime.Time) {
	for _, rt := range g.rts {
		rt.eng.CatchUp(at, true)
	}
}

// Enqueue defers delivery of t to runtime i until Advance reaches
// instant `at`. Submissions must be enqueued in non-decreasing `at`
// order (the sharded coordinator's dispatch order guarantees this);
// the runtime's Queued count reflects the assignment immediately so
// dispatchers see same-window placements.
func (g *Group) Enqueue(i int, at simtime.Time, t *task.Task) {
	g.subs = append(g.subs, submission{t: t, at: at, idx: i})
	g.rts[i].queued++
}

// NextSubmissionTime is the delivery instant of the earliest
// undelivered submission, or simtime.Infinity when none are queued.
func (g *Group) NextSubmissionTime() simtime.Time {
	if g.subHead < len(g.subs) {
		return g.subs[g.subHead].at
	}
	return simtime.Infinity
}

// Advance runs the group's runtimes up to (but excluding) bound,
// interleaving queued submissions with engine events in exact time
// order — engine events first on ties, as everywhere else — and
// returns the number of tasks that completed. Between barriers a
// sharded window touches its group only through this method.
//
// Only the runtimes the window steps or delivers to can change, so
// Advance records them (see Touched) and counts completions over them
// alone: the per-window cost scales with the work done, not with the
// group's size.
func (g *Group) Advance(bound simtime.Time) (completions int) {
	for _, i := range g.touched {
		g.inTouched[i] = false
	}
	g.touched = g.touched[:0]
	pendingBefore, submitted := 0, 0
	for {
		hi, ht := g.hh.Min()
		st := g.NextSubmissionTime()
		if ht >= bound && st >= bound {
			break
		}
		if ht <= st {
			// Engine events fire before same-instant submissions, exactly
			// as the serial loop fires host events before same-instant
			// arrivals.
			pendingBefore += g.touch(hi)
			g.Step(hi)
			continue
		}
		sub := g.subs[g.subHead]
		g.subHead++
		pendingBefore += g.touch(sub.idx)
		g.rts[sub.idx].queued--
		g.Deliver(sub.idx, sub.at, sub.t, len(g.rts))
		submitted++
	}
	pendingAfter := 0
	for _, i := range g.touched {
		pendingAfter += g.rts[i].eng.Pending()
	}
	if g.subHead == len(g.subs) {
		g.subs = g.subs[:0]
		g.subHead = 0
	}
	return pendingBefore + submitted - pendingAfter
}

// touch records runtime i as touched by the current window and, on its
// first touch, returns its pending count from before the window.
func (g *Group) touch(i int) (pendingBefore int) {
	if g.inTouched[i] {
		return 0
	}
	g.inTouched[i] = true
	g.touched = append(g.touched, i)
	return g.rts[i].eng.Pending()
}

// Touched returns the group-local indices of the runtimes the last
// Advance stepped or delivered to, in first-touch order. Every other
// runtime's engine and assignment count are unchanged by that window,
// which lets the coordinator re-key only these hosts in its fleet load
// index. The slice is valid until the next Advance.
func (g *Group) Touched() []int { return g.touched }
