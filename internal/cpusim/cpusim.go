// Package cpusim is a deterministic discrete-event simulator of a
// multicore machine running an OS task scheduler.
//
// The engine owns virtual time, the cores, and all task lifecycle
// accounting; a pluggable Scheduler (internal/sched, internal/core)
// decides which task runs where and for how long. The engine model is
// event-level rather than tick-level: when a task is dispatched the engine
// computes the next interesting instant (completion, I/O block, or slice
// expiry) and schedules a single event for it, which keeps multi-hour
// workloads with hundreds of thousands of slices cheap to simulate.
package cpusim

import (
	"fmt"
	"math"
	"time"

	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
)

// DescheduleReason explains why a task left a core.
type DescheduleReason int

// Deschedule reasons.
const (
	ReasonPreempted DescheduleReason = iota // slice expired or higher-priority task took the core
	ReasonBlocked                           // task started a blocking I/O op
	ReasonFinished                          // task completed
)

// String implements fmt.Stringer.
func (r DescheduleReason) String() string {
	switch r {
	case ReasonPreempted:
		return "preempted"
	case ReasonBlocked:
		return "blocked"
	case ReasonFinished:
		return "finished"
	default:
		return fmt.Sprintf("reason(%d)", int(r))
	}
}

// API is the engine surface exposed to schedulers. Schedulers use it to
// read core state, schedule their own timer events (e.g. the SFS monitor
// and pollers), and request re-scheduling of a core.
type API interface {
	// Now returns the current virtual time.
	Now() simtime.Time
	// NumCores returns the number of simulated cores.
	NumCores() int
	// Running returns the task currently on core, or nil if idle.
	Running(core int) *task.Task
	// RanFor returns how long the current task on core has been running
	// in its current stint (0 if the core is idle).
	RanFor(core int) time.Duration
	// After schedules fn at now+d; the returned ref may be cancelled.
	After(d time.Duration, fn func(now simtime.Time)) simtime.EventRef
	// Cancel cancels a pending event scheduled via After. Cancelling a
	// zero or stale ref is a safe no-op.
	Cancel(ev simtime.EventRef)
	// Reschedule asks the engine to reconsider core: if idle, PickNext is
	// invoked; if busy and the scheduler's WantsPreempt(core) returns
	// true, the current task is preempted first.
	Reschedule(core int)
}

// Scheduler is the policy plugged into the engine. Implementations own
// the runnable set; the engine owns running tasks and all accounting.
type Scheduler interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Bind hands the scheduler its engine API before the run starts.
	Bind(api API)
	// Enqueue delivers a task that just became runnable (arrival or I/O
	// wake). The engine has already marked it runnable.
	Enqueue(now simtime.Time, t *task.Task)
	// PickNext selects the task to run on core and the slice budget it
	// may use (0 means run until completion or block). Returning nil
	// leaves the core idle until the next Enqueue or Reschedule.
	PickNext(now simtime.Time, core int) (*task.Task, time.Duration)
	// Descheduled notifies the scheduler that t left core after running
	// for ran. On ReasonPreempted the task is runnable again and the
	// scheduler must retain it for a future PickNext. On ReasonBlocked
	// the task will be re-delivered via Enqueue when it wakes. On
	// ReasonFinished the task is gone.
	Descheduled(now simtime.Time, core int, t *task.Task, ran time.Duration, reason DescheduleReason)
	// WantsPreempt reports whether the scheduler would rather run a
	// different runnable task on core right now. The engine calls it
	// after enqueues and reschedules; returning true triggers a
	// preemption followed by PickNext.
	WantsPreempt(now simtime.Time, core int) bool
}

// coreState tracks what a simulated core is doing.
type coreState struct {
	cur      *task.Task
	runStart simtime.Time
	budget   time.Duration // slice given at dispatch (0 = unbounded)
	penalty  time.Duration // context-switch cost folded into this stint
	event    simtime.EventRef
	lastTask *task.Task    // previous occupant, for switch-cost accounting
	busyTime time.Duration // total core time consumed (incl. switch cost)
	// cpuBudget is the CPU progress the pending stint will charge when
	// its event fires. On a unit-speed host it equals the stint's wall
	// length minus the switch penalty; on speed-scaled hosts the two
	// differ (see Config.Speed), and charging the precomputed budget —
	// rather than re-deriving CPU from wall time — keeps completions
	// landing exactly on Service with no floating-point drift.
	cpuBudget time.Duration

	// fire is the core's stint-end callback, built once at engine
	// construction so the hot path schedules events without allocating
	// a closure per stint. fireReason is the pending stint's end reason;
	// only one stint event is ever outstanding per core, so a single
	// slot suffices.
	fire       func(now simtime.Time)
	fireReason DescheduleReason
}

// Config parameterizes an engine run.
type Config struct {
	Cores int
	// CtxSwitchCost models the direct cost of switching a core to a
	// different task: each such stint is lengthened by this amount
	// before the task makes CPU progress. Zero disables it.
	CtxSwitchCost time.Duration
	// Deadline aborts the simulation at this virtual time if tasks are
	// still unfinished (0 = no deadline). Used by tests to bound runs.
	Deadline simtime.Time
	// Speed is the host's relative CPU speed: a task's CPU demand is
	// consumed at Speed nanoseconds of progress per wall nanosecond, so
	// a 2.0 host finishes pure-CPU work in half the wall time and a 0.5
	// host in double. Task Service/CPUUsed stay in demand (unit-speed)
	// terms; only wall durations scale. Zero means 1.0 (every existing
	// caller is byte-unchanged); negative panics in NewEngine.
	// Heterogeneous-fleet simulations (internal/cluster Config.Speeds)
	// are the consumer.
	Speed float64
}

// Engine simulates a multicore machine under one scheduler.
type Engine struct {
	cfg     Config
	q       *simtime.Queue
	sched   Scheduler
	cores   []coreState
	busy    int // cores with a current task, kept where coreState.cur changes
	pending int // tasks not yet finished
	tasks   []*task.Task

	// TotalCtxSwitches counts involuntary preemptions across all tasks.
	TotalCtxSwitches int64
	// TotalDispatches counts task placements on cores.
	TotalDispatches int64
	// SwitchOverhead accumulates core time lost to CtxSwitchCost.
	SwitchOverhead time.Duration
	aborted        bool
	tracer         func(TraceEvent)
	speed          float64 // normalized Config.Speed (never 0)
}

// NewEngine constructs an engine for the given scheduler. It panics on a
// non-positive core count.
func NewEngine(cfg Config, s Scheduler) *Engine {
	if cfg.Cores <= 0 {
		panic("cpusim: need at least one core")
	}
	if cfg.Speed < 0 || math.IsNaN(cfg.Speed) {
		panic("cpusim: negative speed factor")
	}
	if cfg.Speed == 0 {
		cfg.Speed = 1
	}
	e := &Engine{
		cfg:   cfg,
		q:     &simtime.Queue{},
		sched: s,
		cores: make([]coreState, cfg.Cores),
		speed: cfg.Speed,
	}
	for i := range e.cores {
		i := i
		e.cores[i].fire = func(now simtime.Time) {
			e.coreEvent(now, i, e.cores[i].fireReason)
		}
	}
	s.Bind(e)
	return e
}

// Now implements API.
func (e *Engine) Now() simtime.Time { return e.q.Now() }

// NumCores implements API.
func (e *Engine) NumCores() int { return len(e.cores) }

// Running implements API.
func (e *Engine) Running(core int) *task.Task { return e.cores[core].cur }

// RanFor implements API.
func (e *Engine) RanFor(core int) time.Duration {
	c := &e.cores[core]
	if c.cur == nil {
		return 0
	}
	return e.q.Now() - c.runStart
}

// After implements API.
func (e *Engine) After(d time.Duration, fn func(now simtime.Time)) simtime.EventRef {
	return e.q.After(d, fn)
}

// Cancel implements API.
func (e *Engine) Cancel(ev simtime.EventRef) { e.q.Cancel(ev) }

// Reschedule implements API.
func (e *Engine) Reschedule(core int) {
	now := e.q.Now()
	c := &e.cores[core]
	if c.cur == nil {
		e.dispatch(now, core)
		return
	}
	if e.sched.WantsPreempt(now, core) {
		e.preempt(now, core)
		e.dispatch(now, core)
	}
}

// Submit registers tasks; their arrival events are scheduled at their
// Arrival times. Must be called before Run.
func (e *Engine) Submit(tasks ...*task.Task) {
	for _, t := range tasks {
		t := t
		if err := t.Validate(); err != nil {
			panic(err)
		}
		e.tasks = append(e.tasks, t)
		e.pending++
		e.q.At(t.Arrival, func(now simtime.Time) { e.arrive(now, t) })
	}
}

// Run drives the simulation until every submitted task finishes (or the
// configured deadline passes) and returns the makespan.
func (e *Engine) Run() simtime.Time {
	deadline := e.cfg.Deadline
	if deadline == 0 {
		deadline = simtime.Infinity
	}
	for e.pending > 0 && e.q.Len() > 0 && e.q.PeekTime() <= deadline {
		e.q.Step()
	}
	if e.pending > 0 {
		e.aborted = true
	}
	return e.q.Now()
}

// NextPendingEventTime returns the virtual time of the engine's
// earliest pending event, gated on unfinished work: it returns
// simtime.Infinity once every submitted task has completed, even if
// the event queue still holds re-arming timer events (the SFS
// monitor) that would otherwise spin an external driver forever. This
// is the key every drive loop (internal/host) orders hosts by.
func (e *Engine) NextPendingEventTime() simtime.Time {
	if e.pending == 0 {
		return simtime.Infinity
	}
	return e.q.PeekTime()
}

// StepEvent fires the engine's earliest pending event, advancing the
// engine's local clock to its time. It returns false when no events
// remain. Together with NextPendingEventTime and incremental Submit it lets a
// multi-host driver step many engines in lockstep: always step the
// engine whose next event is globally earliest, and submit tasks with
// arrivals at or after the global clock.
func (e *Engine) StepEvent() bool { return e.q.Step() }

// BusyCores returns the number of cores currently running a task. It
// is a counter read, so cluster dispatch views built on it stay O(1).
func (e *Engine) BusyCores() int { return e.busy }

// Aborted reports whether Run stopped at the deadline with unfinished
// tasks.
func (e *Engine) Aborted() bool { return e.aborted }

// Pending returns the number of unfinished tasks.
func (e *Engine) Pending() int { return e.pending }

// Tasks returns all submitted tasks (for metric extraction).
func (e *Engine) Tasks() []*task.Task { return e.tasks }

// Utilization returns the fraction of core-time spent running tasks over
// the interval [0, makespan].
func (e *Engine) Utilization() float64 {
	if e.q.Now() == 0 {
		return 0
	}
	return float64(e.BusyTime()) / (float64(e.q.Now()) * float64(len(e.cores)))
}

// BusyTime returns the total core time consumed across all cores
// (including context-switch cost). Multi-host drivers use it to compute
// utilization over a shared horizon instead of each engine's local
// clock.
func (e *Engine) BusyTime() time.Duration {
	var busy time.Duration
	for i := range e.cores {
		busy += e.cores[i].busyTime
	}
	return busy
}

// arrive handles a task arrival event.
func (e *Engine) arrive(now simtime.Time, t *task.Task) {
	t.MarkReady(now)
	e.sched.Enqueue(now, t)
	e.afterEnqueue(now, t)
}

// afterEnqueue gives the scheduler a chance to place the new/woken task:
// first by filling idle cores, then via a single preemption if the
// scheduler asks for one.
func (e *Engine) afterEnqueue(now simtime.Time, t *task.Task) {
	for core := range e.cores {
		if e.cores[core].cur == nil {
			e.dispatch(now, core)
		}
	}
	// Cascade preemptions until the wakeup settles: a single enqueue can
	// displace a lower-priority task whose replacement again changes what
	// the scheduler wants elsewhere (e.g. an SFS FILTER wakeup bumping a
	// CFS task). Bounded by the core count per round.
	for round := 0; round <= len(e.cores) && t.State == task.StateRunnable; round++ {
		preempted := false
		for core := range e.cores {
			if e.cores[core].cur == nil {
				continue
			}
			if e.sched.WantsPreempt(now, core) {
				e.preempt(now, core)
				e.dispatch(now, core)
				preempted = true
				break
			}
		}
		if !preempted {
			break
		}
	}
}

// dispatch asks the scheduler for work on an idle core and starts it.
func (e *Engine) dispatch(now simtime.Time, core int) {
	if e.cores[core].cur != nil {
		panic("cpusim: dispatch on busy core")
	}
	t, slice := e.sched.PickNext(now, core)
	if t == nil {
		return
	}
	e.place(now, core, t, slice, true)
}

// place installs t on an idle core with the given slice budget and
// schedules the stint's end event. countDispatch is false when renewing a
// slice for the task that was already on the core.
func (e *Engine) place(now simtime.Time, core int, t *task.Task, slice time.Duration, countDispatch bool) {
	c := &e.cores[core]
	if c.cur != nil {
		panic("cpusim: place on busy core")
	}
	if t.State != task.StateRunnable {
		panic(fmt.Sprintf("cpusim: scheduler picked non-runnable %v in state %v", t, t.State))
	}
	t.MarkRunning(now, core)
	if countDispatch {
		e.TotalDispatches++
		e.trace(TraceDispatch, core, t)
	} else {
		// MarkRunning bumped Dispatches for what is really the same
		// stint; undo to keep dispatch counts meaningful.
		t.Dispatches--
	}
	c.cur = t
	e.busy++
	c.runStart = now
	c.budget = slice
	c.penalty = 0
	if e.cfg.CtxSwitchCost > 0 && c.lastTask != t {
		c.penalty = e.cfg.CtxSwitchCost
		e.SwitchOverhead += c.penalty
	}
	c.lastTask = t

	// The stint ends at the earliest of completion, next I/O op, or
	// slice expiry — all offset by the switch penalty, during which the
	// task makes no CPU progress. Completion and I/O instants live in
	// CPU-demand terms; the slice budget is wall time, so the two are
	// compared after converting demand to wall via the host speed (an
	// identity on unit-speed hosts).
	cpuFor := t.Remaining()
	reason := ReasonFinished
	if io := t.NextIO(); io != nil {
		// <= so that an I/O op scheduled exactly at the end of the CPU
		// demand still blocks before the task is declared finished.
		if untilIO := io.At - t.CPUUsed; untilIO <= cpuFor {
			cpuFor = untilIO
			reason = ReasonBlocked
		}
	}
	wallFor := e.wallOf(cpuFor)
	if slice > 0 && slice < wallFor {
		// The floor of a sub-stint slice can reach zero CPU on very slow
		// hosts; clamp to 1ns so every slice makes progress and slice
		// renewal cannot spin at one instant.
		cpuSlice := e.cpuOf(slice)
		if cpuSlice < 1 {
			cpuSlice = 1
		}
		if cpuSlice < cpuFor {
			cpuFor = cpuSlice
			wallFor = slice
			reason = ReasonPreempted
		}
	}
	if cpuFor < 0 {
		panic("cpusim: negative run segment")
	}
	c.cpuBudget = cpuFor
	c.fireReason = reason
	c.event = e.q.After(wallFor+c.penalty, c.fire)
}

// wallOf converts a CPU-demand duration to the wall time this host
// needs to execute it (identity at unit speed; ceiling division keeps
// wall events on whole nanoseconds without undershooting demand).
func (e *Engine) wallOf(cpu time.Duration) time.Duration {
	if e.speed == 1 || cpu <= 0 {
		return cpu
	}
	w := time.Duration(math.Ceil(float64(cpu) / e.speed))
	if w < 1 {
		w = 1
	}
	return w
}

// cpuOf converts a wall duration to the CPU demand this host retires
// in it (identity at unit speed; the float truncation never exceeds
// the exact product, so derived budgets stay conservative).
func (e *Engine) cpuOf(wall time.Duration) time.Duration {
	if e.speed == 1 || wall <= 0 {
		return wall
	}
	return time.Duration(float64(wall) * e.speed)
}

// chargeRun updates accounting for a stint of wall length ran on core
// c that retired `useful` CPU demand. The switch penalty portion
// consumes core time but no task CPU progress.
func (e *Engine) chargeRun(c *coreState, t *task.Task, ran, useful time.Duration) {
	if useful < 0 {
		useful = 0
	}
	t.CPUUsed += useful
	c.busyTime += ran
	if t.CPUUsed > t.Service {
		panic("cpusim: task overran its service demand")
	}
}

// preempt forcibly removes the current task from core, returning it to
// the scheduler as runnable.
func (e *Engine) preempt(now simtime.Time, core int) {
	c := &e.cores[core]
	t := c.cur
	if t == nil {
		return
	}
	e.q.Cancel(c.event)
	ran := now - c.runStart
	// A mid-stint preemption retires the wall progress made so far,
	// converted to CPU demand; the conversion truncates, so clamp to
	// the stint's budget (which the cancelled event would have charged).
	useful := e.cpuOf(ran - c.penalty)
	if useful > c.cpuBudget {
		useful = c.cpuBudget
	}
	e.chargeRun(c, t, ran, useful)
	t.CtxSwitches++
	e.TotalCtxSwitches++
	e.trace(TracePreempt, core, t)
	t.MarkReady(now)
	c.cur = nil
	e.busy--
	c.event = simtime.EventRef{}
	e.sched.Descheduled(now, core, t, ran, ReasonPreempted)
}

// coreEvent fires when the running task on core reaches the end of its
// current stint for the given reason.
func (e *Engine) coreEvent(now simtime.Time, core int, reason DescheduleReason) {
	c := &e.cores[core]
	t := c.cur
	if t == nil {
		panic("cpusim: core event on idle core")
	}
	ran := now - c.runStart
	// The stint event fired exactly when scheduled, so it retires
	// exactly the CPU budget place() computed — on speed-scaled hosts
	// this is what lands completions precisely on Service.
	e.chargeRun(c, t, ran, c.cpuBudget)
	c.cur = nil
	e.busy--
	c.event = simtime.EventRef{}

	switch reason {
	case ReasonFinished:
		if t.Remaining() != 0 {
			panic("cpusim: finish event with CPU remaining")
		}
		t.MarkFinished(now)
		e.pending--
		e.trace(TraceFinish, core, t)
		e.sched.Descheduled(now, core, t, ran, ReasonFinished)
	case ReasonBlocked:
		io := t.NextIO()
		if io == nil {
			panic("cpusim: block event without pending IO")
		}
		t.PopIO()
		t.MarkSleeping(now)
		dur := io.Dur
		e.trace(TraceBlock, core, t)
		e.sched.Descheduled(now, core, t, ran, ReasonBlocked)
		e.q.After(dur, func(wake simtime.Time) {
			t.MarkWoken(wake, dur)
			e.trace(TraceWake, -1, t)
			e.sched.Enqueue(wake, t)
			e.afterEnqueue(wake, t)
		})
	case ReasonPreempted:
		// Slice expiry. The scheduler accounts the stint and picks the
		// successor; if it re-picks the same task this is a slice
		// renewal, not a context switch.
		t.MarkReady(now)
		e.sched.Descheduled(now, core, t, ran, ReasonPreempted)
		next, slice := e.sched.PickNext(now, core)
		if next == t {
			e.place(now, core, t, slice, false)
			return
		}
		t.CtxSwitches++
		e.TotalCtxSwitches++
		e.trace(TracePreempt, core, t)
		if next != nil {
			e.place(now, core, next, slice, true)
		}
		return
	}
	e.dispatch(now, core)
}
