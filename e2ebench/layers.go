package main

import (
	"time"

	"github.com/serverless-sched/sfs/internal/cluster"
	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
)

// The traced run times each layer from outside, by wrapping the public
// interface the layer above calls it through. The wrappers forward
// every call unchanged, so a traced run must produce the same result
// digest as an untraced one.

// timedSource wraps the trace layer's Source: Next materializes each
// invocation from the decoded tape.
type timedSource struct {
	trace.Source
	calls int64
	ns    int64
}

func (s *timedSource) Next() (*task.Task, bool) {
	t0 := time.Now()
	t, ok := s.Source.Next()
	s.ns += int64(time.Since(t0))
	s.calls++
	return t, ok
}

// Err forwards the wrapped source's failure so the cluster still
// surfaces decode errors.
func (s *timedSource) Err() error { return trace.Err(s.Source) }

// timedDispatcher wraps the cluster's placement policy. Only the
// coordinating goroutine calls a dispatcher, in serial and sharded
// runs alike, so plain counters suffice.
type timedDispatcher struct {
	inner                   cluster.Dispatcher
	picks, placed, observed int64
	pickNS, observeNS       int64
}

func (d *timedDispatcher) Name() string { return d.inner.Name() }

func (d *timedDispatcher) Pick(now simtime.Time, t *task.Task, hosts []cluster.Host) int {
	t0 := time.Now()
	h := d.inner.Pick(now, t, hosts)
	d.pickNS += int64(time.Since(t0))
	d.picks++
	if h != cluster.Hold {
		d.placed++
	}
	return h
}

// observingDispatcher is the wrapper for dispatchers that implement
// cluster.CompletionObserver. cluster.New type-asserts the dispatcher
// it is given, so the wrapper must offer TaskFinished exactly when the
// wrapped policy does.
type observingDispatcher struct {
	*timedDispatcher
	obs cluster.CompletionObserver
}

func (d observingDispatcher) TaskFinished(now simtime.Time, host int, t *task.Task) {
	t0 := time.Now()
	d.obs.TaskFinished(now, host, t)
	d.observeNS += int64(time.Since(t0))
	d.observed++
}

// wrapDispatcher returns the timed wrapper and the dispatcher to hand
// to the cluster.
func wrapDispatcher(inner cluster.Dispatcher) (*timedDispatcher, cluster.Dispatcher) {
	td := &timedDispatcher{inner: inner}
	if obs, ok := inner.(cluster.CompletionObserver); ok {
		return td, observingDispatcher{td, obs}
	}
	return td, td
}

// schedCounts are one scheduler instance's call counts and self time.
type schedCounts struct {
	enqueue, pickNext, descheduled, wantsPreempt, timers int64
	preempted, blocked                                   int64
	ns                                                   int64
}

func (c *schedCounts) add(o schedCounts) {
	c.enqueue += o.enqueue
	c.pickNext += o.pickNext
	c.descheduled += o.descheduled
	c.wantsPreempt += o.wantsPreempt
	c.timers += o.timers
	c.preempted += o.preempted
	c.blocked += o.blocked
	c.ns += o.ns
}

func (c *schedCounts) calls() int64 {
	return c.enqueue + c.pickNext + c.descheduled + c.wantsPreempt + c.timers
}

// timedScheduler wraps one host's cpusim.Scheduler and the engine API
// it is bound to, accumulating the policy's self time: time inside
// scheduler methods and scheduler timer callbacks, minus time spent
// back in the engine through API.Reschedule (which may re-enter the
// scheduler; those nested calls are timed on their own). Each host's
// engine, and so each wrapper, is driven by one goroutine at a time.
type timedScheduler struct {
	inner cpusim.Scheduler
	api   cpusim.API
	schedCounts
	depth int       // nesting of open scheduler spans
	start time.Time // start of the open span's current segment
}

func (s *timedScheduler) enter() {
	if s.depth == 0 {
		s.start = time.Now()
	}
	s.depth++
}

func (s *timedScheduler) exit() {
	s.depth--
	if s.depth == 0 {
		s.ns += int64(time.Since(s.start))
	}
}

func (s *timedScheduler) Name() string { return s.inner.Name() }

func (s *timedScheduler) Bind(api cpusim.API) {
	s.api = api
	s.inner.Bind(schedAPI{s})
}

func (s *timedScheduler) Enqueue(now simtime.Time, t *task.Task) {
	s.enter()
	s.inner.Enqueue(now, t)
	s.enqueue++
	s.exit()
}

func (s *timedScheduler) PickNext(now simtime.Time, core int) (*task.Task, time.Duration) {
	s.enter()
	t, slice := s.inner.PickNext(now, core)
	s.pickNext++
	s.exit()
	return t, slice
}

func (s *timedScheduler) Descheduled(now simtime.Time, core int, t *task.Task, ran time.Duration, reason cpusim.DescheduleReason) {
	s.enter()
	s.inner.Descheduled(now, core, t, ran, reason)
	s.descheduled++
	switch reason {
	case cpusim.ReasonPreempted:
		s.preempted++
	case cpusim.ReasonBlocked:
		s.blocked++
	}
	s.exit()
}

func (s *timedScheduler) WantsPreempt(now simtime.Time, core int) bool {
	s.enter()
	ok := s.inner.WantsPreempt(now, core)
	s.wantsPreempt++
	s.exit()
	return ok
}

// schedAPI is the engine API as the wrapped scheduler sees it: timer
// callbacks count as scheduler work, and Reschedule pauses the
// scheduler's clock while the engine runs.
type schedAPI struct{ s *timedScheduler }

func (a schedAPI) Now() simtime.Time             { return a.s.api.Now() }
func (a schedAPI) NumCores() int                 { return a.s.api.NumCores() }
func (a schedAPI) Running(core int) *task.Task   { return a.s.api.Running(core) }
func (a schedAPI) RanFor(core int) time.Duration { return a.s.api.RanFor(core) }
func (a schedAPI) Cancel(ev simtime.EventRef)    { a.s.api.Cancel(ev) }

func (a schedAPI) After(d time.Duration, fn func(now simtime.Time)) simtime.EventRef {
	s := a.s
	return s.api.After(d, func(now simtime.Time) {
		s.enter()
		fn(now)
		s.timers++
		s.exit()
	})
}

func (a schedAPI) Reschedule(core int) {
	s := a.s
	depth := s.depth
	if depth > 0 {
		s.ns += int64(time.Since(s.start))
		s.depth = 0
	}
	s.api.Reschedule(core)
	if depth > 0 {
		s.depth = depth
		s.start = time.Now()
	}
}
