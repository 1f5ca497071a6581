package sched

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/workload"
)

// cfsState is the CFS state a slice expiry may change.
type cfsState struct {
	vr       time.Duration
	everRan  bool
	mins     []time.Duration
	lens     []int
	cur      []*cfsEnt
	entities int
	steals   int64
}

func snapshot(c *CFS, ent *cfsEnt) cfsState {
	s := cfsState{vr: ent.vr, everRan: ent.everRan, cur: slices.Clone(c.cur), entities: c.Entities(), steals: c.Steals}
	for i := range c.rqs {
		s.mins = append(s.mins, c.rqs[i].min)
		s.lens = append(s.lens, c.rqs[i].tree.Len())
	}
	return s
}

func (s cfsState) String() string {
	return fmt.Sprintf("vr=%v everRan=%v min=%v lens=%v entities=%d steals=%d", s.vr, s.everRan, s.mins, s.lens, s.entities, s.steals)
}

func (s cfsState) equal(o cfsState) bool {
	return s.vr == o.vr && s.everRan == o.everRan && slices.Equal(s.mins, o.mins) && slices.Equal(s.lens, o.lens) &&
		slices.Equal(s.cur, o.cur) && s.entities == o.entities && s.steals == o.steals
}

// renewProbe runs CFS on the slow path — it forwards the Scheduler
// methods only, so the engine never sees Renewer — and at every slice
// expiry checks the fast path against it. When Renewable certifies the
// expiry, the probe applies Renew, records the state it leaves, rolls
// it back, and lets Descheduled+PickNext run; the two must agree.
type renewProbe struct {
	c  *CFS
	tb testing.TB

	// want is the fast path's outcome for the expiry in flight.
	want *struct {
		core  int
		t     *task.Task
		slice time.Duration
		state cfsState
	}
	// expired is an uncertified preempted task awaiting its PickNext.
	expired           *task.Task
	renewed, switched int
}

func (p *renewProbe) Name() string                           { return p.c.Name() }
func (p *renewProbe) Bind(api cpusim.API)                    { p.c.Bind(api) }
func (p *renewProbe) Enqueue(now simtime.Time, t *task.Task) { p.c.Enqueue(now, t) }
func (p *renewProbe) WantsPreempt(now simtime.Time, core int) bool {
	return p.c.WantsPreempt(now, core)
}

func (p *renewProbe) Descheduled(now simtime.Time, core int, t *task.Task, ran time.Duration, reason cpusim.DescheduleReason) {
	if reason != cpusim.ReasonPreempted {
		p.c.Descheduled(now, core, t, ran, reason)
		return
	}
	if !p.c.Renewable(core, t) {
		p.expired = t
	} else {
		ent := p.c.cur[core]
		before := snapshot(p.c, ent)
		slice := p.c.Renew(now, core, t, ran)
		p.want = &struct {
			core  int
			t     *task.Task
			slice time.Duration
			state cfsState
		}{core, t, slice, snapshot(p.c, ent)}
		ent.vr, ent.everRan, p.c.rqs[core].min = before.vr, before.everRan, before.mins[core]
	}
	p.c.Descheduled(now, core, t, ran, reason)
}

func (p *renewProbe) PickNext(now simtime.Time, core int) (*task.Task, time.Duration) {
	next, slice := p.c.PickNext(now, core)
	w := p.want
	p.want = nil
	if w == nil {
		if p.expired != nil && next != p.expired {
			p.switched++
		}
		p.expired = nil
		return next, slice
	}
	p.renewed++
	if w.core != core || next != w.t || slice != w.slice {
		p.tb.Fatalf("core %d: Renewable certified %v, but the slow path picked %v for %v (fast path: %v)", w.core, w.t, next, slice, w.slice)
	}
	if got := snapshot(p.c, p.c.cur[core]); !got.equal(w.state) {
		p.tb.Fatalf("core %d task %d: slow path left %v, Renew left %v", core, w.t.ID, got, w.state)
	}
	return next, slice
}

// TestRenewMatchesSlowPath: over random task mixes with I/O, on one to
// four cores and under light to heavy load, every preemption Renewable
// certifies is one Descheduled(preempted)+PickNext would renew — same
// task, same slice, no steal, no other runqueue touched — and Renew
// leaves the same vruntime, everRan, min_vruntime on every runqueue,
// entity count and steal count as that round trip.
func TestRenewMatchesSlowPath(t *testing.T) {
	var renewed, switched int
	for seed := uint64(1); seed <= 6; seed++ {
		for _, cores := range []int{1, 2, 4} {
			for _, load := range []float64{0.5, 1.3} {
				tasks := workload.Generate(workload.Spec{N: 300, Cores: cores, Load: load, Seed: seed, IOFraction: 0.3}).Tasks
				p := &renewProbe{c: NewCFS(CFSConfig{}), tb: t}
				eng := cpusim.NewEngine(cpusim.Config{Cores: cores}, p)
				eng.Submit(tasks...)
				eng.Run()
				if eng.Pending() != 0 || p.c.Entities() != 0 {
					t.Fatalf("seed %d cores %d: %d tasks unfinished, %d entities left", seed, cores, eng.Pending(), p.c.Entities())
				}
				renewed += p.renewed
				switched += p.switched
			}
		}
	}
	t.Logf("%d certified renewals checked; %d uncertified preemptions switched task", renewed, switched)
	if renewed == 0 || switched == 0 {
		t.Fatalf("%d renewals and %d switches: the mixes must exercise both", renewed, switched)
	}
}
