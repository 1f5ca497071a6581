package core

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/sched"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/workload"
)

// sfsState is the SFS state a certified renewal must leave as the
// slow path does, apart from the second level's vruntimes (pinned by
// internal/sched's TestRenewMatchesSlowPath).
type sfsState struct {
	ops              int64
	entities         int
	secondEntities   int
	steals           int64
	runnable         []int
	workers          []workerState
	queued, requests int
}

func sfsSnapshot(s *SFS) sfsState {
	cfs := s.cfs.(*sched.CFS)
	st := sfsState{
		ops: s.Stat.SchedulingOps, entities: s.Entities(), secondEntities: cfs.Entities(), steals: cfs.Steals,
		queued: s.QueueLen(), requests: s.Stat.Requests,
	}
	for core := range s.workers {
		st.runnable = append(st.runnable, cfs.Runnable(core))
		st.workers = append(st.workers, s.workers[core].state)
	}
	return st
}

func (a sfsState) equal(b sfsState) bool {
	return a.ops == b.ops && a.entities == b.entities && a.secondEntities == b.secondEntities && a.steals == b.steals &&
		slices.Equal(a.runnable, b.runnable) && slices.Equal(a.workers, b.workers) && a.queued == b.queued && a.requests == b.requests
}

// sfsProbe runs SFS on the slow path (it hides Renewer from the engine)
// and checks every preemption SFS certifies as a renewal: the task must
// be in CFS mode with its core's worker free and no FILTER request
// queued, or parked in block-wait or attached-sleep; and
// Descheduled+PickNext must re-pick it, steal nothing, and change
// nothing but two scheduling operations — the Stat delta Renew books.
type sfsProbe struct {
	s  *SFS
	tb testing.TB

	want    *task.Task
	core    int
	before  sfsState
	byState map[workerState]int
}

func (p *sfsProbe) Name() string                                 { return p.s.Name() }
func (p *sfsProbe) Bind(api cpusim.API)                          { p.s.Bind(api) }
func (p *sfsProbe) Enqueue(now simtime.Time, t *task.Task)       { p.s.Enqueue(now, t) }
func (p *sfsProbe) WantsPreempt(now simtime.Time, core int) bool { return p.s.WantsPreempt(now, core) }

func (p *sfsProbe) Descheduled(now simtime.Time, core int, t *task.Task, ran time.Duration, reason cpusim.DescheduleReason) {
	if reason == cpusim.ReasonPreempted && p.s.Renewable(core, t) {
		w := p.s.workers[core]
		free := w.state == wFree && p.s.peekQueue(p.s.queueFor(core)) == nil
		if !t.DemotedToCFS || !(free || w.state == wBlockWait || w.state == wAttachedSleep) {
			p.tb.Fatalf("core %d: renewal certified for %v with worker %v and %d queued", core, t, w.state, p.s.QueueLen())
		}
		p.want, p.core, p.before = t, core, sfsSnapshot(p.s)
		p.before.ops += 2
		p.byState[w.state]++
	}
	p.s.Descheduled(now, core, t, ran, reason)
}

func (p *sfsProbe) PickNext(now simtime.Time, core int) (*task.Task, time.Duration) {
	next, slice := p.s.PickNext(now, core)
	if want := p.want; want != nil {
		p.want = nil
		if core != p.core || next != want {
			p.tb.Fatalf("core %d: renewal certified for %v, but the slow path picked %v on core %d", p.core, want, next, core)
		}
		if got := sfsSnapshot(p.s); !got.equal(p.before) {
			p.tb.Fatalf("core %d task %d: slow path left %+v, a renewal leaves %+v", core, want.ID, got, p.before)
		}
	}
	return next, slice
}

// opaque hides Renewer, so an engine under it takes the slow path.
type opaque struct{ cpusim.Scheduler }

// TestSFSRenewMatchesSlowPath checks SFS's certification with sfsProbe
// over random task mixes, and that whole runs on the fast path — Renew
// plus local renewal events — leave every task and every SFS counter
// exactly as the slow path does, I/O-aware, I/O-oblivious and with
// per-core queues.
func TestSFSRenewMatchesSlowPath(t *testing.T) {
	cfgs := map[string]func(*Config){
		"aware":     func(*Config) {},
		"oblivious": func(c *Config) { c.IOAware = false },
		"perCore":   func(c *Config) { c.PerCoreQueue = true },
	}
	for name, tweak := range cfgs {
		t.Run(name, func(t *testing.T) {
			byState := map[workerState]int{}
			for seed := uint64(1); seed <= 4; seed++ {
				for _, cores := range []int{2, 4} {
					for _, load := range []float64{0.6, 1.3} {
						cfg := DefaultConfig()
						tweak(&cfg)
						gen := func() []*task.Task {
							return workload.Generate(workload.Spec{N: 400, Cores: cores, Load: load, Seed: seed, IOFraction: 0.4}).Tasks
						}
						p := &sfsProbe{s: New(cfg), tb: t, byState: byState}
						slow, slowTasks := runSFS(t, p, p.s, cores, gen())
						fastS := New(cfg)
						fast, fastTasks := runSFS(t, fastS, fastS, cores, gen())
						for i := range slowTasks {
							if !reflect.DeepEqual(fastTasks[i], slowTasks[i]) {
								t.Fatalf("seed %d cores %d load %v: task %d differs:\nfast %+v\nslow %+v", seed, cores, load, i, *fastTasks[i], *slowTasks[i])
							}
						}
						if !reflect.DeepEqual(fast, slow) {
							t.Fatalf("seed %d cores %d load %v: SFS stats differ:\nfast %+v\nslow %+v", seed, cores, load, fast, slow)
						}
					}
				}
			}
			t.Logf("certified renewals by worker state: %v", byState)
			if byState[wFree] == 0 {
				t.Fatal("no renewal certified on a free worker")
			}
		})
	}
}

// runSFS runs tasks on an engine under sc (s or a wrapper around it)
// and returns s's stats and the finished tasks.
func runSFS(t *testing.T, sc cpusim.Scheduler, s *SFS, cores int, tasks []*task.Task) (Stats, []*task.Task) {
	t.Helper()
	eng := cpusim.NewEngine(cpusim.Config{Cores: cores}, sc)
	eng.Submit(tasks...)
	eng.Run()
	if eng.Pending() != 0 {
		t.Fatalf("%d tasks unfinished", eng.Pending())
	}
	return s.Stat, tasks
}
