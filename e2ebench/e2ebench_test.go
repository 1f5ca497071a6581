package main

import (
	"bytes"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/cluster"
	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
)

// scaled returns the workload shrunk by div (invocations and hosts),
// keeping cores per host, policies and sharding.
func (w spec) scaled(div int) spec {
	w.N /= div
	if w.Hosts >= 4*div {
		w.Hosts /= div
	}
	return w
}

// TestWrappedDispatcherObserves checks that the timing wrapper offers
// cluster.CompletionObserver exactly when the wrapped policy does, for
// every registered dispatcher.
func TestWrappedDispatcherObserves(t *testing.T) {
	for _, name := range cluster.Names() {
		inner, err := cluster.NewDispatcher(name, cluster.FactoryConfig{Hosts: 4, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, wrapped := wrapDispatcher(inner)
		_, want := inner.(cluster.CompletionObserver)
		if _, got := wrapped.(cluster.CompletionObserver); got != want {
			t.Errorf("%s: wrapper observes completions = %v, policy = %v", name, got, want)
		}
		if wrapped.Name() != inner.Name() {
			t.Errorf("%s: wrapper named %q", name, wrapped.Name())
		}
	}
}

// TestTracedRunMatchesUntraced runs small instances of every workload,
// plus the PREDICTED dispatcher with the PSRTF scheduler (the one
// completion-observing cell), with and without the layer timers: both
// must pass the output checks and produce the same result digest.
func TestTracedRunMatchesUntraced(t *testing.T) {
	cases := []spec{{Name: "predicted", Family: "AZURE", N: 2000, Load: 0.9, Hosts: 8, Cores: 4,
		Sched: "PSRTF", Dispatch: "PREDICTED", Traces: 1}}
	for _, w := range workloads {
		cases = append(cases, w.scaled(20))
	}
	for _, w := range cases {
		t.Run(w.Name, func(t *testing.T) {
			const seed = 7
			in, _, err := w.generate(seed)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := runOnce(w, seed, in, false)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runOnce(w, seed, in, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []*sample{plain, traced} {
				if !s.ok() {
					t.Errorf("traced=%v: %d of %d failed: %v", s.Traced, s.Failed, s.Attempted, s.Problems)
				}
			}
			if plain.Digest != traced.Digest {
				t.Errorf("digest untraced %s, traced %s", plain.Digest, traced.Digest)
			}
			l := traced.Layers
			if l.Picks == 0 || l.SchedCalls == 0 || l.NextCalls == 0 {
				t.Errorf("layer timers saw no calls: %+v", l)
			}
			if w.Dispatch == "PREDICTED" && l.Observed != int64(traced.Attempted) {
				t.Errorf("observer saw %d completions of %d", l.Observed, traced.Attempted)
			}
		})
	}
}

// TestCheckCountsViolations breaks a correct result in each way the
// checks look for and expects each break to be reported.
func TestCheckCountsViolations(t *testing.T) {
	w := workloads[0].scaled(40)
	in, _, err := w.generate(3)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *cluster.Result {
		cfg, err := w.clusterConfig(3, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := cluster.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tp, err := trace.ReadBinaryTape(bytes.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run(tp.Source())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	n := w.N
	if v := check(run(), n, n, false); !v.ok() {
		t.Fatalf("unbroken result fails: %+v", v)
	}
	breaks := map[string]func(r *cluster.Result){
		"aborted":    func(r *cluster.Result) { r.Aborted = true },
		"unfinished": func(r *cluster.Result) { r.Merged.Tasks[5].Finish = -1 },
		"acausal":    func(r *cluster.Result) { r.Merged.Tasks[5].Start = r.Merged.Tasks[5].Arrival - 1 },
		"cpu":        func(r *cluster.Result) { r.Merged.Tasks[5].CPUUsed-- },
		"missing":    func(r *cluster.Result) { r.Merged.Tasks = r.Merged.Tasks[1:] },
		"duplicate":  func(r *cluster.Result) { r.Merged.Tasks[1] = r.Merged.Tasks[0] },
		"dispatch":   func(r *cluster.Result) { r.PerHost[0].Dispatches++ },
	}
	for name, brk := range breaks {
		res := run()
		brk(res)
		if v := check(res, n, n, false); v.ok() {
			t.Errorf("%s: check passed a broken result", name)
		}
	}
}

// reschedulingSched calls back into the engine from Enqueue, the
// re-entrant path the self-time bookkeeping must split.
type reschedulingSched struct {
	api   cpusim.API
	picks int
}

func (r *reschedulingSched) Name() string                           { return "test" }
func (r *reschedulingSched) Bind(api cpusim.API)                    { r.api = api }
func (r *reschedulingSched) Enqueue(now simtime.Time, t *task.Task) { r.api.Reschedule(0) }
func (r *reschedulingSched) WantsPreempt(simtime.Time, int) bool    { return false }
func (r *reschedulingSched) Descheduled(simtime.Time, int, *task.Task, time.Duration, cpusim.DescheduleReason) {
}
func (r *reschedulingSched) PickNext(simtime.Time, int) (*task.Task, time.Duration) {
	r.picks++
	return nil, 0
}

// slowEngine stands in for the engine: Reschedule takes engineTime and
// re-enters the scheduler.
type slowEngine struct {
	cpusim.API
	sched cpusim.Scheduler
}

const engineTime = 50 * time.Millisecond

func (e *slowEngine) Reschedule(core int) {
	time.Sleep(engineTime)
	e.sched.PickNext(0, core)
}

// TestSchedulerSelfTime checks that time the engine spends inside
// API.Reschedule is not charged to the scheduler, while the scheduler
// calls it makes re-entrantly are still counted.
func TestSchedulerSelfTime(t *testing.T) {
	inner := &reschedulingSched{}
	ts := &timedScheduler{inner: inner}
	eng := &slowEngine{sched: ts}
	ts.Bind(eng)
	ts.Enqueue(0, nil)
	if inner.picks != 1 || ts.pickNext != 1 || ts.enqueue != 1 {
		t.Fatalf("calls: picks %d, counted pickNext %d enqueue %d", inner.picks, ts.pickNext, ts.enqueue)
	}
	if ts.depth != 0 {
		t.Fatalf("depth %d after the outermost call returned", ts.depth)
	}
	if ts.ns >= int64(engineTime/2) {
		t.Fatalf("scheduler charged %v, engine took %v of it", time.Duration(ts.ns), engineTime)
	}
}
