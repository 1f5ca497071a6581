package cluster

import (
	"fmt"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/chain"
	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/dist"
	"github.com/serverless-sched/sfs/internal/lifecycle"
	"github.com/serverless-sched/sfs/internal/rng"
	"github.com/serverless-sched/sfs/internal/schedulers"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
	"github.com/serverless-sched/sfs/internal/workload"
)

// Slice renewals a scheduler certifies (cpusim.Renewer) run as local
// events, off the fleet-wide event order. These tests pin that the
// shortcut is exact: each run is repeated on the reference path — the
// same schedulers behind a wrapper that hides Renewer, so every slice
// expiry goes through Descheduled+PickNext and every event is visible —
// and the two Results must be identical, field for field.

// opaque forwards every Scheduler call but hides cpusim.Renewer.
type opaque struct{ cpusim.Scheduler }

// counted forwards a scheduler and its Renewer, counting renewals so a
// test can tell the fast path actually ran.
type counted struct {
	cpusim.Scheduler
	r cpusim.Renewer
	n *atomic.Int64
}

func (s counted) Renewable(core int, t *task.Task) bool { return s.r.Renewable(core, t) }

func (s counted) Renew(now simtime.Time, core int, t *task.Task, ran time.Duration) time.Duration {
	s.n.Add(1)
	return s.r.Renew(now, core, t, ran)
}

// exactCase builds one run: a fresh config (its NewScheduler is
// wrapped per path) and a fresh copy of its tasks.
type exactCase struct {
	cfg   func(t *testing.T) Config
	tasks func(t *testing.T) []*task.Task
}

// assertExact runs tc on both paths and fails unless the Results match
// and the fast path renewed at least one slice. It returns the fast
// path's Result.
func assertExact(t *testing.T, tc exactCase) *Result {
	t.Helper()
	var renewals atomic.Int64
	run := func(ref bool) *Result {
		cfg := tc.cfg(t)
		mk := cfg.NewScheduler
		cfg.NewScheduler = func() cpusim.Scheduler {
			s := mk()
			if ref {
				return opaque{s}
			}
			r, ok := s.(cpusim.Renewer)
			if !ok {
				t.Fatalf("%s does not implement cpusim.Renewer", s.Name())
			}
			return counted{s, r, &renewals}
		}
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run(trace.FromTasks("exact", tc.tasks(t)))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fast, ref := run(false), run(true)
	if renewals.Load() == 0 {
		t.Fatal("the fast path renewed no slice; the case does not exercise local events")
	}
	sameResult(t, fast, ref)
	return fast
}

// sameResult fails with the first differing task or host when fast and
// ref differ anywhere.
func sameResult(t *testing.T, fast, ref *Result) {
	t.Helper()
	if reflect.DeepEqual(fast, ref) {
		return
	}
	if len(fast.Merged.Tasks) != len(ref.Merged.Tasks) {
		t.Fatalf("fast path has %d records, reference %d", len(fast.Merged.Tasks), len(ref.Merged.Tasks))
	}
	for i, ft := range fast.Merged.Tasks {
		if rt := ref.Merged.Tasks[i]; !reflect.DeepEqual(ft, rt) {
			t.Fatalf("record %d differs:\nfast      %+v\nreference %+v", i, *ft, *rt)
		}
	}
	for h := range ref.PerHost {
		f, r := fast.PerHost[h], ref.PerHost[h]
		if f.Utilization != r.Utilization || f.CtxSwitches != r.CtxSwitches || f.Dispatches != r.Dispatches || f.Lifecycle != r.Lifecycle {
			t.Fatalf("host %d differs: fast util %v ctx %d disp %d %+v, reference util %v ctx %d disp %d %+v",
				h, f.Utilization, f.CtxSwitches, f.Dispatches, f.Lifecycle, r.Utilization, r.CtxSwitches, r.Dispatches, r.Lifecycle)
		}
	}
	t.Fatalf("results differ outside records and hosts:\nfast      %+v\nreference %+v", *fast, *ref)
}

func schedFactory(name string) func() cpusim.Scheduler {
	return func() cpusim.Scheduler {
		s, err := schedulers.New(name)
		if err != nil {
			panic(err)
		}
		return s
	}
}

func dispatcher(t *testing.T, name string, hosts int) Dispatcher {
	t.Helper()
	d, err := NewDispatcher(name, FactoryConfig{Hosts: hosts, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// gridTasks draws n tasks over five apps whose arrivals and services
// are whole milliseconds, so completions, arrivals and renewal
// boundaries (24 ms CFS slices) keep landing on the same instants.
// Arrival gaps are uniform below maxGap ms; about one task in four
// runs for several slices.
func gridTasks(n int, seed uint64, maxGap int) []*task.Task {
	r := rng.New(seed)
	var at simtime.Time
	tasks := make([]*task.Task, n)
	for i := range tasks {
		at += time.Duration(r.Intn(maxGap)) * time.Millisecond
		svc := time.Duration(1+r.Intn(8)) * time.Millisecond
		if r.Intn(4) == 0 {
			svc = time.Duration(24*(2+r.Intn(8))+r.Intn(3)) * time.Millisecond
		}
		tasks[i] = task.New(i, at, svc)
		tasks[i].App = fmt.Sprintf("app%d", i%5)
	}
	return tasks
}

func fixedTTL(t *testing.T) func() *lifecycle.Manager {
	return func() *lifecycle.Manager {
		m, err := lifecycle.New(lifecycle.Config{Policy: lifecycle.NewFixedTTL(50 * time.Millisecond), Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
}

// TestRenewalExactArrivalOnBoundary: work that arrives exactly on a
// renewal boundary of the running task (its CFS start plus k×24 ms),
// or a nanosecond either side, sees the host the reference path shows
// it. Round-robin over two one-core hosts puts a long task and then a
// short one on each host; SFS demotes the long one to CFS after its
// 100 ms FILTER slice. A 24 ms network delay makes the work runnable
// exactly at the next boundary, where the order of the two
// same-instant events depends on whether the renewal at delivery
// fired first.
func TestRenewalExactArrivalOnBoundary(t *testing.T) {
	for _, tc := range []struct {
		sched    string
		cfsStart time.Duration
	}{{"CFS", 0}, {"SFS", 100 * time.Millisecond}} {
		for k := 1; k <= 3; k++ {
			for _, skew := range []time.Duration{-1, 0, 1} {
				for _, delay := range []time.Duration{0, 24 * time.Millisecond} {
					at := tc.cfsStart + time.Duration(k)*24*time.Millisecond + skew
					t.Run(fmt.Sprintf("%s/k=%d/%+dns/delay=%v", tc.sched, k, skew, delay), func(t *testing.T) {
						assertExact(t, exactCase{
							cfg: func(t *testing.T) Config {
								return Config{
									Hosts: 2, CoresPerHost: 1, NewScheduler: schedFactory(tc.sched), Dispatcher: dispatcher(t, "RR", 2),
									NetDelay: dist.Constant{Value: delay},
								}
							},
							tasks: func(*testing.T) []*task.Task {
								return []*task.Task{
									task.New(0, 0, 300*time.Millisecond),
									task.New(1, 0, 300*time.Millisecond),
									task.New(2, at, 30*time.Millisecond),
									task.New(3, at, 30*time.Millisecond),
								}
							},
						})
					})
				}
			}
		}
	}
}

// witness wraps a dispatcher and records, for every placement made at
// the instant of a completion, whether the target host lies below or
// above the completing one.
type witness struct {
	Dispatcher
	lastHost     int
	lastAt       simtime.Time
	below, above int
}

func (w *witness) TaskFinished(now simtime.Time, host int, t *task.Task) {
	w.lastHost, w.lastAt = host, now
}

func (w *witness) Pick(now simtime.Time, t *task.Task, hosts []Host) int {
	h := w.Dispatcher.Pick(now, t, hosts)
	// A completion releases held work (which arrived earlier) and
	// downstream chain stages (IDs from 1<<30 up, see chain.Config).
	released := t.Arrival < now || t.ID >= 1<<30
	if h != Hold && now == w.lastAt && released {
		switch {
		case h < w.lastHost:
			w.below++
		case h > w.lastHost:
			w.above++
		}
	}
	return h
}

// TestRenewalExactCompletionDrains: work placed at a completion
// instant onto hosts on both sides of the completing host must see
// lower-indexed hosts' renewals at that instant fired and
// higher-indexed hosts' not yet, as in a strict (time, host) order.
// Under PULL on an overloaded fleet, held work drains and diamond
// chains release their next stages at completion instants. Under
// round-robin on a lighter one, with a 24 ms network delay, a stage
// released onto a host renewing at that instant becomes runnable
// exactly at the host's next renewal boundary, where that order
// decides which of the two events fires first.
func TestRenewalExactCompletionDrains(t *testing.T) {
	diamond := chain.Spec{Stages: []chain.Stage{{}, {Deps: []int{0}}, {Deps: []int{0}}, {Deps: []int{1, 2}}}}
	for _, tc := range []struct {
		dispatch string
		delay    time.Duration
		maxGap   int
	}{{"PULL", 0, 6}, {"RR", 24 * time.Millisecond, 40}} {
		for _, sch := range []string{"CFS", "SFS"} {
			t.Run(fmt.Sprintf("%s/%s/delay=%v", tc.dispatch, sch, tc.delay), func(t *testing.T) {
				var w *witness
				assertExact(t, exactCase{
					cfg: func(t *testing.T) Config {
						w = &witness{Dispatcher: dispatcher(t, tc.dispatch, 4), lastAt: -1}
						return Config{
							Hosts: 4, CoresPerHost: 2, NewScheduler: schedFactory(sch), Dispatcher: w,
							Chain:    &chain.Config{Default: &diamond, Seed: 7},
							NetDelay: dist.Constant{Value: tc.delay},
						}
					},
					tasks: func(*testing.T) []*task.Task { return gridTasks(600, 3, tc.maxGap) },
				})
				if w.below == 0 || w.above == 0 {
					t.Fatalf("completion-instant placements: %d below, %d above the completing host; want both", w.below, w.above)
				}
			})
		}
	}
}

// TestRenewalExactSharded: the sharded engine's windows skip instants
// that hold only renewals, and its submissions catch their host up.
func TestRenewalExactSharded(t *testing.T) {
	for _, sch := range []string{"CFS", "SFS"} {
		t.Run(sch, func(t *testing.T) {
			res := assertExact(t, exactCase{
				cfg: func(t *testing.T) Config {
					return Config{
						Hosts: 8, CoresPerHost: 2, NewScheduler: schedFactory(sch), Dispatcher: dispatcher(t, "JSQ", 8),
						NewLifecycle: fixedTTL(t), Shards: 4, Workers: 2,
					}
				},
				tasks: func(*testing.T) []*task.Task { return gridTasks(400, 5, 6) },
			})
			if res.Shards != 4 {
				t.Fatalf("ran %d shards, want 4", res.Shards)
			}
		})
	}
}

// TestRenewalExactShardedWarmFirst: WARMFIRST reads the warm pools at
// each barrier, so the sharded coordinator must advance the lifecycle
// clocks over the windows it skips, as their barriers would have.
func TestRenewalExactShardedWarmFirst(t *testing.T) {
	for _, sch := range []string{"CFS", "SFS"} {
		for _, policy := range []string{"TTL", "HIST"} {
			t.Run(sch+"/"+policy, func(t *testing.T) {
				res := assertExact(t, exactCase{
					cfg: func(t *testing.T) Config {
						mk := fixedTTL(t)
						if policy == "HIST" {
							mk = func() *lifecycle.Manager {
								m, err := lifecycle.NewByName("HIST", 512, 0, 7)
								if err != nil {
									t.Fatal(err)
								}
								return m
							}
						}
						return Config{
							Hosts: 8, CoresPerHost: 2, NewScheduler: schedFactory(sch), Dispatcher: dispatcher(t, "WARMFIRST", 8),
							NewLifecycle: mk, Shards: 4, Workers: 2,
						}
					},
					tasks: func(*testing.T) []*task.Task { return gridTasks(400, 5, 30) },
				})
				if res.Shards != 4 {
					t.Fatalf("ran %d shards, want 4", res.Shards)
				}
			})
		}
	}
}

// TestRenewalExactShardedLifecycleClock: host 1 holds an idle "b"
// container (expiring at 51 ms) while both hosts renew alone until
// "b" arrives again at 80 ms. The strict order runs a window for each
// renewal, whose barriers expire the container, so WARMFIRST falls
// back to the least-loaded host 0; a coordinator that skipped those
// windows without advancing the clocks would still see host 1 warm.
// Cold starts are free so every task starts on arrival.
func TestRenewalExactShardedLifecycleClock(t *testing.T) {
	free := dist.Constant{}
	res := assertExact(t, exactCase{
		cfg: func(t *testing.T) Config {
			return Config{
				Hosts: 2, CoresPerHost: 2, NewScheduler: schedFactory("CFS"), Dispatcher: dispatcher(t, "WARMFIRST", 2),
				Shards: 2, Workers: 1,
				NewLifecycle: func() *lifecycle.Manager {
					m, err := lifecycle.New(lifecycle.Config{
						Policy: lifecycle.NewFixedTTL(50 * time.Millisecond), ImagePull: free, SandboxBoot: free, Seed: 7,
					})
					if err != nil {
						t.Fatal(err)
					}
					return m
				},
			}
		},
		tasks: func(*testing.T) []*task.Task {
			tasks := []*task.Task{
				task.New(0, 0, 300*time.Millisecond),
				task.New(1, 0, time.Millisecond),
				task.New(2, 2*time.Millisecond, 300*time.Millisecond),
				task.New(3, 80*time.Millisecond, time.Millisecond),
			}
			for i, app := range []string{"a", "b", "c", "b"} {
				tasks[i].App = app
			}
			return tasks
		},
	})
	if res.PerHost[1].Lifecycle.Expirations != 1 || res.PerHost[0].Dispatches != 2 {
		t.Fatalf("%d expirations on host 1, %d dispatches to host 0; want the late \"b\" on host 0 after host 1's \"b\" expired",
			res.PerHost[1].Lifecycle.Expirations, res.PerHost[0].Dispatches)
	}
}

// TestRenewalExactDeadline: a run stopped by its deadline mid-trace
// first catches every host up to the deadline, so busy time, CPU used
// and — on the sharded path — the lifecycle clocks end where the
// reference leaves them.
func TestRenewalExactDeadline(t *testing.T) {
	for _, sch := range []string{"CFS", "SFS"} {
		for _, shards := range []int{0, 4} {
			for _, deadline := range []time.Duration{577 * time.Millisecond, 811 * time.Millisecond} {
				t.Run(fmt.Sprintf("%s/shards=%d/%v", sch, shards, deadline), func(t *testing.T) {
					testDeadline(t, sch, shards, deadline)
				})
			}
		}
	}
}

// TestRenewalExactDeadlineLifecycleClock: a sharded run that aborts
// while host 1 renews alone. The strict order runs a window for each
// renewal up to the deadline (the last at 96 ms here), and each
// barrier advances the lifecycle clocks, expiring host 0's idle
// container at 51 ms; the visible order skips those windows, so the
// abort must advance the clocks to the last renewal's window itself.
// Cold starts are free so both tasks start at 0.
func TestRenewalExactDeadlineLifecycleClock(t *testing.T) {
	free := dist.Constant{}
	res := assertExact(t, exactCase{
		cfg: func(t *testing.T) Config {
			return Config{
				Hosts: 2, CoresPerHost: 1, NewScheduler: schedFactory("CFS"), Dispatcher: dispatcher(t, "RR", 2),
				Shards: 2, Workers: 1, Deadline: 100 * time.Millisecond,
				NewLifecycle: func() *lifecycle.Manager {
					m, err := lifecycle.New(lifecycle.Config{
						Policy: lifecycle.NewFixedTTL(50 * time.Millisecond), ImagePull: free, SandboxBoot: free, Seed: 7,
					})
					if err != nil {
						t.Fatal(err)
					}
					return m
				},
			}
		},
		tasks: func(*testing.T) []*task.Task {
			a, b := task.New(0, 0, time.Millisecond), task.New(1, 0, 300*time.Millisecond)
			a.App, b.App = "a", "b"
			return []*task.Task{a, b}
		},
	})
	if !res.Aborted || res.Lifecycle.Expirations != 1 {
		t.Fatalf("aborted %v with %d expirations; want an abort after host 0's container expired", res.Aborted, res.Lifecycle.Expirations)
	}
}

func testDeadline(t *testing.T, sch string, shards int, deadline time.Duration) {
	res := assertExact(t, exactCase{
		cfg: func(t *testing.T) Config {
			return Config{
				Hosts: 8, CoresPerHost: 2, NewScheduler: schedFactory(sch), Dispatcher: dispatcher(t, "JSQ", 8),
				NewLifecycle: fixedTTL(t), Shards: shards, Workers: 1, Deadline: deadline,
			}
		},
		tasks: func(*testing.T) []*task.Task { return gridTasks(400, 9, 6) },
	})
	if !res.Aborted {
		t.Fatal("run was not aborted at its deadline")
	}
}

// TestRenewalExactTriggerWarmFirst: TRIGGER chains under WARMFIRST
// with HIST keep-alive and a capped warm pool — the stage pipeline the
// trigger-warm benchmark exercises — on SFS hosts.
func TestRenewalExactTriggerWarmFirst(t *testing.T) {
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { testTriggerWarmFirst(t, shards) })
	}
}

func testTriggerWarmFirst(t *testing.T, shards int) {
	const hosts, cores, seed = 8, 4, 13
	spec := workload.TriggerSpec{N: 600, Cores: hosts * cores, Load: 0.9, Seed: seed}
	assertExact(t, exactCase{
		cfg: func(t *testing.T) Config {
			_, ccfg, err := workload.TriggerStream(spec)
			if err != nil {
				t.Fatal(err)
			}
			return Config{
				Hosts: hosts, CoresPerHost: cores, NewScheduler: schedFactory("SFS"), Dispatcher: dispatcher(t, "WARMFIRST", hosts),
				Chain: &ccfg, Shards: shards, Workers: 2,
				NewLifecycle: func() *lifecycle.Manager {
					m, err := lifecycle.NewByName("HIST", 512, 0, seed)
					if err != nil {
						t.Fatal(err)
					}
					return m
				},
			}
		},
		tasks: func(t *testing.T) []*task.Task {
			src, _, err := workload.TriggerStream(spec)
			if err != nil {
				t.Fatal(err)
			}
			// TRIGGER batches can overlap; replay them in arrival order,
			// as the benchmark's trace encoder does.
			tasks := trace.Collect(src)
			sort.SliceStable(tasks, func(i, j int) bool { return tasks[i].Arrival < tasks[j].Arrival })
			return tasks
		},
	})
}
