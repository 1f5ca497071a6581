package cluster

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/chain"
	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/lifecycle"
	"github.com/serverless-sched/sfs/internal/rng"
	"github.com/serverless-sched/sfs/internal/sched"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
	"github.com/serverless-sched/sfs/internal/workload"
)

// scanChecked forwards to a real policy the way a tracing wrapper does
// — same hosts slice, only Name and Pick — and checks every pick
// against the policy's reference scan over the same views. A copy of
// the views is a foreign slice, so the policy answers it by scanning.
type scanChecked struct {
	Dispatcher
	t     *testing.T
	picks int
}

func (d *scanChecked) Pick(now simtime.Time, tk *task.Task, hosts []Host) int {
	if loadOf(hosts) == nil {
		d.t.Fatalf("%s: the cluster's views did not resolve to its load index", d.Name())
	}
	foreign := append([]Host(nil), hosts...)
	if loadOf(foreign) != nil {
		d.t.Fatalf("%s: a copied view slice resolved to the load index", d.Name())
	}
	got := d.Dispatcher.Pick(now, tk, hosts)
	if want := d.Dispatcher.Pick(now, tk, foreign); got != want {
		d.t.Fatalf("%s pick %d at %v: index chose %d, scan chose %d", d.Name(), d.picks, now, got, want)
	}
	d.picks++
	return got
}

// TestLoadIndexMatchesScan is the differential test for the fleet load
// index: over randomized serial and sharded runs, with container
// lifecycles and chains on and off, every indexed pick of JSQ,
// LEASTLOADED, PULL and WARMFIRST must equal the reference scan's pick
// over the same views.
func TestLoadIndexMatchesScan(t *testing.T) {
	r := rng.New(2024)
	for _, dispatch := range []string{"JSQ", "LEASTLOADED", "PULL", "WARMFIRST"} {
		for _, shards := range []int{0, 3} {
			for _, withLifecycle := range []bool{false, true} {
				for _, withChain := range []bool{false, true} {
					hosts, cores, seed := 1+r.Intn(12), 1+r.Intn(3), r.Uint64()
					name := fmt.Sprintf("%s/shards=%d/lifecycle=%v/chain=%v/%dx%d", dispatch, shards, withLifecycle, withChain, hosts, cores)
					t.Run(name, func(t *testing.T) {
						inner, err := NewDispatcher(dispatch, FactoryConfig{Hosts: hosts, Seed: seed})
						if err != nil {
							t.Fatal(err)
						}
						d := &scanChecked{Dispatcher: inner, t: t}
						cfg := Config{
							Hosts:        hosts,
							CoresPerHost: cores,
							NewScheduler: func() cpusim.Scheduler { return sched.NewCFS(sched.CFSConfig{}) },
							Dispatcher:   d,
							Shards:       shards,
						}
						if withLifecycle {
							cfg.NewLifecycle = func() *lifecycle.Manager {
								m, err := lifecycle.New(lifecycle.Config{Policy: lifecycle.NewFixedTTL(time.Minute), Seed: seed})
								if err != nil {
									t.Fatal(err)
								}
								return m
							}
						}
						var src trace.Source
						if withChain {
							var ccfg chain.Config
							src, ccfg, err = workload.ChainStream(workload.ChainSpec{
								N: 80, Cores: hosts * cores, Load: 0.9, Family: "DIAMOND", Depth: 3, Seed: seed,
							})
							if err != nil {
								t.Fatal(err)
							}
							cfg.Chain = &ccfg
						} else {
							src = workload.AzureSampledStream(workload.AzureSampledSpec{
								N: 200, Cores: hosts * cores, Load: 1.1, Seed: seed,
							})
						}
						res := runSharded(t, cfg, src)
						if res.Aborted {
							t.Fatal("run aborted")
						}
						if d.picks == 0 {
							t.Fatal("no picks were checked")
						}
					})
				}
			}
		}
	}
}

// warmChecked wraps scanChecked (so every pick is also checked against
// the scan) and, before each pick, checks the lifecycle half of the
// index against the managers it mirrors: every host's clock key is its
// manager's NextEvent, every warm bit says whether the host holds an
// idle container for the app, and no manager has an expiry or
// pre-warm due by the instant advancing every manager would have
// reached (see advancedTo).
type warmChecked struct {
	scanChecked
	cl *Cluster
}

// advancedTo returns an instant every manager must have been advanced
// to before a pick of tk at now. The serial path advances them to the
// pick instant. The sharded coordinator advances them to the barrier
// before it places released chain stages (whose IDs the injector
// draws from 1<<30 up) at that barrier, and, before it admits the
// window's arrivals, to the end of the window holding the latest
// renewal it caught up; no engine has moved past the barrier except by
// that catch-up, so the end of the window holding the latest engine
// clock is a lower bound that is exact whenever the catch-up moved
// one.
func (d *warmChecked) advancedTo(now simtime.Time, tk *task.Task) simtime.Time {
	if d.cl.cfg.Shards == 0 || tk.ID >= 1<<30 {
		return now
	}
	last := simtime.Time(0)
	for _, n := range d.cl.nodes {
		last = max(last, n.eng.Now())
	}
	return last - last%DefaultDispatchLatency + DefaultDispatchLatency
}

func (d *warmChecked) Pick(now simtime.Time, tk *task.Task, hosts []Host) int {
	t, fl := d.t, d.cl.load
	if fl.clocks == nil {
		t.Fatal("lifecycle modeling is on but the index tracks no lifecycle clocks")
	}
	due := d.advancedTo(now, tk)
	for i, n := range d.cl.nodes {
		next := n.mgr.NextEvent()
		if key := fl.clocks.Key(i); key != next {
			t.Fatalf("pick %d at %v: host %d clock keyed %v, its manager's next event is %v", d.picks, now, i, key, next)
		}
		if next <= due {
			t.Fatalf("pick %d at %v: host %d has a lifecycle event due at %v, by %v", d.picks, now, i, next, due)
		}
		if n.mgr.WarmIdle(tk.App) > 0 && fl.warm[tk.App] == nil {
			t.Fatalf("pick %d at %v: host %d is warm for %q, which has no bitset", d.picks, now, i, tk.App)
		}
	}
	// Every bitset is checked on every eighth pick, the picked app's
	// on every pick.
	for app, set := range fl.warm {
		if app != tk.App && d.picks%8 != 0 {
			continue
		}
		for i, n := range d.cl.nodes {
			if bit, warm := set[i/64]>>(i%64)&1 == 1, n.mgr.WarmIdle(app); bit != (warm > 0) {
				t.Fatalf("pick %d at %v: host %d app %q: warm bit %v, manager holds %d idle", d.picks, now, i, app, bit, warm)
			}
		}
	}
	return d.scanChecked.Pick(now, tk, hosts)
}

// warmTasks draws a keep-alive workload whose pools expire, evict and
// skip pre-warms: bursts of 300 invocations of 200–600 ms over twenty
// apps every 20 s until 112 s, which fill two-container hosts, and six
// cron apps firing every 20 s until 255 s. Cron gaps are long enough
// for HIST to pre-warm them; pre-warms due while burst containers
// linger find no memory, later ones fit.
func warmTasks(seed uint64) []*task.Task {
	r := rng.New(seed)
	var tasks []*task.Task
	add := func(at time.Duration, svc time.Duration, app string) {
		tk := task.New(0, at, svc)
		tk.App = app
		tasks = append(tasks, tk)
	}
	for b := 0; b < 6; b++ {
		start := time.Duration(10+20*b) * time.Second
		for k := 0; k < 300; k++ {
			add(start+time.Duration(r.Intn(2000))*time.Millisecond,
				time.Duration(200+r.Intn(400))*time.Millisecond, fmt.Sprintf("burst%02d", r.Intn(20)))
		}
	}
	for c := 0; c < 6; c++ {
		for k := 0; k < 13; k++ {
			add(time.Duration(20*k+3*c)*time.Second+time.Duration(r.Intn(50))*time.Millisecond,
				5*time.Millisecond, fmt.Sprintf("cron%d", c))
		}
	}
	sort.SliceStable(tasks, func(i, j int) bool { return tasks[i].Arrival < tasks[j].Arrival })
	for i, tk := range tasks {
		tk.ID = i
	}
	return tasks
}

// TestWarmIndexMatchesScan is the differential test for the index's
// lifecycle half: WARMFIRST over two-stage chains on a fleet wider
// than one bitset word, under TTL, HIST and LRU keep-alive with two
// containers of memory per host (see warmTasks), on the serial path
// and at two shard counts. Each pick is checked by warmChecked and
// must equal the scan's.
func TestWarmIndexMatchesScan(t *testing.T) {
	const hosts, cores, seed = 66, 1, 29
	two := chain.Spec{Stages: []chain.Stage{{}, {Deps: []int{0}}}}
	for _, policy := range []string{"TTL", "HIST", "LRU"} {
		for _, shards := range []int{0, 3, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", policy, shards), func(t *testing.T) {
				d := &warmChecked{scanChecked: scanChecked{Dispatcher: dispatcher(t, "WARMFIRST", hosts), t: t}}
				workers := 1
				if shards == 4 {
					workers = 2 // shard workers change managers concurrently
				}
				cl, err := New(Config{
					Hosts: hosts, CoresPerHost: cores, NewScheduler: schedFactory("SFS"), Dispatcher: d,
					Chain: &chain.Config{Default: &two, Seed: seed}, Shards: shards, Workers: workers,
					NewLifecycle: func() *lifecycle.Manager {
						m, err := lifecycle.NewByName(policy, 256, 200*time.Millisecond, seed)
						if err != nil {
							t.Fatal(err)
						}
						return m
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				d.cl = cl
				res, err := cl.Run(trace.FromTasks("warm", warmTasks(seed)))
				if err != nil {
					t.Fatal(err)
				}
				if res.Aborted {
					t.Fatal("run aborted")
				}
				ls := res.Lifecycle
				t.Logf("%d picks; %d warm hits, %d evictions, %d expirations, %d pre-warms, %d skipped",
					d.picks, ls.Invocations-ls.ColdStarts, ls.Evictions, ls.Expirations, ls.Prewarms, ls.PrewarmSkips)
				high := 0
				for _, hr := range res.PerHost[64:] {
					high += hr.Dispatches
				}
				if high == 0 || ls.Evictions == 0 || ls.Invocations == ls.ColdStarts {
					t.Fatal("the run left the second bitset word unused, or never evicted or hit a warm container")
				}
				if policy != "LRU" && ls.Expirations == 0 {
					t.Fatal("no container expired")
				}
				if policy == "HIST" && (ls.Prewarms == 0 || ls.PrewarmSkips == 0) {
					t.Fatal("HIST did not both materialize and skip a pre-warm")
				}
			})
		}
	}
}

// badPick places its first few invocations on host 0, then picks an
// index outside the fleet.
type badPick struct {
	picks, bad int
}

func (d *badPick) Name() string { return "BADPICK" }

func (d *badPick) Pick(simtime.Time, *task.Task, []Host) int {
	d.picks++
	if d.picks > 5 {
		return d.bad
	}
	return 0
}

// TestBadPickIsAnError: a dispatcher returning a host index outside
// [0, Hosts) — other than Hold — makes Run return an error naming the
// dispatcher and the index, on the serial and the sharded path alike.
func TestBadPickIsAnError(t *testing.T) {
	const hosts = 4
	for _, bad := range []int{hosts, -2} {
		for _, shards := range []int{0, 1, 4} {
			cl, err := New(Config{
				Hosts:        hosts,
				CoresPerHost: 2,
				NewScheduler: func() cpusim.Scheduler { return sched.NewCFS(sched.CFSConfig{}) },
				Dispatcher:   &badPick{bad: bad},
				Shards:       shards,
			})
			if err != nil {
				t.Fatal(err)
			}
			src := workload.AzureSampledStream(workload.AzureSampledSpec{N: 40, Cores: hosts * 2, Load: 0.5, Seed: 3})
			res, err := cl.Run(src)
			if err == nil {
				t.Fatalf("bad=%d shards=%d: Run returned no error (result %v)", bad, shards, res != nil)
			}
			for _, want := range []string{"BADPICK", fmt.Sprintf("host %d", bad)} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("bad=%d shards=%d: error %q does not name %q", bad, shards, err, want)
				}
			}
		}
	}
}
