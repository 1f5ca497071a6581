package cluster

import (
	"fmt"
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
