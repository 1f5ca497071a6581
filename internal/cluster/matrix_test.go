package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/host"
	"github.com/serverless-sched/sfs/internal/lifecycle"
	"github.com/serverless-sched/sfs/internal/schedulers"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
	"github.com/serverless-sched/sfs/internal/workload"
)

// tasksFP renders the per-task observable surface in the given order —
// the same fields shardedFP prints — so equal strings mean
// byte-identical downstream output.
func tasksFP(tasks []*task.Task) string {
	var b strings.Builder
	for _, tk := range tasks {
		fmt.Fprintf(&b, "t%d app=%s arr=%d svc=%d start=%d fin=%d wait=%d io=%d cpu=%d ctx=%d disp=%d mig=%d\n",
			tk.ID, tk.App, tk.Arrival, tk.Service, tk.Start, tk.Finish,
			tk.WaitTime, tk.IOTime, tk.CPUUsed, tk.CtxSwitches, tk.Dispatches, tk.Migrations)
	}
	return b.String()
}

// matrixCase is one cell of the unified-core integration matrix.
type matrixCase struct {
	sched     string
	dispatch  string
	keepalive string // "" = lifecycle modeling off
	chain     bool
}

// matrixRun executes one cell at the given shard count with freshly
// constructed scheduler, dispatcher, lifecycle, and source — every
// stateful component rebuilt so repeated calls are true replays.
func matrixRun(t *testing.T, tc matrixCase, shards int) string {
	t.Helper()
	const hosts, cores, n, seed = 8, 2, 120, 11
	d, err := NewDispatcher(tc.dispatch, FactoryConfig{Hosts: hosts, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Hosts:        hosts,
		CoresPerHost: cores,
		NewScheduler: func() cpusim.Scheduler {
			s, err := schedulers.New(tc.sched)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		Dispatcher: d,
		Shards:     shards,
	}
	if tc.keepalive != "" {
		cfg.NewLifecycle = func() *lifecycle.Manager {
			p, err := lifecycle.NewPolicy(tc.keepalive, lifecycle.PolicyConfig{TTL: time.Minute})
			if err != nil {
				t.Fatal(err)
			}
			m, err := lifecycle.New(lifecycle.Config{Policy: p, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
	}
	var src trace.Source
	if tc.chain {
		chainSrc, ccfg, err := workload.ChainStream(workload.ChainSpec{
			N: n / 2, Cores: hosts * cores, Load: 0.8, Family: "LINEAR", Depth: 3, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Chain = &ccfg
		src = chainSrc
	} else {
		var err error
		src, err = workload.NewFamily("POISSON", workload.FamilyConfig{
			N: n, Cores: hosts * cores, Load: 0.9, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return shardedFP(runSharded(t, cfg, src))
}

// TestUnifiedCoreMatrix: scheduler × dispatcher × keep-alive × chain
// on/off × shards {0, 1, 8} through the unified host-runtime core.
// Every serial (shards=0) cell must replay byte-identically, and the
// sharded model must be byte-identical at 1 and 8 shards (each also
// replay-stable). Runs under -race via the usual test invocation, so
// the parallel window path is exercised with stages attached.
func TestUnifiedCoreMatrix(t *testing.T) {
	for _, sc := range []string{"SFS", "CFS"} {
		for _, dp := range []string{"RR", "JSQ", "LEASTLOADED", "PULL", "WARMFIRST", "PREDICTED"} {
			for _, ka := range []string{"", "TTL", "HIST"} {
				for _, withChain := range []bool{false, true} {
					tc := matrixCase{sched: sc, dispatch: dp, keepalive: ka, chain: withChain}
					kaName := ka
					if kaName == "" {
						kaName = "off"
					}
					name := fmt.Sprintf("%s/%s/ka=%s/chain=%v", sc, dp, kaName, withChain)
					t.Run(name, func(t *testing.T) {
						serial := matrixRun(t, tc, 0)
						if again := matrixRun(t, tc, 0); again != serial {
							t.Fatal("serial replay diverged through the unified core")
						}
						one := matrixRun(t, tc, 1)
						if again := matrixRun(t, tc, 1); again != one {
							t.Fatal("sharded (-shards 1) replay diverged through the unified core")
						}
						if eight := matrixRun(t, tc, 8); eight != one {
							t.Fatal("-shards 8 diverged from -shards 1 through the unified core")
						}
					})
				}
			}
		}
	}
}

// TestStandaloneClusterParity pins the refactor's degenerate-case
// contract: a standalone host.Runtime.Drive over a bare engine must be
// byte-identical to a 1-host cluster under the trivial dispatcher —
// the standalone driver IS the 1-host case of the cluster loop, not a
// separate code path that happens to agree.
func TestStandaloneClusterParity(t *testing.T) {
	const cores, n, seed = 4, 300, 7
	collect := func() []*task.Task {
		src, err := workload.NewFamily("POISSON", workload.FamilyConfig{
			N: n, Cores: cores, Load: 0.9, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		tasks := trace.Collect(src)
		if err := trace.Err(src); err != nil {
			t.Fatal(err)
		}
		return tasks
	}
	for _, sc := range []string{"SFS", "CFS", "EEVDF", "FIFO"} {
		t.Run(sc, func(t *testing.T) {
			// Standalone: one bare runtime, no stages.
			s, err := schedulers.New(sc)
			if err != nil {
				t.Fatal(err)
			}
			tasks := collect()
			i := 0
			src := trace.New("parity", func() (*task.Task, bool) {
				if i >= len(tasks) {
					return nil, false
				}
				tk := tasks[i]
				i++
				return tk, true
			})
			eng := cpusim.NewEngine(cpusim.Config{Cores: cores}, s)
			if _, err := host.New(eng).Drive(src); err != nil {
				t.Fatal(err)
			}
			standalone := tasksFP(tasks)

			// Degenerate cluster: one host, round-robin (always host 0).
			d, err := NewDispatcher("RR", FactoryConfig{Hosts: 1, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			cl, err := New(Config{
				Hosts:        1,
				CoresPerHost: cores,
				NewScheduler: func() cpusim.Scheduler {
					s, err := schedulers.New(sc)
					if err != nil {
						t.Fatal(err)
					}
					return s
				},
				Dispatcher: d,
			})
			if err != nil {
				t.Fatal(err)
			}
			clSrc, err := workload.NewFamily("POISSON", workload.FamilyConfig{
				N: n, Cores: cores, Load: 0.9, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := cl.Run(clSrc)
			if err != nil {
				t.Fatal(err)
			}
			if cluster := tasksFP(res.Merged.Tasks); cluster != standalone {
				t.Fatal("standalone Drive diverged from the 1-host cluster loop")
			}
		})
	}
}
