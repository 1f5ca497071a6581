package cluster

import (
	"runtime"
	"testing"

	"github.com/serverless-sched/sfs/internal/lifecycle"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
	"github.com/serverless-sched/sfs/internal/workload"
)

// clusterAllocs counts the heap allocations of building a cluster from
// cfg and running tasks through it. The tasks are generated beforehand
// and fed without copying, so only the cluster's own allocations count.
func clusterAllocs(t *testing.T, mk func() Config, tasks []*task.Task) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cl, err := New(mk())
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	res, err := cl.Run(trace.New("alloc", func() (*task.Task, bool) {
		if i == len(tasks) {
			return nil, false
		}
		i++
		return tasks[i-1], true
	}))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted {
		t.Fatal("run aborted")
	}
	return after.Mallocs - before.Mallocs
}

// TestClusterSteadyStateAllocationFree extends core's
// TestSteadyStateAllocationFree from one engine to whole fleets: a
// serial 512×2 JSQ SFS fleet, a sharded 64×4 one, and serial 64×4
// WARMFIRST fleets keeping containers warm under TTL and HIST, where
// every pick reads the warm bitsets and every warm-pool change passes
// through a manager's transition log. Doubling the invocation count
// may add at most n/16 allocations for n extra invocations — the same
// budget — which covers the amortized growth of per-run and per-host
// slices (and the containers of the cold starts), while anything that
// allocates per invocation, per event, per renewal (the local event
// partition is sized once per engine) or per pick fails.
func TestClusterSteadyStateAllocationFree(t *testing.T) {
	const n = 40000
	for _, tc := range []struct {
		name                 string
		hosts, cores, shards int
		dispatch, keepAlive  string
	}{
		{"serial-512x2", 512, 2, 0, "JSQ", ""},
		{"sharded-64x4", 64, 4, 8, "JSQ", ""},
		{"warmfirst-ttl-64x4", 64, 4, 0, "WARMFIRST", "TTL"},
		{"warmfirst-hist-64x4", 64, 4, 0, "WARMFIRST", "HIST"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() Config {
				cfg := Config{
					Hosts: tc.hosts, CoresPerHost: tc.cores, NewScheduler: schedFactory("SFS"),
					Dispatcher: dispatcher(t, tc.dispatch, tc.hosts), Shards: tc.shards, Workers: 1,
				}
				if tc.keepAlive != "" {
					cfg.NewLifecycle = func() *lifecycle.Manager {
						m, err := lifecycle.NewByName(tc.keepAlive, 1024, 0, 42)
						if err != nil {
							t.Fatal(err)
						}
						return m
					}
				}
				return cfg
			}
			gen := func(n int) []*task.Task {
				spec := workload.Spec{N: n, Cores: tc.hosts * tc.cores, Load: 0.8, Seed: 42, IOFraction: 0.3}
				if tc.keepAlive != "" {
					// Three apps, so warm pools differ across hosts.
					spec.Apps = []workload.AppChoice{
						{Profile: workload.AppFib, Weight: 0.5}, {Profile: workload.AppMd, Weight: 0.25}, {Profile: workload.AppSa, Weight: 0.25},
					}
				}
				return workload.Generate(spec).Tasks
			}
			small := clusterAllocs(t, mk, gen(n))
			large := clusterAllocs(t, mk, gen(2*n))
			extra := int64(large) - int64(small)
			t.Logf("%d invocations: %d allocs; %d: %d allocs; %.3f per extra invocation", n, small, 2*n, large, float64(extra)/n)
			if extra > n/16 {
				t.Fatalf("%d extra invocations cost %d allocations (%.3f each); want at most %d in total",
					n, extra, float64(extra)/n, n/16)
			}
		})
	}
}
