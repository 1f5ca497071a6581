package cluster

import (
	"runtime"
	"testing"

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
// serial 512×2 JSQ SFS fleet and a sharded 64×4 one. Doubling the
// invocation count may add at most n/16 allocations for n extra
// invocations — the same budget — which covers the amortized growth of
// per-run and per-host slices, while anything that allocates per
// invocation, per event or per renewal (the local event partition is
// sized once per engine) fails.
func TestClusterSteadyStateAllocationFree(t *testing.T) {
	const n = 40000
	for _, tc := range []struct {
		name                 string
		hosts, cores, shards int
	}{{"serial-512x2", 512, 2, 0}, {"sharded-64x4", 64, 4, 8}} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() Config {
				return Config{
					Hosts: tc.hosts, CoresPerHost: tc.cores, NewScheduler: schedFactory("SFS"),
					Dispatcher: dispatcher(t, "JSQ", tc.hosts), Shards: tc.shards, Workers: 1,
				}
			}
			gen := func(n int) []*task.Task {
				return workload.Generate(workload.Spec{N: n, Cores: tc.hosts * tc.cores, Load: 0.8, Seed: 42, IOFraction: 0.3}).Tasks
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
