package core_test

import (
	"runtime"
	"testing"

	"github.com/serverless-sched/sfs/internal/core"
	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/sched"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/workload"
)

// runAllocs counts the heap allocations of building a 4-core engine
// under s and driving tasks through it, submitting each task at its
// arrival instant the way internal/host does, so recycled event
// structs, runqueue nodes and entities can be reused.
func runAllocs(t *testing.T, s cpusim.Scheduler, tasks []*task.Task) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	eng := cpusim.NewEngine(cpusim.Config{Cores: 4}, s)
	for _, tk := range tasks {
		for eng.NextPendingEventTime() <= tk.Arrival && eng.StepEvent() {
		}
		eng.Submit(tk)
	}
	eng.Run()
	runtime.ReadMemStats(&after)
	if eng.Pending() != 0 {
		t.Fatalf("%d tasks unfinished", eng.Pending())
	}
	if es, ok := s.(interface{ Entities() int }); ok && es.Entities() != 0 {
		t.Fatalf("%s still holds %d entities after every task finished", s.Name(), es.Entities())
	}
	return after.Mallocs - before.Mallocs
}

// TestSteadyStateAllocationFree: once a run is warm, an extra
// invocation costs no allocation in the engine or any tree-based
// scheduler — runqueue nodes, per-task entities and arrival and wake
// events are all recycled. Doubling the task count may add only a
// constant: amortized growth of slices, maps and free lists whose
// peak size tracks concurrency, not run length. The slack is n/16, so
// anything costing one allocation per 16 invocations still fails.
func TestSteadyStateAllocationFree(t *testing.T) {
	const n, slack = 2000, 128
	scheds := []struct {
		name string
		mk   func() cpusim.Scheduler
	}{
		{"SFS", func() cpusim.Scheduler { return core.New(core.DefaultConfig()) }},
		{"CFS", func() cpusim.Scheduler { return sched.NewCFS(sched.CFSConfig{}) }},
		{"EEVDF", func() cpusim.Scheduler { return sched.NewEEVDF(sched.EEVDFConfig{}) }},
		{"SRTF", func() cpusim.Scheduler { return sched.NewSRTF() }},
		{"PSRTF", func() cpusim.Scheduler { return sched.NewPSRTF(nil) }},
	}
	gen := func(n int) []*task.Task {
		return workload.Generate(workload.Spec{N: n, Cores: 4, Load: 0.8, Seed: 42, IOFraction: 0.3}).Tasks
	}
	for _, sc := range scheds {
		t.Run(sc.name, func(t *testing.T) {
			small := runAllocs(t, sc.mk(), gen(n))
			large := runAllocs(t, sc.mk(), gen(2*n))
			extra := int64(large) - int64(small)
			t.Logf("%d tasks: %d allocs; %d tasks: %d allocs; %.3f per extra invocation",
				n, small, 2*n, large, float64(extra)/n)
			if extra > slack {
				t.Fatalf("%d extra invocations cost %d allocations (%.3f each); want at most %d in total",
					n, extra, float64(extra)/n, slack)
			}
		})
	}
}
