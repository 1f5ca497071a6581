package cpusim_test

import (
	"testing"
	"testing/quick"
	"time"

	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/rng"
	"github.com/serverless-sched/sfs/internal/sched"
	"github.com/serverless-sched/sfs/internal/task"
)

// randomWorkload builds a small random workload from quick-check bytes.
func randomWorkload(seed uint64, nRaw uint8) []*task.Task {
	r := rng.New(seed)
	n := int(nRaw%60) + 5
	var tasks []*task.Task
	at := time.Duration(0)
	for i := 0; i < n; i++ {
		svc := time.Duration(1+r.Intn(200)) * time.Millisecond
		tk := task.New(i, at, svc)
		// Random I/O ops at random offsets.
		nio := r.Intn(3)
		prev := time.Duration(0)
		for j := 0; j < nio; j++ {
			span := svc - prev
			if span <= 0 {
				break
			}
			off := prev + time.Duration(r.Int63n(int64(span)+1))
			tk.WithIO(off, time.Duration(r.Intn(50))*time.Millisecond)
			prev = off
		}
		tasks = append(tasks, tk)
		at += time.Duration(r.Intn(40)) * time.Millisecond
	}
	return tasks
}

// checkRun runs tasks under s and verifies the engine's global
// invariants hold: every task completes exactly its demand, turnaround
// decomposes into service + I/O + wait, and nothing beats the ideal.
func checkRun(s cpusim.Scheduler, cores int, tasks []*task.Task) bool {
	eng := cpusim.NewEngine(cpusim.Config{Cores: cores, Deadline: 24 * time.Hour}, s)
	eng.Submit(tasks...)
	eng.Run()
	if eng.Aborted() {
		return false
	}
	for _, tk := range tasks {
		if tk.State != task.StateFinished {
			return false
		}
		if tk.CPUUsed != tk.Service {
			return false
		}
		if tk.Turnaround() != tk.Service+tk.IOTime+tk.WaitTime {
			return false
		}
		if tk.Turnaround() < tk.IdealDuration() {
			return false
		}
		if tk.Start < tk.Arrival || tk.Finish < tk.Start {
			return false
		}
	}
	return true
}

// TestPropertyEngineInvariants drives every scheduler over random
// workloads on random core counts via testing/quick.
func TestPropertyEngineInvariants(t *testing.T) {
	mks := map[string]func(seed uint64) cpusim.Scheduler{
		"CFS":          func(uint64) cpusim.Scheduler { return sched.NewCFS(sched.CFSConfig{}) },
		"EEVDF":        func(uint64) cpusim.Scheduler { return sched.NewEEVDF(sched.EEVDFConfig{}) },
		"FIFO":         func(uint64) cpusim.Scheduler { return sched.NewFIFO() },
		"RR":           func(uint64) cpusim.Scheduler { return sched.NewRR(0) },
		"SRTF":         func(uint64) cpusim.Scheduler { return sched.NewSRTF() },
		"CoreGranular": func(uint64) cpusim.Scheduler { return sched.NewCoreGranular() },
		"Lottery":      func(s uint64) cpusim.Scheduler { return sched.NewLottery(0, s) },
	}
	for name, mk := range mks {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			f := func(seed uint64, nRaw, coresRaw uint8) bool {
				cores := int(coresRaw%7) + 1
				return checkRun(mk(seed), cores, randomWorkload(seed, nRaw))
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPropertyDeterminism: same seed, same scheduler, bit-identical
// outcome.
func TestPropertyDeterminism(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		run := func() []time.Duration {
			tasks := randomWorkload(seed, nRaw)
			eng := cpusim.NewEngine(cpusim.Config{Cores: 3, Deadline: 24 * time.Hour}, sched.NewCFS(sched.CFSConfig{}))
			eng.Submit(tasks...)
			eng.Run()
			out := make([]time.Duration, len(tasks))
			for i, tk := range tasks {
				out[i] = tk.Finish
			}
			return out
		}
		a, b := run(), run()
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyWorkConservation: for single-queue work-conserving
// schedulers on one core, total busy time equals total service, and the
// makespan is at most arrival span + total service (no idling while
// work is pending).
func TestPropertyWorkConservation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		tasks := randomWorkload(seed, nRaw)
		// Strip I/O so the conservation bound is exact.
		var total time.Duration
		var lastArrival time.Duration
		for _, tk := range tasks {
			tk.IOOps = nil
			total += tk.Service
			if tk.Arrival > lastArrival {
				lastArrival = tk.Arrival
			}
		}
		eng := cpusim.NewEngine(cpusim.Config{Cores: 1, Deadline: 24 * time.Hour}, sched.NewRR(0))
		eng.Submit(tasks...)
		makespan := eng.Run()
		if makespan > lastArrival+total {
			return false
		}
		// Utilization over the busy period accounts for all service.
		busy := time.Duration(float64(makespan) * eng.Utilization())
		diff := busy - total
		if diff < 0 {
			diff = -diff
		}
		return diff < time.Microsecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestBusyCoresCounterMatchesScan: BusyCores is a counter kept where a
// core gains or loses its task; after every event it must equal a scan
// of the cores, under schedulers that finish, block, expire slices and
// preempt on wakeup.
func TestBusyCoresCounterMatchesScan(t *testing.T) {
	mks := map[string]func() cpusim.Scheduler{
		"CFS":  func() cpusim.Scheduler { return sched.NewCFS(sched.CFSConfig{}) },
		"RR":   func() cpusim.Scheduler { return sched.NewRR(0) },
		"SRTF": func() cpusim.Scheduler { return sched.NewSRTF() },
		"FIFO": func() cpusim.Scheduler { return sched.NewFIFO() },
	}
	for name, mk := range mks {
		for seed := uint64(1); seed <= 20; seed++ {
			cores := int(seed%4) + 1
			eng := cpusim.NewEngine(cpusim.Config{Cores: cores}, mk())
			eng.Submit(randomWorkload(seed, uint8(seed*7))...)
			for step := 0; eng.Pending() > 0 && eng.StepEvent(); step++ {
				scan := 0
				for c := 0; c < cores; c++ {
					if eng.Running(c) != nil {
						scan++
					}
				}
				if got := eng.BusyCores(); got != scan {
					t.Fatalf("%s seed %d step %d: BusyCores %d, scan %d", name, seed, step, got, scan)
				}
			}
		}
	}
}
