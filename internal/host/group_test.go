package host

import (
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/rng"
	"github.com/serverless-sched/sfs/internal/sched"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
)

// TestAdvanceCountsCompletionsOverTouched: Advance counts a window's
// completions from the runtimes it touched alone. The count must equal
// the fleet-wide pending delta, and every runtime whose engine or
// assignment count changed must be listed in Touched.
func TestAdvanceCountsCompletionsOverTouched(t *testing.T) {
	const runtimes, window = 6, 2 * time.Millisecond
	rts := make([]*Runtime, runtimes)
	for i := range rts {
		rts[i] = New(cpusim.NewEngine(cpusim.Config{Cores: 1}, sched.NewFIFO()))
	}
	g := NewGroup(rts)
	type snap struct{ pending, queued int }
	snapshot := func() []snap {
		s := make([]snap, runtimes)
		for i, rt := range rts {
			s[i] = snap{rt.Engine().Pending(), rt.Queued()}
		}
		return s
	}

	r := rng.New(5)
	id, total, finished := 0, 0, 0
	for bound := window; finished < total || id < 200; bound += window {
		// Assign a few submissions inside the coming window, in time order.
		at := bound - window
		for k := r.Intn(4); k > 0 && id < 200; k-- {
			at += time.Duration(r.Intn(int(window / 4)))
			g.Enqueue(r.Intn(runtimes), at, task.New(id, at, time.Duration(1+r.Intn(3000))*time.Microsecond))
			id++
			total++
		}
		before := snapshot()
		pendingBefore := 0
		for _, s := range before {
			pendingBefore += s.pending
		}
		submitted := g.NextSubmissionTime() < bound
		got := g.Advance(bound)

		touched := map[int]bool{}
		for _, i := range g.Touched() {
			if touched[i] {
				t.Fatalf("window ending %v: runtime %d listed twice in Touched", bound, i)
			}
			touched[i] = true
		}
		after := snapshot()
		delivered := 0
		pendingAfter := 0
		for i := range rts {
			delivered += before[i].queued - after[i].queued
			pendingAfter += after[i].pending
			if before[i] != after[i] && !touched[i] {
				t.Fatalf("window ending %v: runtime %d changed but is not in Touched", bound, i)
			}
		}
		if want := pendingBefore + delivered - pendingAfter; got != want {
			t.Fatalf("window ending %v: Advance counted %d completions, fleet-wide delta is %d", bound, got, want)
		}
		if submitted && len(g.Touched()) == 0 {
			t.Fatalf("window ending %v: a submission was delivered but nothing was touched", bound)
		}
		finished += got
		if bound > simtime.Time(time.Hour) {
			t.Fatal("runtimes never drained")
		}
	}
	if finished != total {
		t.Fatalf("counted %d completions over the run, submitted %d", finished, total)
	}
}
