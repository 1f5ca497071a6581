package simtime

import (
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/rng"
)

func TestFiringOrder(t *testing.T) {
	q := &Queue{}
	var got []int
	q.At(30*time.Millisecond, func(Time) { got = append(got, 3) })
	q.At(10*time.Millisecond, func(Time) { got = append(got, 1) })
	q.At(20*time.Millisecond, func(Time) { got = append(got, 2) })
	if n := q.RunAll(); n != 3 {
		t.Fatalf("fired %d events, want 3", n)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("order %v", got)
		}
	}
	if q.Now() != 30*time.Millisecond {
		t.Fatalf("clock at %v, want 30ms", q.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	q := &Queue{}
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		q.At(time.Millisecond, func(Time) { got = append(got, i) })
	}
	q.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events fired out of order: %v", got)
		}
	}
}

func TestAfterRelative(t *testing.T) {
	q := &Queue{}
	var at Time
	q.After(5*time.Millisecond, func(now Time) {
		q.After(7*time.Millisecond, func(now2 Time) { at = now2 })
	})
	q.RunAll()
	if at != 12*time.Millisecond {
		t.Fatalf("nested After fired at %v, want 12ms", at)
	}
}

func TestSchedulingInPastClampsToNow(t *testing.T) {
	q := &Queue{}
	var fired Time = -1
	q.After(10*time.Millisecond, func(now Time) {
		q.At(now-5*time.Millisecond, func(at Time) { fired = at })
	})
	q.RunAll()
	if fired != 10*time.Millisecond {
		t.Fatalf("past event fired at %v, want clamp to 10ms", fired)
	}
}

func TestNegativeDelayClamps(t *testing.T) {
	q := &Queue{}
	fired := false
	q.After(-time.Second, func(Time) { fired = true })
	q.RunAll()
	if !fired || q.Now() != 0 {
		t.Fatalf("negative delay: fired=%v now=%v", fired, q.Now())
	}
}

func TestCancel(t *testing.T) {
	q := &Queue{}
	fired := 0
	e1 := q.After(time.Millisecond, func(Time) { fired++ })
	q.After(2*time.Millisecond, func(Time) { fired++ })
	q.Cancel(e1)
	if !e1.Cancelled() {
		t.Fatal("event not marked cancelled")
	}
	q.RunAll()
	if fired != 1 {
		t.Fatalf("fired %d, want 1", fired)
	}
	_, f, c := q.Stats()
	if f != 1 || c != 1 {
		t.Fatalf("stats fired=%d cancelled=%d", f, c)
	}
}

func TestCancelNilAndDouble(t *testing.T) {
	q := &Queue{}
	q.Cancel(EventRef{}) // must not panic
	e := q.After(time.Millisecond, func(Time) {})
	q.Cancel(e)
	q.Cancel(e) // double cancel must not panic
	q.RunAll()
}

func TestCancelFromWithinEvent(t *testing.T) {
	q := &Queue{}
	fired := false
	var victim EventRef
	q.After(time.Millisecond, func(Time) { q.Cancel(victim) })
	victim = q.After(2*time.Millisecond, func(Time) { fired = true })
	q.RunAll()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestRunDeadline(t *testing.T) {
	q := &Queue{}
	fired := 0
	for i := 1; i <= 10; i++ {
		q.After(time.Duration(i)*time.Millisecond, func(Time) { fired++ })
	}
	n := q.Run(5 * time.Millisecond)
	if n != 5 || fired != 5 {
		t.Fatalf("Run(5ms) fired %d (%d), want 5", n, fired)
	}
	if q.Len() != 5 {
		t.Fatalf("pending %d, want 5", q.Len())
	}
	if q.Now() != 5*time.Millisecond {
		t.Fatalf("clock %v, want 5ms", q.Now())
	}
}

func TestPeekTime(t *testing.T) {
	q := &Queue{}
	if q.PeekTime() != Infinity {
		t.Fatal("empty queue PeekTime should be Infinity")
	}
	q.After(3*time.Millisecond, func(Time) {})
	if q.PeekTime() != 3*time.Millisecond {
		t.Fatalf("PeekTime %v, want 3ms", q.PeekTime())
	}
}

// TestHeapStress randomly schedules and cancels events and checks that
// firing times are globally non-decreasing.
func TestHeapStress(t *testing.T) {
	q := &Queue{}
	r := rng.New(7)
	var last Time = -1
	var pending []EventRef
	scheduled := 0
	for i := 0; i < 200; i++ {
		e := q.After(time.Duration(r.Intn(1000))*time.Millisecond, func(now Time) {
			if now < last {
				t.Fatalf("clock went backwards: %v < %v", now, last)
			}
			last = now
		})
		pending = append(pending, e)
		scheduled++
	}
	for q.Len() > 0 {
		// Randomly cancel, schedule, or step.
		switch r.Intn(4) {
		case 0:
			q.Cancel(pending[r.Intn(len(pending))])
		case 1:
			if scheduled < 1000 {
				e := q.After(time.Duration(r.Intn(500))*time.Millisecond, func(now Time) {
					if now < last {
						t.Fatalf("clock went backwards: %v < %v", now, last)
					}
					last = now
				})
				pending = append(pending, e)
				scheduled++
			}
		default:
			q.Step()
		}
	}
}

func BenchmarkScheduleFire(b *testing.B) {
	q := &Queue{}
	r := rng.New(9)
	for i := 0; i < 1024; i++ {
		q.After(time.Duration(r.Intn(1_000_000)), func(Time) {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.After(time.Duration(r.Intn(1_000_000)), func(Time) {})
		q.Step()
	}
}

// TestEventRecycling: fired and cancelled event structs are reused by
// later schedules, and stale refs to their previous lives are inert.
func TestEventRecycling(t *testing.T) {
	q := &Queue{}
	first := q.After(time.Millisecond, func(Time) {})
	q.RunAll()
	if !first.Cancelled() {
		t.Fatal("fired event's ref should report no longer pending")
	}

	// The struct backing `first` is now on the free list; the next
	// schedule reuses it. Cancelling the stale ref must not touch the
	// new event.
	fired := false
	second := q.After(time.Millisecond, func(Time) { fired = true })
	q.Cancel(first) // stale: different generation
	q.RunAll()
	if !fired {
		t.Fatal("stale Cancel killed an unrelated recycled event")
	}
	_ = second

	// Same for a cancelled (never fired) event.
	third := q.After(time.Millisecond, func(Time) {})
	q.Cancel(third)
	fired = false
	fourth := q.After(time.Millisecond, func(Time) { fired = true })
	q.Cancel(third) // stale double-cancel on a recycled struct
	q.RunAll()
	if !fired {
		t.Fatal("stale double-cancel killed a recycled event")
	}
	_ = fourth
}

// TestZeroEventRef: the zero ref is inert everywhere.
func TestZeroEventRef(t *testing.T) {
	q := &Queue{}
	var zero EventRef
	q.Cancel(zero) // must not panic
	if zero.Cancelled() {
		t.Fatal("zero ref must not report cancelled")
	}
}

// BenchmarkScheduleFireAllocs verifies the steady-state schedule/fire
// cycle runs allocation-free thanks to event recycling.
func BenchmarkScheduleFireAllocs(b *testing.B) {
	q := &Queue{}
	fn := func(Time) {}
	for i := 0; i < 64; i++ {
		q.After(time.Duration(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.After(time.Duration(i%1000), fn)
		q.Step()
	}
}

// TestAtArgPayload: AtArg events share At's (time, sequence) order,
// receive their payload, and a fired event drops its payload; a
// pointer payload with a reused callback schedules without allocating.
func TestAtArgPayload(t *testing.T) {
	q := &Queue{}
	var got []int
	fn := func(_ Time, arg any) { got = append(got, *arg.(*int)) }
	one, two, three := 1, 2, 3
	q.AtArg(time.Millisecond, fn, &two)
	q.At(0, func(Time) { got = append(got, 0) })
	q.AtArg(0, fn, &one)
	q.AtArg(time.Millisecond, fn, &three)
	q.RunAll()
	if len(got) != 4 || got[0] != 0 || got[1] != 1 || got[2] != 2 || got[3] != 3 {
		t.Fatalf("fired %v, want [0 1 2 3]", got)
	}
	for _, e := range q.free {
		if e.arg != nil || e.fn != nil {
			t.Fatal("recycled event still holds its callback or payload")
		}
	}
	noop, noArg := func(Time, any) {}, func(Time) {}
	if n := testing.AllocsPerRun(100, func() {
		q.AtArg(q.Now()+time.Millisecond, noop, &one)
		q.At(q.Now()+time.Millisecond, noArg)
		q.Step()
		q.Step()
	}); n != 0 {
		t.Fatalf("At/AtArg+Step allocated %v times per pair of events", n)
	}
}

// TestPartitionsFireInOneOrder: events spread over the global and
// local partitions — some scheduled local, some cancelled, some
// demoted back to global mid-run — fire in exactly the order one queue
// holding them all fires them, and PeekGlobal and LocalLen track the
// partitions.
func TestPartitionsFireInOneOrder(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		split, ref := &Queue{}, &Queue{}
		split.ReserveLocal(8)
		var got, want []int
		var splitRefs, refRefs []EventRef
		for id := 0; id < 300; id++ {
			at := Time(r.Intn(50)) * time.Millisecond
			id := id
			if r.Intn(2) == 0 {
				splitRefs = append(splitRefs, split.AtArgLocal(at, func(Time, any) { got = append(got, id) }, id))
			} else {
				splitRefs = append(splitRefs, split.AtArg(at, func(Time, any) { got = append(got, id) }, id))
			}
			refRefs = append(refRefs, ref.At(at, func(Time) { want = append(want, id) }))
			if r.Intn(10) == 0 {
				k := r.Intn(len(splitRefs))
				split.Cancel(splitRefs[k])
				ref.Cancel(refRefs[k])
			}
		}
		for split.Len() > 0 {
			if r.Intn(8) == 0 {
				keepEven := func(arg any) bool { return arg.(int)%2 == 0 }
				before := split.LocalLen()
				moved := split.DemoteLocal(keepEven)
				if split.LocalLen() != before-moved {
					t.Fatalf("seed %d: DemoteLocal moved %d of %d but left %d", seed, moved, before, split.LocalLen())
				}
				for i := range split.LocalLen() {
					if split.LocalArg(i).(int)%2 != 0 {
						t.Fatalf("seed %d: DemoteLocal kept rejected event %v", seed, split.LocalArg(i))
					}
				}
			}
			if at, local := split.Peek(); !local && split.PeekGlobal() != at {
				t.Fatalf("seed %d: head at %v is global but PeekGlobal says %v", seed, at, split.PeekGlobal())
			}
			split.Step()
			ref.Step()
		}
		if ref.Len() != 0 || len(got) != len(want) {
			t.Fatalf("seed %d: fired %d events, reference %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: event %d fired as %d, reference %d", seed, i, got[i], want[i])
			}
		}
	}
}
