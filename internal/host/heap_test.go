package host

import (
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/rng"
	"github.com/serverless-sched/sfs/internal/simtime"
)

// TestHeapMatchesScan drives the heap with random re-keys and checks
// its minimum against the linear scan it replaced (earliest time wins,
// ties by lowest runtime index) after every update.
func TestHeapMatchesScan(t *testing.T) {
	const hosts = 9
	h := NewHeap(hosts, simtime.Infinity)
	keys := make([]simtime.Time, hosts)
	for i := range keys {
		keys[i] = simtime.Infinity
	}
	scanMin := func() (int, simtime.Time) {
		best, at := -1, simtime.Infinity
		for i, k := range keys {
			if k < at {
				best, at = i, k
			}
		}
		if best < 0 {
			// All parked: the heap reports some runtime at Infinity; the
			// index is irrelevant because callers guard on the key.
			return h.heap[0], simtime.Infinity
		}
		return best, at
	}

	r := rng.New(11)
	for step := 0; step < 5000; step++ {
		i := r.Intn(hosts)
		var k simtime.Time
		switch r.Intn(4) {
		case 0:
			k = simtime.Infinity // runtime went idle
		default:
			// Coarse buckets force frequent exact ties so the
			// index tie-break is actually exercised.
			k = time.Duration(r.Intn(50)) * time.Millisecond
		}
		keys[i] = k
		h.Update(i, k)

		wantHost, wantAt := scanMin()
		gotHost, gotAt := h.Min()
		if gotAt != wantAt || (wantAt < simtime.Infinity && gotHost != wantHost) {
			t.Fatalf("step %d: heap min (runtime %d, %v), scan min (runtime %d, %v)",
				step, gotHost, gotAt, wantHost, wantAt)
		}
	}
}
