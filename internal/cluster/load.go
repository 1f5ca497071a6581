package cluster

import (
	"math/bits"

	"github.com/serverless-sched/sfs/internal/host"
	"github.com/serverless-sched/sfs/internal/simtime"
)

// fleetLoad is the cluster's fleet load index: index-addressable
// min-heaps over every host's Queued and InFlight counts, so the
// argmin-load policies (JSQ, LEASTLOADED, PULL, and WARMFIRST's
// no-warm fallback) read their choice in O(1) instead of scanning the
// fleet on every pick. Ties break by lowest host index, exactly like
// the scans' first minimum, so placements are unchanged.
//
// A host's load changes only when its engine steps or receives work,
// or when the sharded coordinator assigns it a submission, and the
// coordinator re-keys that host right there (see update) — always
// single-threaded and always before the next Pick. Each heap is built
// on its first query, so policies that never read it (RR, HASH,
// PREDICTED, …) pay nothing.
//
// With lifecycle modeling on, the index also tracks container state
// (see trackLifecycles): a bitset per application of the hosts holding
// an idle container for it, so WARMFIRST visits only warm hosts, and a
// heap of each manager's next expiry or pre-warm, so a dispatch
// advances only the managers with something due. Both follow the
// managers' change feeds (lifecycle.Manager.DrainWarm and NextEvent),
// read at the same sites that re-key the load heaps and whenever the
// index advances a manager itself. Shard workers change managers
// concurrently inside a window, so the feeds are logs the coordinator
// drains at the barrier rather than callbacks that would write the
// shared bitset words from several goroutines.
type fleetLoad struct {
	nodes    []*node
	views    []Host          // the cluster's view slice, identifying it in Pick
	queued   *host.Heap[int] // nil until first queried
	inFlight *host.Heap[int] // nil until first queried

	// warm maps an application to its bitset over hosts (bit i of word
	// i/64 set exactly when host i's manager holds an idle container
	// for it); clocks keys each host by its manager's NextEvent. Both
	// are nil until trackLifecycles.
	warm   map[string][]uint64
	clocks *host.Heap[simtime.Time]
	// draining is the host whose warm log syncLifecycle is reading;
	// onWarm is the flipWarm method value, bound once.
	draining int
	onWarm   func(app string, warm bool)
}

// loadOf resolves the fleet load index behind hosts: non-nil exactly
// when hosts is a cluster's own view slice, which forwarding wrappers
// pass through unchanged. Any other slice (a test fake, a subset) must
// fall back to the reference scan.
func loadOf(hosts []Host) *fleetLoad {
	if len(hosts) == 0 {
		return nil
	}
	n, ok := hosts[0].(*node)
	if !ok || len(hosts) != len(n.load.views) || &hosts[0] != &n.load.views[0] {
		return nil
	}
	return n.load
}

// update re-keys host i after its load, or its container state, may
// have changed. Host reads are O(1), so this costs O(log hosts) per
// built heap plus one bit flip per application the host's warm log
// names.
func (fl *fleetLoad) update(i int) {
	n := fl.nodes[i]
	if fl.queued != nil {
		fl.queued.Update(i, n.Queued())
	}
	if fl.inFlight != nil {
		fl.inFlight.Update(i, n.InFlight())
	}
	if fl.clocks != nil {
		fl.syncLifecycle(i)
	}
}

// trackLifecycles builds the warm bitsets and the lifecycle clock heap
// over the fleet's managers. Cluster.Run calls it once at start, when
// every node has a manager.
func (fl *fleetLoad) trackLifecycles() {
	fl.warm = map[string][]uint64{}
	fl.clocks = host.NewHeap(len(fl.nodes), simtime.Infinity)
	fl.onWarm = fl.flipWarm
	for i := range fl.nodes {
		fl.syncLifecycle(i)
	}
}

// syncLifecycle applies host i's warm log to the bitsets and re-keys
// its lifecycle clock.
func (fl *fleetLoad) syncLifecycle(i int) {
	m := fl.nodes[i].mgr
	fl.draining = i
	m.DrainWarm(fl.onWarm)
	fl.clocks.Update(i, m.NextEvent())
}

// flipWarm sets or clears the draining host's bit in app's bitset.
func (fl *fleetLoad) flipWarm(app string, warm bool) {
	set := fl.warm[app]
	if set == nil {
		set = make([]uint64, (len(fl.nodes)+63)/64)
		fl.warm[app] = set
	}
	i := fl.draining
	if warm {
		set[i/64] |= 1 << (i % 64)
	} else {
		set[i/64] &^= 1 << (i % 64)
	}
}

// advanceLifecycles advances every manager with an expiry or pre-warm
// due at or before at, as if each had been advanced to at; the others
// have nothing to process, so their clocks are left behind. A no-op
// when lifecycle modeling is off.
func (fl *fleetLoad) advanceLifecycles(at simtime.Time) {
	if fl.clocks == nil {
		return
	}
	for {
		i, next := fl.clocks.Min()
		if next > at {
			return
		}
		fl.nodes[i].mgr.AdvanceTo(at)
		fl.syncLifecycle(i)
	}
}

// leastLoadedWarm returns the host with the fewest in-flight
// invocations among those holding an idle container for app (lowest
// index on ties), or -1 when none does: WARMFIRST's warm-host scan,
// visiting only the set bits.
func (fl *fleetLoad) leastLoadedWarm(app string) int {
	best, bestLoad := -1, 0
	for w, word := range fl.warm[app] {
		for word != 0 {
			i := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			if l := fl.nodes[i].InFlight(); best < 0 || l < bestLoad {
				best, bestLoad = i, l
			}
		}
	}
	return best
}

// minQueued returns the host with the fewest queued invocations.
func (fl *fleetLoad) minQueued() int {
	if fl.queued == nil {
		fl.queued = fl.build((*node).Queued)
	}
	i, _ := fl.queued.Min()
	return i
}

// minInFlight returns the host with the fewest in-flight invocations
// and that count.
func (fl *fleetLoad) minInFlight() (idx, inFlight int) {
	if fl.inFlight == nil {
		fl.inFlight = fl.build((*node).InFlight)
	}
	return fl.inFlight.Min()
}

func (fl *fleetLoad) build(load func(*node) int) *host.Heap[int] {
	h := host.NewHeap(len(fl.nodes), 0)
	for i, n := range fl.nodes {
		h.Update(i, load(n))
	}
	return h
}
