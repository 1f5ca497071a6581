package cluster

import "github.com/serverless-sched/sfs/internal/host"

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
type fleetLoad struct {
	nodes    []*node
	views    []Host          // the cluster's view slice, identifying it in Pick
	queued   *host.Heap[int] // nil until first queried
	inFlight *host.Heap[int] // nil until first queried
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

// update re-keys host i after its load may have changed. Host reads
// are O(1), so this costs O(log hosts) per built heap.
func (fl *fleetLoad) update(i int) {
	n := fl.nodes[i]
	if fl.queued != nil {
		fl.queued.Update(i, n.Queued())
	}
	if fl.inFlight != nil {
		fl.inFlight.Update(i, n.InFlight())
	}
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
