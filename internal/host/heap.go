package host

import "cmp"

// Heap is an index-addressable binary min-heap over the indices 0..n-1,
// each carrying one key. It replaces O(n) scans with an O(1) peek and
// an O(log n) re-key, and serves two orderings: a Group keys its
// runtimes by next pending event time, and the cluster's fleet load
// index keys hosts by dispatch load (queued or in-flight invocations).
//
// Ordering matches the first-minimum scan it replaces exactly —
// smallest key first, ties broken by lowest index — so replays are
// byte-identical at any fleet size. Every index stays in the heap for
// its whole life (an idle runtime is parked at simtime.Infinity rather
// than removed), which keeps every entry addressable by index.
type Heap[K cmp.Ordered] struct {
	key  []K   // index -> current key
	heap []int // heap of indices
	pos  []int // index -> position in heap
}

// NewHeap builds a heap of n indices, all keyed at init.
func NewHeap[K cmp.Ordered](n int, init K) *Heap[K] {
	h := &Heap[K]{
		key:  make([]K, n),
		heap: make([]int, n),
		pos:  make([]int, n),
	}
	for i := 0; i < n; i++ {
		h.key[i] = init
		h.heap[i] = i
		h.pos[i] = i
	}
	return h
}

// Min returns the index with the smallest key (lowest index on ties)
// and that key.
func (h *Heap[K]) Min() (idx int, key K) {
	top := h.heap[0]
	return top, h.key[top]
}

// Key returns index i's current key.
func (h *Heap[K]) Key(i int) K { return h.key[i] }

// Update re-keys index i and restores the heap invariant.
func (h *Heap[K]) Update(i int, key K) {
	if h.key[i] == key {
		return
	}
	h.key[i] = key
	p := h.pos[i]
	if !h.up(p) {
		h.down(p)
	}
}

// less orders heap positions by (key, index); the index tie-break
// reproduces the scan's first-minimum choice.
func (h *Heap[K]) less(a, b int) bool {
	ha, hb := h.heap[a], h.heap[b]
	if h.key[ha] != h.key[hb] {
		return h.key[ha] < h.key[hb]
	}
	return ha < hb
}

func (h *Heap[K]) swap(a, b int) {
	h.heap[a], h.heap[b] = h.heap[b], h.heap[a]
	h.pos[h.heap[a]] = a
	h.pos[h.heap[b]] = b
}

func (h *Heap[K]) up(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
		moved = true
	}
	return moved
}

func (h *Heap[K]) down(i int) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}
