package rbtree

import (
	"sort"
	"testing"
	"testing/quick"

	"github.com/serverless-sched/sfs/internal/rng"
)

func intTree() *Tree[int] {
	return New(func(a, b int) bool { return a < b })
}

func TestEmptyTree(t *testing.T) {
	tr := intTree()
	if tr.Len() != 0 {
		t.Fatalf("empty tree has len %d", tr.Len())
	}
	if tr.Min() != nil {
		t.Fatal("empty tree has a min")
	}
	if _, ok := tr.PopMin(); ok {
		t.Fatal("PopMin on empty tree succeeded")
	}
	if ok, msg := tr.CheckInvariants(); !ok {
		t.Fatalf("empty tree invariants: %s", msg)
	}
}

func TestInsertOrdering(t *testing.T) {
	tr := intTree()
	in := []int{5, 3, 9, 1, 7, 2, 8, 4, 6, 0}
	for _, v := range in {
		tr.Insert(v)
	}
	got := tr.Values()
	want := append([]int(nil), in...)
	sort.Ints(want)
	if len(got) != len(want) {
		t.Fatalf("got %d values, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: got %d want %d", i, got[i], want[i])
		}
	}
}

func TestMinTracking(t *testing.T) {
	tr := intTree()
	tr.Insert(10)
	tr.Insert(5)
	if tr.Min().Value != 5 {
		t.Fatalf("min = %d, want 5", tr.Min().Value)
	}
	n := tr.Insert(1)
	if tr.Min().Value != 1 {
		t.Fatalf("min = %d, want 1", tr.Min().Value)
	}
	tr.Delete(n)
	if tr.Min().Value != 5 {
		t.Fatalf("after delete, min = %d, want 5", tr.Min().Value)
	}
}

func TestPopMinDrainsInOrder(t *testing.T) {
	tr := intTree()
	r := rng.New(1)
	var want []int
	for i := 0; i < 500; i++ {
		v := r.Intn(100) // duplicates expected
		tr.Insert(v)
		want = append(want, v)
	}
	sort.Ints(want)
	for i, w := range want {
		v, ok := tr.PopMin()
		if !ok {
			t.Fatalf("tree drained early at %d", i)
		}
		if v != w {
			t.Fatalf("pop %d: got %d want %d", i, v, w)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("tree not empty after drain: %d", tr.Len())
	}
}

func TestDeleteArbitraryNodes(t *testing.T) {
	tr := intTree()
	nodes := make([]*Node[int], 0, 100)
	for i := 0; i < 100; i++ {
		nodes = append(nodes, tr.Insert(i))
	}
	// Delete evens in a scrambled order.
	order := rng.New(2).Perm(50)
	for _, k := range order {
		tr.Delete(nodes[2*k])
		if ok, msg := tr.CheckInvariants(); !ok {
			t.Fatalf("invariants after deleting %d: %s", 2*k, msg)
		}
	}
	vals := tr.Values()
	if len(vals) != 50 {
		t.Fatalf("len = %d, want 50", len(vals))
	}
	for i, v := range vals {
		if v != 2*i+1 {
			t.Fatalf("value %d: got %d want %d", i, v, 2*i+1)
		}
	}
}

func TestDeleteNilIsNoop(t *testing.T) {
	tr := intTree()
	tr.Insert(1)
	tr.Delete(nil)
	if tr.Len() != 1 {
		t.Fatal("Delete(nil) changed the tree")
	}
}

func TestAscendEarlyStop(t *testing.T) {
	tr := intTree()
	for i := 0; i < 10; i++ {
		tr.Insert(i)
	}
	var seen []int
	tr.Ascend(func(v int) bool {
		seen = append(seen, v)
		return v < 4
	})
	if len(seen) != 5 {
		t.Fatalf("visited %d values, want 5 (0..4, stopping at 4)", len(seen))
	}
}

// TestRandomOpsInvariants is a property test: a random interleaving of
// inserts and deletes must preserve red-black invariants, ordering, size,
// and min tracking at every step.
func TestRandomOpsInvariants(t *testing.T) {
	r := rng.New(42)
	tr := intTree()
	var live []*Node[int]
	counts := map[int]int{}
	for step := 0; step < 3000; step++ {
		if len(live) == 0 || r.Float64() < 0.6 {
			v := r.Intn(64)
			live = append(live, tr.Insert(v))
			counts[v]++
		} else {
			i := r.Intn(len(live))
			n := live[i]
			counts[n.Value]--
			tr.Delete(n)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if step%97 == 0 {
			if ok, msg := tr.CheckInvariants(); !ok {
				t.Fatalf("step %d: %s", step, msg)
			}
			if tr.Len() != len(live) {
				t.Fatalf("step %d: len %d want %d", step, tr.Len(), len(live))
			}
		}
	}
	if ok, msg := tr.CheckInvariants(); !ok {
		t.Fatalf("final: %s", msg)
	}
	// Final multiset check.
	got := map[int]int{}
	for _, v := range tr.Values() {
		got[v]++
	}
	for v, c := range counts {
		if c != 0 && got[v] != c {
			t.Fatalf("value %d: count %d want %d", v, got[v], c)
		}
	}
}

// TestNodeReuse interleaves random inserts, deletes and PopMins: every
// Insert after a removal reuses the most recently removed node, the
// tree stays valid throughout, a removed node drops its Value (so the
// free list pins no caller data), and the tree never holds more nodes
// than its peak size.
func TestNodeReuse(t *testing.T) {
	r := rng.New(7)
	tr := New(func(a, b *int) bool { return *a < *b })
	var live []*Node[*int]
	var freed []*Node[*int] // removed nodes, most recent last
	distinct := map[*Node[*int]]bool{}
	peak := 0
	check := func(step int, removed *Node[*int]) {
		t.Helper()
		if removed != nil && removed.Value != nil {
			t.Fatalf("step %d: removed node still holds %d", step, *removed.Value)
		}
		if ok, msg := tr.CheckInvariants(); !ok {
			t.Fatalf("step %d: %s", step, msg)
		}
		if tr.Len() != len(live) {
			t.Fatalf("step %d: len %d want %d", step, tr.Len(), len(live))
		}
	}
	for step := 0; step < 4000; step++ {
		switch op := r.Float64(); {
		case len(live) == 0 || op < 0.5:
			v := r.Intn(32)
			n := tr.Insert(&v)
			if k := len(freed); k > 0 {
				if n != freed[k-1] {
					t.Fatalf("step %d: Insert allocated although %d removed nodes were free", step, k)
				}
				freed = freed[:k-1]
			}
			if n.Value != &v {
				t.Fatalf("step %d: reused node does not hold the inserted value", step)
			}
			live = append(live, n)
			distinct[n] = true
			check(step, nil)
		case op < 0.75:
			i := r.Intn(len(live))
			n := live[i]
			tr.Delete(n)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			freed = append(freed, n)
			check(step, n)
		default:
			n := tr.Min()
			if _, ok := tr.PopMin(); !ok {
				t.Fatalf("step %d: PopMin on a non-empty tree failed", step)
			}
			for i := range live {
				if live[i] == n {
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					break
				}
			}
			freed = append(freed, n)
			check(step, n)
		}
		if len(live) > peak {
			peak = len(live)
		}
	}
	if len(distinct) != peak {
		t.Fatalf("allocated %d distinct nodes for a peak of %d live", len(distinct), peak)
	}
}

// TestQuickSortedDrain uses testing/quick: inserting any []uint8 and
// draining via PopMin yields the sorted input.
func TestQuickSortedDrain(t *testing.T) {
	f := func(xs []uint8) bool {
		tr := intTree()
		for _, x := range xs {
			tr.Insert(int(x))
		}
		if ok, _ := tr.CheckInvariants(); !ok {
			return false
		}
		want := make([]int, len(xs))
		for i, x := range xs {
			want[i] = int(x)
		}
		sort.Ints(want)
		for _, w := range want {
			v, ok := tr.PopMin()
			if !ok || v != w {
				return false
			}
		}
		_, ok := tr.PopMin()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsertDelete(b *testing.B) {
	tr := intTree()
	r := rng.New(3)
	var nodes []*Node[int]
	for i := 0; i < 1024; i++ {
		nodes = append(nodes, tr.Insert(r.Intn(1<<20)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := i % len(nodes)
		tr.Delete(nodes[idx])
		nodes[idx] = tr.Insert(i & (1<<20 - 1))
	}
}

func BenchmarkPopMinInsert(b *testing.B) {
	tr := intTree()
	r := rng.New(4)
	for i := 0; i < 4096; i++ {
		tr.Insert(r.Intn(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _ := tr.PopMin()
		tr.Insert(v + 1)
	}
}
