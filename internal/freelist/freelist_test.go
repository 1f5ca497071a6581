package freelist

import "testing"

// TestReuse: Put zeroes a struct and the next Get returns it; Get on
// an empty list allocates a fresh zero struct.
func TestReuse(t *testing.T) {
	type ent struct {
		p *int
		n int
	}
	var l List[ent]
	x := 1
	a := l.Get()
	a.p, a.n = &x, 7
	l.Put(a)
	if len(l) != 1 || a.p != nil || a.n != 0 {
		t.Fatalf("Put kept %+v on a list of %d", *a, len(l))
	}
	if b := l.Get(); b != a || len(l) != 0 {
		t.Fatal("Get did not reuse the released struct")
	}
	if c := l.Get(); c == a || *c != (ent{}) {
		t.Fatal("Get on an empty list must return a fresh zero struct")
	}
}
