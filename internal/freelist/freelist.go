// Package freelist recycles the short-lived structs of the simulator's
// hot path — runqueue nodes, scheduler entities, keep-alive events — so
// a steady stream of invocations allocates none of them once a list has
// grown to the peak number in flight. It is the user-space counterpart of
// Linux embedding sched_entity in the task instead of allocating one
// per wakeup.
package freelist

// List holds released structs for reuse. The zero value is an empty
// list. It is not safe for concurrent use.
type List[E any] []*E

// Get returns a zeroed struct, reusing a released one when available.
func (f *List[E]) Get() *E {
	n := len(*f)
	if n == 0 {
		return new(E)
	}
	e := (*f)[n-1]
	(*f)[n-1] = nil
	*f = (*f)[:n-1]
	return e
}

// Put zeroes e, dropping its references, and keeps it for reuse. The
// caller must hold no other reference to e.
func (f *List[E]) Put(e *E) {
	var zero E
	*e = zero
	*f = append(*f, e)
}
