package main

import (
	"container/heap"
	"time"
)

// calRef is calibrate's duration on the 2-vCPU VM the benchmark was
// tuned on. inv_per_s_norm and setup_s are scaled by calibrate's
// measured duration over calRef, so they read as invocations per
// second and set-up seconds on that machine.
const calRef = 0.04

type calItem struct {
	key  uint64
	next *calItem
}

type calHeap []*calItem

func (h calHeap) Len() int           { return len(h) }
func (h calHeap) Less(i, j int) bool { return h[i].key < h[j].key }
func (h calHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *calHeap) Push(x any)        { *h = append(*h, x.(*calItem)) }
func (h *calHeap) Pop() any {
	o := *h
	x := o[len(o)-1]
	*h = o[:len(o)-1]
	return x
}

var calSink uint64

// calibrate times a fixed workload shaped like the simulator's hot
// loop: an event heap of heap-allocated items and a hash map. It uses
// no repository code, so a change to the program cannot move it; it
// moves with the machine. On a shared VM the simulator's speed drifts
// by up to 30% over minutes, and this loop follows about half of that
// drift.
func calibrate() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	h := &calHeap{}
	m := make(map[uint64]*calItem, 1<<12)
	var prev *calItem
	for range 100000 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		it := &calItem{key: x, next: prev}
		prev = it
		heap.Push(h, it)
		m[x&(1<<14-1)] = it
		if h.Len() > 8192 {
			calSink += heap.Pop(h).(*calItem).key
			prev = nil
		}
	}
	calSink += uint64(len(m))
	return time.Since(t0).Seconds()
}
