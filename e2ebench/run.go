package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/serverless-sched/sfs/internal/cluster"
	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/trace"
)

// sample is what one run of the program reports back: host-time
// measurements, simulated outcomes, and (traced runs only) the layer
// split.
type sample struct {
	Traced     bool    `json:"traced"`
	DecodeS    float64 `json:"decode_s"`    // median over setupReps
	SetupS     float64 `json:"setup_s"`     // decode + cluster.New, median over setupReps
	RunS       float64 `json:"run_s"`       // Cluster.Run
	SummarizeS float64 `json:"summarize_s"` // Merged.Summarize
	Bytes      int     `json:"bytes"`
	Requests   int     `json:"requests"`
	verdict
	Allocs       uint64  `json:"allocs"`
	AllocBytes   uint64  `json:"alloc_bytes"`
	GCCycles     uint32  `json:"gc_cycles"`
	GCPauseS     float64 `json:"gc_pause_s"`
	SimP50MS     float64 `json:"sim_p50_ms"`
	SimP99MS     float64 `json:"sim_p99_ms"`
	Digest       string  `json:"digest"`
	CtxSwitches  int64   `json:"ctx_switches"`
	ColdStarts   int     `json:"cold_starts"`
	WarmHitRatio float64 `json:"warm_hit_ratio"`
	Evictions    int     `json:"evictions"`
	WorkflowsOK  int     `json:"workflows_done"`
	Layers       *layers `json:"layers,omitempty"`
	PeakRSSKB    int64   `json:"peak_rss_kb"`
	// CalS is calibrate's duration in this process, the mean of one
	// call before the run and one after it, on a collected heap.
	CalS float64 `json:"cal_s"`
	// trace is the index of the run's input, set by the parent.
	trace int
}

// layers is the traced run's split of Cluster.Run by wrapped interface.
type layers struct {
	NextCalls    int64   `json:"next_calls"`
	NextS        float64 `json:"next_s"`
	Picks        int64   `json:"picks"`
	Placed       int64   `json:"placed"`
	PickS        float64 `json:"pick_s"`
	Observed     int64   `json:"observed"`
	ObserveS     float64 `json:"observe_s"`
	Enqueue      int64   `json:"enqueue"`
	PickNext     int64   `json:"pick_next"`
	Descheduled  int64   `json:"descheduled"`
	WantsPreempt int64   `json:"wants_preempt"`
	Timers       int64   `json:"timers"`
	Preempted    int64   `json:"preempted"`
	Blocked      int64   `json:"blocked"`
	SchedS       float64 `json:"sched_s"`
	SchedCalls   int64   `json:"sched_calls"`
	HostSelfS    float64 `json:"host_self_s"`
}

// setupReps is how many times each run decodes its input and builds
// its cluster.
const setupReps = 7

// runOnce is the program under test: it decodes the SFTB bytes, builds
// the cluster, runs it, summarizes the merged result and checks the
// outputs. With traced set, each layer interface is wrapped in a
// timer. A Run error counts every attempted invocation as failed.
func runOnce(w spec, seed uint64, input []byte, traced bool) (*sample, error) {
	s := &sample{Traced: traced, Bytes: len(input)}
	var (
		src    *timedSource
		disp   *timedDispatcher
		scheds []*timedScheduler
	)
	var wrapSched func(cpusim.Scheduler) cpusim.Scheduler
	var wrapDisp func(cluster.Dispatcher) cluster.Dispatcher
	if traced {
		wrapSched = func(inner cpusim.Scheduler) cpusim.Scheduler {
			ts := &timedScheduler{inner: inner}
			scheds = append(scheds, ts)
			return ts
		}
		wrapDisp = func(inner cluster.Dispatcher) cluster.Dispatcher {
			var d cluster.Dispatcher
			disp, d = wrapDispatcher(inner)
			return d
		}
	}
	cfg, err := w.clusterConfig(seed, wrapSched, wrapDisp)
	if err != nil {
		return nil, err
	}

	// Set-up is short next to a run, so it is repeated, each time from
	// a collected heap, and the median kept; only the last cluster runs.
	var (
		tp      *trace.Tape
		cl      *cluster.Cluster
		decodes = make([]float64, setupReps)
		setups  = make([]float64, setupReps)
	)
	for i := range setupReps {
		scheds = scheds[:0]
		tp, cl = nil, nil
		runtime.GC()
		t0 := time.Now()
		if tp, err = trace.ReadBinaryTape(bytes.NewReader(input)); err != nil {
			return nil, fmt.Errorf("decode: %w", err)
		}
		t1 := time.Now()
		if cl, err = cluster.New(cfg); err != nil {
			return nil, err
		}
		decodes[i], setups[i] = t1.Sub(t0).Seconds(), time.Since(t0).Seconds()
	}
	s.DecodeS, s.SetupS = medianOf(decodes), medianOf(setups)

	var in trace.Source = tp.Source()
	if traced {
		src = &timedSource{Source: in}
		in = src
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t3 := time.Now()
	res, runErr := cl.Run(in)
	t4 := time.Now()
	runtime.ReadMemStats(&m1)

	requests, attempted := expectedInvocations(tp, cfg.Chain)
	s.Requests = requests
	s.RunS = t4.Sub(t3).Seconds()
	s.Allocs = m1.Mallocs - m0.Mallocs
	s.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	s.GCCycles = m1.NumGC - m0.NumGC
	s.GCPauseS = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9
	if runErr != nil {
		s.verdict = verdict{Attempted: attempted, Failed: attempted}
		s.problem("run: %v", runErr)
		return s, nil
	}

	t5 := time.Now()
	sum := res.Merged.Summarize(50, 99)
	ps := sum.Percentiles()
	s.SummarizeS = time.Since(t5).Seconds()
	s.SimP50MS = float64(ps[0]) / float64(time.Millisecond)
	s.SimP99MS = float64(ps[1]) / float64(time.Millisecond)

	s.verdict = check(res, attempted, requests, cfg.Chain != nil)
	s.Digest = digest(res)
	for _, hr := range res.PerHost {
		s.CtxSwitches += hr.CtxSwitches
	}
	s.ColdStarts = res.Lifecycle.ColdStarts
	s.WarmHitRatio = res.Lifecycle.WarmHitRatio()
	s.Evictions = res.Lifecycle.Evictions
	s.WorkflowsOK = res.Workflows.Completed()
	if s.PeakRSSKB, err = peakRSSKB(); err != nil {
		return nil, err
	}

	if traced {
		var sc schedCounts
		for _, ts := range scheds {
			sc.add(ts.schedCounts)
		}
		l := &layers{
			NextCalls: src.calls, NextS: float64(src.ns) / 1e9,
			Picks: disp.picks, Placed: disp.placed, PickS: float64(disp.pickNS) / 1e9,
			Observed: disp.observed, ObserveS: float64(disp.observeNS) / 1e9,
			Enqueue: sc.enqueue, PickNext: sc.pickNext, Descheduled: sc.descheduled,
			WantsPreempt: sc.wantsPreempt, Timers: sc.timers,
			Preempted: sc.preempted, Blocked: sc.blocked,
			SchedS: float64(sc.ns) / 1e9, SchedCalls: sc.calls(),
		}
		// The host layer is the residual: coordinator loop, host
		// runtimes and their stages, engines and event queues. In
		// sharded runs the scheduler time is summed over parallel
		// workers, so the residual is a lower bound there.
		l.HostSelfS = max(0, s.RunS-l.NextS-l.PickS-l.ObserveS-l.SchedS)
		s.Layers = l
		if l.Placed != int64(attempted) {
			s.problem("dispatcher placed %d invocations, %d attempted", l.Placed, attempted)
		}
	}
	return s, nil
}

// peakRSSKB returns the process's peak resident set. It reads the
// address space's high-water mark rather than getrusage's maxrss,
// which on Linux also covers the parent's memory the child was forked
// from.
func peakRSSKB() (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}
