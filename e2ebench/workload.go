package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"github.com/serverless-sched/sfs/internal/chain"
	"github.com/serverless-sched/sfs/internal/cluster"
	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/lifecycle"
	"github.com/serverless-sched/sfs/internal/schedulers"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
	"github.com/serverless-sched/sfs/internal/workload"
)

// spec is one benchmark workload: a trace family sized and seeded by
// the run, and the fleet the trace is replayed on. Every workload uses
// the paper's SFS scheduler on each host.
type spec struct {
	Name   string `json:"name"`
	Family string `json:"family"` // workload scenario family (AZURE, TRIGGER)
	N      int    `json:"n"`      // trace records; TRIGGER requests expand into chain stages
	// Load is the offered CPU load the trace is calibrated to, over
	// the whole fleet's cores.
	Load     float64 `json:"load"`
	Hosts    int     `json:"hosts"`
	Cores    int     `json:"cores_per_host"`
	Sched    string  `json:"sched"`
	Dispatch string  `json:"dispatch"`
	Shards   int     `json:"shards"`
	// KeepAlive names the per-host container keep-alive policy ("" =
	// lifecycle modeling off); MemoryMB caps each host's warm pool.
	KeepAlive string `json:"keepalive,omitempty"`
	MemoryMB  int    `json:"memory_mb,omitempty"`
	// Traces is how many traces, each seeded from the run's seed, one
	// benchmark run measures: more where single traces differ more.
	Traces int `json:"traces"`
}

// workloads is the benchmark's catalogue. The reasons each exists, and
// which layer it stresses, are recorded in BENCHMARK.json and
// LAYERS.md.
var workloads = []spec{
	// Many shallow hosts: every Pick scans the whole fleet.
	{Name: "fleet-jsq", Family: "AZURE", N: 40000, Load: 0.9, Hosts: 512, Cores: 2, Sched: "SFS", Dispatch: "JSQ", Traces: 4},
	// Few deep hosts: SFS FILTER→CFS demotion dominates, dispatch is O(1).
	{Name: "host-sfs", Family: "AZURE", N: 60000, Load: 0.9, Hosts: 4, Cores: 16, Sched: "SFS", Dispatch: "RR", Traces: 16},
	// Host stage pipeline: warm pools under a memory cap plus chains.
	// 1024 MB (eight 128 MB containers per host) evicts without
	// thrashing; 512 MB turns about half the invocations cold.
	{Name: "trigger-warm", Family: "TRIGGER", N: 40000, Load: 0.9, Hosts: 64, Cores: 4, Sched: "SFS", Dispatch: "WARMFIRST",
		KeepAlive: "HIST", MemoryMB: 1024, Traces: 8},
	// fleet-jsq's trace and fleet through the sharded engine.
	{Name: "fleet-sharded", Family: "AZURE", N: 40000, Load: 0.9, Hosts: 512, Cores: 2, Sched: "SFS", Dispatch: "JSQ", Shards: 8, Traces: 4},
}

func lookup(name string) (spec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func (w spec) familyConfig(seed uint64) workload.FamilyConfig {
	return workload.FamilyConfig{N: w.N, Cores: w.Hosts * w.Cores, Load: w.Load, Seed: seed}
}

// generate builds the workload's trace from seed and encodes it as SFTB
// bytes — the only input the program under test receives.
//
// Two properties of the generated streams would otherwise stop the
// encoder, so generate repairs them and counts each repair for the
// manifest. SFTB stores whole microseconds, and trace.WriteBinary
// truncates a service time under 1µs to a zero the decoder then rejects
// (Table I's shortest mode is uniform from 0, so about one
// 40k-invocation trace in three has such a draw): those are rounded up
// to 1µs, the smallest service the format carries. The TRIGGER family's
// queue batches can overlap the next batch, so its stream is not in
// arrival order, which SFTB requires: the trace is sorted by arrival
// (stably, with sequential IDs) before encoding.
func (w spec) generate(seed uint64) ([]byte, repairs, error) {
	var rep repairs
	src, err := workload.NewFamily(w.Family, w.familyConfig(seed))
	if err != nil {
		return nil, rep, err
	}
	var last simtime.Time
	tp, err := trace.TapeFrom(trace.Map(src, func(t *task.Task) *task.Task {
		if t.Service < time.Microsecond {
			t.Service = time.Microsecond
			rep.RoundedUp++
		}
		if t.Arrival < last {
			rep.OutOfOrder++
		}
		last = max(last, t.Arrival)
		return t
	}))
	if err != nil {
		return nil, rep, fmt.Errorf("generate %s trace: %w", w.Name, err)
	}
	tp.SortByArrival()
	var buf bytes.Buffer
	if _, err := trace.WriteBinary(&buf, tp.Source()); err != nil {
		return nil, rep, fmt.Errorf("encode %s trace: %w", w.Name, err)
	}
	return buf.Bytes(), rep, nil
}

// repairs counts the generated records generate had to change.
type repairs struct {
	RoundedUp  int `json:"rounded_up"`   // service under 1µs
	OutOfOrder int `json:"out_of_order"` // arrival before its predecessor's
}

// chainConfig returns the workflow definitions a TRIGGER trace's
// requests expand into (nil for plain families). They are the
// platform's function-chain configuration, not trace data.
func (w spec) chainConfig(seed uint64) *chain.Config {
	if w.Family != "TRIGGER" {
		return nil
	}
	fc := w.familyConfig(seed)
	_, cfg, _ := workload.TriggerStream(workload.TriggerSpec{N: fc.N, Cores: fc.Cores, Load: fc.Load, Seed: fc.Seed})
	return &cfg
}

// clusterConfig builds the fleet. wrapSched and wrapDispatch let the
// traced run interpose its timers on the layer interfaces; nil leaves
// them bare.
func (w spec) clusterConfig(seed uint64, wrapSched func(cpusim.Scheduler) cpusim.Scheduler,
	wrapDispatch func(cluster.Dispatcher) cluster.Dispatcher) (cluster.Config, error) {
	if _, err := schedulers.New(w.Sched); err != nil {
		return cluster.Config{}, err
	}
	d, err := cluster.NewDispatcher(w.Dispatch, cluster.FactoryConfig{Hosts: w.Hosts, Seed: seed})
	if err != nil {
		return cluster.Config{}, err
	}
	if wrapDispatch != nil {
		d = wrapDispatch(d)
	}
	cfg := cluster.Config{
		Hosts:        w.Hosts,
		CoresPerHost: w.Cores,
		Dispatcher:   d,
		Chain:        w.chainConfig(seed),
		Shards:       w.Shards,
		Workers:      min(w.Shards, runtime.NumCPU()),
		NewScheduler: func() cpusim.Scheduler {
			s, _ := schedulers.New(w.Sched) // name validated above
			if wrapSched != nil {
				s = wrapSched(s)
			}
			return s
		},
	}
	if w.KeepAlive != "" {
		if _, err := lifecycle.NewByName(w.KeepAlive, w.MemoryMB, 0, seed); err != nil {
			return cluster.Config{}, err
		}
		cfg.NewLifecycle = func() *lifecycle.Manager {
			m, _ := lifecycle.NewByName(w.KeepAlive, w.MemoryMB, 0, seed) // validated above
			return m
		}
	}
	return cfg, nil
}
