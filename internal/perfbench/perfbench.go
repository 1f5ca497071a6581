// Package perfbench is the repository's performance harness: it runs a
// fixed set of micro-benchmarks over the simulator's hot paths (engine
// stepping, cluster dispatch, trace encode/decode, metrics summaries)
// plus the parallel experiment suite's wall-clock, and renders the
// results as a machine-readable BENCH_<date>.json. Checked-in BENCH
// files form the project's performance trajectory and are recorded at
// quick scale (Compare refuses quick-vs-full comparisons); CI
// regenerates the measurements on every push and fails when any gated
// benchmark (see GatedBenchmarks) regresses more than a configured
// fraction against the newest checked-in baseline (see Compare).
//
// The scenarios are ordinary testing.B functions, so `go test -bench`
// exercises the exact same code through bench_test.go while cmd/perfbench
// drives them programmatically via testing.Benchmark.
package perfbench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/chain"
	"github.com/serverless-sched/sfs/internal/cluster"
	"github.com/serverless-sched/sfs/internal/core"
	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/dist"
	"github.com/serverless-sched/sfs/internal/experiments"
	"github.com/serverless-sched/sfs/internal/lifecycle"
	"github.com/serverless-sched/sfs/internal/metrics"
	"github.com/serverless-sched/sfs/internal/sched"
	"github.com/serverless-sched/sfs/internal/trace"
	"github.com/serverless-sched/sfs/internal/workload"
)

// EngineStepBenchmark is the name of the single-host benchmark the CI
// regression gate has watched since the gate existed.
const EngineStepBenchmark = "engine-step"

// GatedBenchmarks lists every benchmark the CI regression gate fails
// on. The heavyweight cluster-1m scenario is deliberately absent: it
// runs one multi-second iteration, which is too noisy to gate at 25%.
func GatedBenchmarks() []string {
	return []string{
		EngineStepBenchmark,
		"sharded-cluster",
		"trace-binary-decode",
		"trace-binary-encode",
		"predicted-dispatch",
		"host-pipeline",
		"dispatch-1k",
	}
}

// Options parameterizes a harness run.
type Options struct {
	// Quick shrinks scenario sizes so the whole harness finishes in
	// seconds. This is both the CI mode and the scale the repository's
	// checked-in BENCH_*.json baselines record — Compare refuses
	// quick-vs-full comparisons, so trajectory points must stay at one
	// scale for the gate to work. Full mode is for local deep dives.
	Quick bool
	// Seed drives every synthetic input.
	Seed uint64
	// Workers is the worker count for the parallel experiment suite
	// timing (0 = all CPUs).
	Workers int
	// SkipExperiments skips the experiment-suite wall-clock phase
	// (used by unit tests that only need the micro-benchmarks).
	SkipExperiments bool
	// SkipHeavy skips scenarios marked Heavy (the 1M-invocation cluster
	// run); unit tests and exploratory runs use this to stay fast while
	// the checked-in trajectory reports keep the full set.
	SkipHeavy bool
	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

// Benchmark is one scenario's measurement.
type Benchmark struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
	// Shards records the simulation shard count a cluster scenario ran
	// with (0 for serial/non-cluster scenarios), so cross-host baseline
	// comparisons know the parallelism the number was measured at.
	Shards int `json:"shards,omitempty"`
}

// ExperimentTiming records the experiment suite's wall-clock at one and
// at Workers workers — the headline the parallel runner exists for.
type ExperimentTiming struct {
	Workers            int     `json:"workers"`
	WallClockMS        float64 `json:"wall_clock_ms"`
	SerialWallClockMS  float64 `json:"serial_wall_clock_ms"`
	Speedup            float64 `json:"speedup"`
	Experiments        int     `json:"experiments"`
	DeterministicBytes bool    `json:"deterministic_bytes"` // parallel == serial rendered output
}

// Report is the full harness output, serialized as BENCH_<date>.json.
type Report struct {
	Date      string `json:"date"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	// GoMaxProcs is the scheduler parallelism the harness actually ran
	// with — distinct from CPUs (the physical count): on a 1-CPU box the
	// sharded scenarios execute their windows serially, so their ns/op
	// carries no parallel speedup. Notes records that caveat when it
	// applies.
	GoMaxProcs int      `json:"gomaxprocs,omitempty"`
	Notes      []string `json:"notes,omitempty"`
	Quick      bool     `json:"quick"`
	Seed       uint64   `json:"seed"`
	// CalibrationNsPerOp measures a fixed pure-CPU integer loop on the
	// machine that produced the report. Compare uses the ratio of
	// calibrations to normalize ns/op across machines, so a baseline
	// recorded on one box still gates code regressions (not hardware
	// differences) on another.
	CalibrationNsPerOp float64           `json:"calibration_ns_per_op,omitempty"`
	Benchmarks         []Benchmark       `json:"benchmarks"`
	Experiments        *ExperimentTiming `json:"experiments,omitempty"`
}

// calibSink defeats dead-code elimination of the calibration loop.
var calibSink uint64

// calibrate times a fixed integer-arithmetic loop (a rough proxy for
// the simulator's integer/pointer-heavy work) on this machine.
func calibrate() float64 {
	res := testing.Benchmark(func(b *testing.B) {
		var x uint64 = 0x9e3779b97f4a7c15
		for i := 0; i < b.N; i++ {
			for j := 0; j < 4096; j++ {
				x = x*6364136223846793005 + 1442695040888963407
			}
		}
		calibSink = x
	})
	if res.N == 0 {
		return 0
	}
	return float64(res.T.Nanoseconds()) / float64(res.N)
}

// Scenario is one named micro-benchmark.
type Scenario struct {
	Name  string
	Bench func(b *testing.B)
	// Shards is the simulation shard count the scenario drives (0 for
	// serial scenarios); recorded into the Benchmark measurement.
	Shards int
	// Heavy marks scenarios too large for unit-test and -short runs
	// (see Options.SkipHeavy).
	Heavy bool
}

// size picks a scenario scale.
func size(quick bool, full int) int {
	if quick {
		return full / 8
	}
	return full
}

// Scenarios returns the harness's micro-benchmarks at the given scale.
// bench_test.go runs them through `go test -bench`; Run measures them
// with testing.Benchmark.
func Scenarios(quick bool, seed uint64) []Scenario {
	return []Scenario{
		{
			// One op = driving a full SFS engine run over a fixed
			// Azure-sampled workload; this is the simulator's innermost
			// loop and the number the CI regression gate tracks.
			Name: EngineStepBenchmark,
			Bench: func(b *testing.B) {
				n := size(quick, 4000)
				w := workload.AzureSampled(workload.AzureSampledSpec{
					N: n, Cores: 16, Load: 1.0, Seed: seed,
				})
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng := cpusim.NewEngine(cpusim.Config{Cores: 16, Deadline: 1000 * time.Hour},
						core.New(core.DefaultConfig()))
					eng.Submit(w.Clone()...)
					eng.Run()
				}
				b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "tasks/s")
			},
		},
		{
			// One op = a 4-host cluster run under JSQ dispatch,
			// exercising the host next-event heap and per-host engines.
			Name: "cluster-dispatch",
			Bench: func(b *testing.B) {
				n := size(quick, 4000)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					d, err := cluster.NewDispatcher("JSQ", cluster.FactoryConfig{Hosts: 4, Seed: seed})
					if err != nil {
						b.Fatal(err)
					}
					cl, err := cluster.New(cluster.Config{
						Hosts: 4, CoresPerHost: 4,
						NewScheduler: func() cpusim.Scheduler { return core.New(core.DefaultConfig()) },
						Dispatcher:   d,
					})
					if err != nil {
						b.Fatal(err)
					}
					src := workload.AzureSampledStream(workload.AzureSampledSpec{
						N: n, Cores: 16, Load: 1.0, Seed: seed,
					})
					if _, err := cl.Run(src); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			// One op = driving the workflow layer over the synthetic
			// multi-stage family: request expansion, per-completion
			// downstream release, and the end-to-end bookkeeping.
			Name: "chain-run",
			Bench: func(b *testing.B) {
				n := size(quick, 2000)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					src, ccfg, err := workload.ChainStream(workload.ChainSpec{
						N: n, Cores: 16, Load: 0.9, Family: "LINEAR", Depth: 4, Seed: seed,
					})
					if err != nil {
						b.Fatal(err)
					}
					inj, err := chain.NewInjector(ccfg)
					if err != nil {
						b.Fatal(err)
					}
					eng := cpusim.NewEngine(cpusim.Config{Cores: 16, Deadline: 1000 * time.Hour},
						core.New(core.DefaultConfig()))
					if _, err := chain.Run(src, inj, nil, eng); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			// One op = a 64-host fleet run through the sharded
			// epoch-barrier engine (8 shards): the parallel simulation
			// hot path — per-shard heaps, window advance, barrier-time
			// dispatch — at a fleet size the serial loop was never
			// meant for.
			Name:   "sharded-cluster",
			Shards: 8,
			Bench: func(b *testing.B) {
				const hosts, cores = 64, 2
				n := size(quick, 16000)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					d, err := cluster.NewDispatcher("JSQ", cluster.FactoryConfig{Hosts: hosts, Seed: seed})
					if err != nil {
						b.Fatal(err)
					}
					cl, err := cluster.New(cluster.Config{
						Hosts: hosts, CoresPerHost: cores,
						NewScheduler: func() cpusim.Scheduler { return core.New(core.DefaultConfig()) },
						Dispatcher:   d,
						Shards:       8,
					})
					if err != nil {
						b.Fatal(err)
					}
					src := workload.AzureSampledStream(workload.AzureSampledSpec{
						N: n, Cores: hosts * cores, Load: 1.0, Seed: seed,
					})
					if _, err := cl.Run(src); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "tasks/s")
			},
		},
		{
			// One op = a serial 1024-host × 2-core fleet run under JSQ:
			// the dispatch-bound regime, where every pick reads the
			// fleet load index and every host event re-keys it. Per-pick
			// cost must stay sub-linear in the fleet size; a policy or
			// view read that falls back to scanning the fleet shows up
			// here first.
			Name: "dispatch-1k",
			Bench: func(b *testing.B) {
				const hosts, cores = 1024, 2
				n := size(quick, 64000)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					d, err := cluster.NewDispatcher("JSQ", cluster.FactoryConfig{Hosts: hosts, Seed: seed})
					if err != nil {
						b.Fatal(err)
					}
					cl, err := cluster.New(cluster.Config{
						Hosts: hosts, CoresPerHost: cores,
						NewScheduler: func() cpusim.Scheduler { return core.New(core.DefaultConfig()) },
						Dispatcher:   d,
					})
					if err != nil {
						b.Fatal(err)
					}
					src := workload.AzureSampledStream(workload.AzureSampledSpec{
						N: n, Cores: hosts * cores, Load: 1.0, Seed: seed,
					})
					if _, err := cl.Run(src); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "tasks/s")
			},
		},
		{
			// One op = a heterogeneous 16-host fleet run under the
			// PREDICTED dispatcher with PSRTF hosts, per-host speed
			// factors, and a stochastic dispatch network delay — the
			// estimate-driven path: per-dispatch prediction + backlog
			// accounting, completion observation at the barrier merge,
			// and speed-scaled engine stints.
			Name:   "predicted-dispatch",
			Shards: 4,
			Bench: func(b *testing.B) {
				const hosts, cores = 16, 2
				n := size(quick, 8000)
				speeds := make([]float64, hosts)
				for i := range speeds {
					speeds[i] = 1.5
					if i%2 == 1 {
						speeds[i] = 0.5
					}
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					d, err := cluster.NewDispatcher("PREDICTED", cluster.FactoryConfig{Hosts: hosts, Seed: seed})
					if err != nil {
						b.Fatal(err)
					}
					cl, err := cluster.New(cluster.Config{
						Hosts: hosts, CoresPerHost: cores,
						NewScheduler: func() cpusim.Scheduler { return sched.NewPSRTF(nil) },
						Dispatcher:   d,
						Shards:       4,
						Speeds:       speeds,
						NetDelay:     dist.Uniform{Lo: 200 * time.Microsecond, Hi: 2 * time.Millisecond},
						NetDelaySeed: seed,
					})
					if err != nil {
						b.Fatal(err)
					}
					src := workload.AzureSampledStream(workload.AzureSampledSpec{
						N: n, Cores: hosts * cores, Load: 1.0, Seed: seed,
					})
					if _, err := cl.Run(src); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "tasks/s")
			},
		},
		{
			// One op = a standalone run through the unified host-runtime
			// core (internal/host) with a lifecycle stage attached: a
			// warm-pool acquire hook before every submit, a release hook
			// on every finish, and the runtime's single (time, seq) hook
			// queue ordering the loop. This is the stage-pipeline
			// overhead the event-loop unification must keep flat — the
			// gate catches a pipeline that starts allocating or
			// dispatching per event.
			Name: "host-pipeline",
			Bench: func(b *testing.B) {
				n := size(quick, 4000)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p, err := lifecycle.NewPolicy("TTL", lifecycle.PolicyConfig{TTL: time.Minute})
					if err != nil {
						b.Fatal(err)
					}
					mgr, err := lifecycle.New(lifecycle.Config{Policy: p, Seed: seed})
					if err != nil {
						b.Fatal(err)
					}
					eng := cpusim.NewEngine(cpusim.Config{Cores: 16, Deadline: 1000 * time.Hour},
						core.New(core.DefaultConfig()))
					src := workload.AzureSampledStream(workload.AzureSampledSpec{
						N: n, Cores: 16, Load: 1.0, Seed: seed,
					})
					if _, err := lifecycle.Run(src, mgr, eng); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "tasks/s")
			},
		},
		{
			// One op = loading a pre-rendered CSV trace into a
			// replay-ready struct-of-arrays tape — the same artifact the
			// binary scenario below produces, so the two ns/op divide
			// into the codec speedup directly.
			Name: "trace-decode",
			Bench: func(b *testing.B) {
				n := size(quick, 8000)
				var buf bytes.Buffer
				if _, err := trace.WriteCSV(&buf, workload.Stream(workload.Spec{
					N: n, Cores: 16, Load: 0.9, Seed: seed,
				})); err != nil {
					b.Fatal(err)
				}
				raw := buf.Bytes()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					src, err := trace.NewCSVSource(bytes.NewReader(raw))
					if err != nil {
						b.Fatal(err)
					}
					tp, err := trace.TapeFrom(src)
					if err != nil {
						b.Fatal(err)
					}
					if tp.Len() != n {
						b.Fatalf("decoded %d tasks, want %d", tp.Len(), n)
					}
				}
			},
		},
		{
			// One op = streaming a materialized workload out as CSV.
			Name: "trace-encode",
			Bench: func(b *testing.B) {
				n := size(quick, 8000)
				w := workload.Generate(workload.Spec{N: n, Cores: 16, Load: 0.9, Seed: seed})
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := trace.WriteCSV(io.Discard, w.Source()); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			// One op = loading a pre-rendered binary (SFTB) trace into a
			// replay-ready struct-of-arrays tape via the columnar decoder
			// (no per-record task materialization — task structs come out
			// of the arena during replay, measured by cluster-1m). Same
			// workload, same scale, same output artifact as trace-decode,
			// so the two ns/op divide into the codec speedup directly.
			Name: "trace-binary-decode",
			Bench: func(b *testing.B) {
				n := size(quick, 8000)
				var buf bytes.Buffer
				if _, err := trace.WriteBinary(&buf, workload.Stream(workload.Spec{
					N: n, Cores: 16, Load: 0.9, Seed: seed,
				})); err != nil {
					b.Fatal(err)
				}
				raw := buf.Bytes()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tp, err := trace.ReadBinaryTape(bytes.NewReader(raw))
					if err != nil {
						b.Fatal(err)
					}
					if tp.Len() != n {
						b.Fatalf("decoded %d tasks, want %d", tp.Len(), n)
					}
				}
			},
		},
		{
			// One op = streaming a materialized workload out as binary.
			Name: "trace-binary-encode",
			Bench: func(b *testing.B) {
				n := size(quick, 8000)
				w := workload.Generate(workload.Spec{N: n, Cores: 16, Load: 0.9, Seed: seed})
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := trace.WriteBinary(io.Discard, w.Source()); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			// One op = the headline datacenter-scale run: one million
			// invocations across one thousand hosts through the sharded
			// engine, replayed from a struct-of-arrays tape via a block
			// arena. Heavy: it stays at full scale even in quick mode
			// (the point is proving the scale completes), runs a single
			// iteration, and is excluded from the regression gate.
			Name:   "cluster-1m",
			Shards: 16,
			Heavy:  true,
			Bench: func(b *testing.B) {
				const hosts, cores, n = 1000, 4, 1_000_000
				tape, err := trace.TapeFrom(workload.Stream(workload.Spec{
					N: n, Cores: hosts * cores, Load: 1.0, Seed: seed,
				}))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d, err := cluster.NewDispatcher("RR", cluster.FactoryConfig{Hosts: hosts, Seed: seed})
					if err != nil {
						b.Fatal(err)
					}
					cl, err := cluster.New(cluster.Config{
						Hosts: hosts, CoresPerHost: cores,
						NewScheduler:    func() cpusim.Scheduler { return core.New(core.DefaultConfig()) },
						Dispatcher:      d,
						Shards:          16,
						DispatchLatency: 5 * time.Millisecond,
					})
					if err != nil {
						b.Fatal(err)
					}
					res, err := cl.Run(tape.Source())
					if err != nil {
						b.Fatal(err)
					}
					if res.Aborted {
						b.Fatal("cluster-1m run aborted")
					}
				}
				b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "tasks/s")
			},
		},
		{
			// One op = a one-pass streaming summary (mean + P² p50/p99)
			// over a finished run, the metrics path every table row uses.
			Name: "metrics-summary",
			Bench: func(b *testing.B) {
				n := size(quick, 8000)
				w := workload.Generate(workload.Spec{N: n, Cores: 16, Load: 0.9, Seed: seed})
				tasks := w.Clone()
				for i, t := range tasks {
					t.CPUUsed = t.Service
					t.MarkFinished(t.Arrival + time.Duration(i%997)*time.Millisecond)
				}
				run := metrics.Run{Scheduler: "bench", Tasks: tasks}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sum := run.Summarize(50, 90, 99)
					_ = sum.Percentiles()
					_ = sum.Mean()
				}
			},
		},
	}
}

// Run executes the harness and assembles a Report (not yet written to
// disk; see WriteFile).
func Run(opts Options) (*Report, error) {
	rep := &Report{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Quick:      opts.Quick,
		Seed:       opts.Seed,
	}
	if rep.GoMaxProcs == 1 {
		rep.Notes = append(rep.Notes,
			"GOMAXPROCS=1: sharded scenarios ran their windows serially; ns/op carries no parallel speedup on this box")
	}
	logf := func(format string, args ...any) {
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, format+"\n", args...)
		}
	}

	rep.CalibrationNsPerOp = calibrate()
	logf("%-18s %12.0f ns/op (machine-speed reference for cross-host gating)",
		"calibration", rep.CalibrationNsPerOp)

	for _, s := range Scenarios(opts.Quick, opts.Seed) {
		if s.Heavy && opts.SkipHeavy {
			logf("%-18s skipped (heavy)", s.Name)
			continue
		}
		res := testing.Benchmark(s.Bench)
		if res.N == 0 {
			return nil, fmt.Errorf("perfbench: scenario %s did not run (panic or Fatal inside benchmark)", s.Name)
		}
		b := Benchmark{
			Name:        s.Name,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			Iterations:  res.N,
			Shards:      s.Shards,
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
		logf("%-18s %12.0f ns/op %10d allocs/op %12d B/op (n=%d)",
			b.Name, b.NsPerOp, b.AllocsPerOp, b.BytesPerOp, b.Iterations)
	}

	if !opts.SkipExperiments {
		workers := opts.Workers
		if workers <= 0 {
			workers = runtime.NumCPU()
		}
		cfg := experiments.Config{Quick: opts.Quick, Seed: opts.Seed}

		start := time.Now()
		serial := experiments.RunAll(cfg, 1)
		serialMS := float64(time.Since(start)) / float64(time.Millisecond)
		logf("experiment suite: %d experiments, workers=1: %.0f ms", len(serial), serialMS)

		start = time.Now()
		parallel := experiments.RunAll(cfg, workers)
		parallelMS := float64(time.Since(start)) / float64(time.Millisecond)
		logf("experiment suite: workers=%d: %.0f ms", workers, parallelMS)

		identical := len(serial) == len(parallel)
		for i := 0; identical && i < len(serial); i++ {
			identical = serial[i].Render() == parallel[i].Render() &&
				serial[i].CSV() == parallel[i].CSV()
		}
		speedup := 0.0
		if parallelMS > 0 {
			speedup = serialMS / parallelMS
		}
		rep.Experiments = &ExperimentTiming{
			Workers:            workers,
			WallClockMS:        parallelMS,
			SerialWallClockMS:  serialMS,
			Speedup:            speedup,
			Experiments:        len(serial),
			DeterministicBytes: identical,
		}
		if !identical {
			return rep, fmt.Errorf("perfbench: parallel experiment output diverged from serial output")
		}
	}
	return rep, nil
}

// FileName returns the trajectory file name for the report's date.
func (r *Report) FileName() string { return "BENCH_" + r.Date + ".json" }

// WriteFile serializes the report into dir as BENCH_<date>.json and
// returns the path.
func (r *Report) WriteFile(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, r.FileName())
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a previously written report.
func ReadFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("perfbench: parsing %s: %w", path, err)
	}
	return &r, nil
}

// Find returns the named benchmark from the report.
func (r *Report) Find(name string) (Benchmark, bool) {
	for _, b := range r.Benchmarks {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// Compare enforces the regression gate: current's benchmark `name` may
// be at most maxRegress (e.g. 0.25 for +25%) slower in ns/op than
// baseline's. When both reports carry a calibration measurement, the
// current ns/op is first normalized by the machine-speed ratio
// (currentCalib / baselineCalib), so a baseline recorded on different
// hardware — e.g. the checked-in trajectory point vs a CI runner —
// gates code changes rather than CPU differences. Scale mismatches
// (quick vs full) are an error rather than a silent apples-to-oranges
// pass.
func Compare(current, baseline *Report, name string, maxRegress float64) error {
	if current.Quick != baseline.Quick {
		return fmt.Errorf("perfbench: scale mismatch: current quick=%v, baseline quick=%v",
			current.Quick, baseline.Quick)
	}
	cur, ok := current.Find(name)
	if !ok {
		return fmt.Errorf("perfbench: current report lacks benchmark %q", name)
	}
	base, ok := baseline.Find(name)
	if !ok {
		return fmt.Errorf("perfbench: baseline lacks benchmark %q", name)
	}
	if base.NsPerOp <= 0 {
		return fmt.Errorf("perfbench: baseline %q has invalid ns/op %v", name, base.NsPerOp)
	}
	normalized := cur.NsPerOp
	how := "raw"
	if current.CalibrationNsPerOp > 0 && baseline.CalibrationNsPerOp > 0 {
		normalized = cur.NsPerOp * baseline.CalibrationNsPerOp / current.CalibrationNsPerOp
		how = "calibration-normalized"
	}
	limit := base.NsPerOp * (1 + maxRegress)
	if normalized > limit {
		return fmt.Errorf("perfbench: %s regressed: %.0f ns/op %s (raw %.0f) vs baseline %.0f ns/op (limit %.0f, +%.0f%%)",
			name, normalized, how, cur.NsPerOp, base.NsPerOp, limit, 100*(normalized/base.NsPerOp-1))
	}
	return nil
}

// LatestBaseline returns the lexically-newest BENCH_*.json in dir (the
// date format sorts chronologically), or "" when none exist.
func LatestBaseline(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	latest := ""
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "BENCH_") || !strings.HasSuffix(name, ".json") {
			continue
		}
		if name > latest {
			latest = name
		}
	}
	if latest == "" {
		return "", nil
	}
	return filepath.Join(dir, latest), nil
}
