// Command e2ebench is the repository's end-to-end benchmark: trace
// bytes in, metrics.Summary out, through the whole simulator.
//
// For the chosen workload it generates a trace from --seed, encodes it
// as SFTB bytes, and runs the program under test in fresh child
// processes (the same binary with -child), feeding each the bytes on
// standard input: decode → cluster.New → Cluster.Run →
// Merged.Summarize, then output checks. It repeats runs for --seconds
// and reports medians. With --trace 1 it alternates untraced runs with
// traced ones, in which every layer interface is wrapped in a timer,
// and reports the per-layer split instead.
//
// Usage (from the repository root):
//
//	bash e2ebench/run.sh --workload fleet-jsq --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The command exits non-zero
// when any output check fails.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"
)

const (
	// minPairs is the fewest traced/untraced run pairs a traced
	// measurement takes, however short --seconds is.
	minPairs = 3
	// verdictReps is how many runs of each engine the serial-vs-sharded
	// information line takes per GOMAXPROCS setting.
	verdictReps = 3
	// deadline bounds the whole measurement, so a wedged run of the
	// program under test ends the benchmark in time.
	deadline = 170 * time.Second
)

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Uint64("seed", 1, "input seed")
		secs    = flag.Float64("seconds", 25, "measurement time in seconds")
		traceOn = flag.Int("trace", 0, "1 = report the per-layer split from traced runs")
		child   = flag.Bool("child", false, "run the program once on the SFTB bytes on stdin (internal)")
		traced  = flag.Bool("traced", false, "with -child: wrap the layer interfaces in timers")
	)
	flag.Parse()
	w, err := lookup(*name)
	if err != nil {
		fail(err)
	}
	if *child {
		if err := childMain(w, *seed, *traced); err != nil {
			fail(err)
		}
		return
	}
	if *traceOn != 0 && *traceOn != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", *traceOn))
	}
	if *secs <= 0 {
		fail(fmt.Errorf("--seconds must be positive, got %v", *secs))
	}
	ok, err := bench(w, *seed, time.Duration(*secs*float64(time.Second)), *traceOn == 1)
	if err != nil {
		fail(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(2)
}

func childMain(w spec, seed uint64, traced bool) error {
	input, err := io.ReadAll(os.Stdin)
	if err != nil {
		return fmt.Errorf("read input: %w", err)
	}
	cal := calibrate()
	s, err := runOnce(w, seed, input, traced)
	if err != nil {
		return err
	}
	runtime.GC()
	s.CalS = (cal + calibrate()) / 2
	return json.NewEncoder(os.Stdout).Encode(s)
}

// runner launches the program under test.
type runner struct {
	ctx context.Context
	exe string
	w   spec
}

// input is one generated trace and the seed it was made from.
type input struct {
	seed  uint64
	bytes []byte
}

// run executes one child run on in; procs > 0 pins its GOMAXPROCS.
func (r runner) run(in input, traced bool, procs int) (*sample, error) {
	cmd := exec.CommandContext(r.ctx, r.exe, "-child", "-workload", r.w.Name,
		"-seed", strconv.FormatUint(in.seed, 10), "-traced="+strconv.FormatBool(traced))
	cmd.Stdin = bytes.NewReader(in.bytes)
	cmd.Stderr = os.Stderr
	if procs > 0 {
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	}
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s run: %w", r.w.Name, err)
	}
	var s sample
	if err := json.Unmarshal(out, &s); err != nil {
		return nil, fmt.Errorf("%s run output: %w", r.w.Name, err)
	}
	return &s, nil
}

// traceSeed derives the seed of the i-th trace of a run from the run's
// seed (splitmix64).
func traceSeed(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// bench measures one workload and prints its report. It returns false
// when an output check failed.
//
// A run's input is a set of traces rather than one: at load 0.9 how
// much work a trace makes depends on its bursts, and on a few deep
// hosts single traces of the same family differ by 10–20% in
// scheduler work and tail turnaround. Every metric is a median over
// the traces (of each trace's median over its runs), which keeps the
// figures of different seeds comparable.
func bench(w spec, seed uint64, budget time.Duration, withTrace bool) (bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	r := runner{ctx: ctx, exe: exe, w: w}
	inputs := make([]input, w.Traces)
	var rep repairs
	for i := range inputs {
		in := input{seed: traceSeed(seed, i)}
		b, rp, err := w.generate(in.seed)
		if err != nil {
			return false, err
		}
		in.bytes = b
		inputs[i] = in
		rep.RoundedUp += rp.RoundedUp
		rep.OutOfOrder += rp.OutOfOrder
	}
	start := time.Now()

	var info string
	if withTrace && w.Shards > 0 {
		if info, err = parallelVerdict(r, inputs[0]); err != nil {
			return false, err
		}
	}
	// Untraced runs visit every trace at least once; traced runs pair
	// each traced run with an untraced run of the same trace.
	var plain, traced []*sample
	for i := 0; ; i++ {
		if time.Since(start) >= budget && (withTrace && i >= minPairs || !withTrace && i >= len(inputs)) {
			break
		}
		in := inputs[i%len(inputs)]
		s, err := r.run(in, false, 0)
		if err != nil {
			return false, err
		}
		s.trace = i % len(inputs)
		plain = append(plain, s)
		if withTrace {
			if s, err = r.run(in, true, 0); err != nil {
				return false, err
			}
			s.trace = i % len(inputs)
			traced = append(traced, s)
		}
	}

	all := append(append([]*sample(nil), plain...), traced...)
	correct := true
	digests := make([]string, len(inputs))
	attempted, failed := 0, 0
	for _, s := range all {
		attempted += s.Attempted
		failed += s.Failed
		if !s.ok() {
			correct = false
			fmt.Printf("check failed (trace %d, traced=%v): %d of %d invocations failed; %v\n",
				s.trace, s.Traced, s.Failed, s.Attempted, s.Problems)
		}
		if d := digests[s.trace]; d == "" {
			digests[s.trace] = s.Digest
		} else if d != s.Digest {
			correct = false
			fmt.Printf("result digest differs between runs of trace %d (traced=%v): %s vs %s\n", s.trace, s.Traced, s.Digest, d)
		}
	}

	var metrics []metric
	if withTrace {
		metrics = layerMetrics(plain, traced)
	} else {
		metrics = endToEnd(plain)
	}
	printManifest(w, seed, inputs, rep, digests, all[0], len(plain), len(traced))
	fmt.Printf("fail_ratio = %.6g (%d of %d invocations attempted failed)\n",
		float64(failed)/float64(attempted), failed, attempted)
	fmt.Printf("unnormalized: inv_per_s = %.6g 1/s, setup_s = %.6g s (calibration loop %.4g s, reference %.4g s)\n",
		median(plain, invPerS), median(plain, setupS), calibration(plain), calRef)
	for _, m := range metrics {
		fmt.Printf("%s = %.6g %s\n", m.name, m.value, m.unit)
	}
	if info != "" {
		fmt.Println(info)
	}
	return correct, printResult(correct, attempted, failed, metrics)
}

// metric is one named measurement with its unit.
type metric struct {
	name, unit string
	value      float64
}

// median is the median over traces of each trace's median over its
// runs of the value f picks out.
func median(ss []*sample, f func(*sample) float64) float64 {
	byTrace := map[int][]float64{}
	for _, s := range ss {
		byTrace[s.trace] = append(byTrace[s.trace], f(s))
	}
	var v []float64
	for _, vs := range byTrace {
		v = append(v, medianOf(vs))
	}
	return medianOf(v)
}

// medianOf sorts v in place and returns its median.
func medianOf(v []float64) float64 {
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

func invPerS(s *sample) float64 { return float64(s.Finished) / (s.RunS + s.SummarizeS) }

func setupS(s *sample) float64 { return s.SetupS }

// calibration is the median calibrate duration over runs.
func calibration(ss []*sample) float64 {
	v := make([]float64, len(ss))
	for i, s := range ss {
		v[i] = s.CalS
	}
	return medianOf(v)
}

// endToEnd computes the gated metrics from untraced runs. Throughput
// and set-up time are scaled to the reference machine speed (see
// calRef).
func endToEnd(ss []*sample) []metric {
	return []metric{
		{"inv_per_s_norm", "1/s", median(ss, invPerS) * calibration(ss) / calRef},
		{"setup_s", "s", median(ss, setupS) * calRef / calibration(ss)},
		{"peak_rss_mb", "MB", median(ss, func(s *sample) float64 { return float64(s.PeakRSSKB) / 1024 })},
		{"allocs_per_inv", "count", median(ss, func(s *sample) float64 { return float64(s.Allocs) / float64(s.Attempted) })},
		{"sim_p50_turnaround_ms", "ms", median(ss, func(s *sample) float64 { return s.SimP50MS })},
		{"sim_p99_turnaround_ms", "ms", median(ss, func(s *sample) float64 { return s.SimP99MS })},
	}
}

// layerMetrics computes the per-layer split from traced runs (medians),
// plus the tracing overhead against the interleaved untraced runs.
func layerMetrics(plain, traced []*sample) []metric {
	l := func(f func(*layers) float64) float64 {
		return median(traced, func(s *sample) float64 { return f(s.Layers) })
	}
	inv := func(s *sample) float64 { return float64(s.Attempted) }
	perInv := func(f func(*sample) float64) float64 {
		return median(traced, func(s *sample) float64 { return f(s) / inv(s) })
	}
	share := func(f func(*layers) float64) float64 {
		return median(traced, func(s *sample) float64 { return f(s.Layers) / s.RunS })
	}
	// Runs alternate untraced, traced on the same trace.
	overhead := make([]float64, len(traced))
	for i, s := range traced {
		overhead[i] = (s.RunS + s.SummarizeS) / (plain[i].RunS + plain[i].SummarizeS)
	}
	return []metric{
		{"trace.decode_s", "s", median(traced, func(s *sample) float64 { return s.DecodeS })},
		{"trace.bytes_per_inv", "B", median(traced, func(s *sample) float64 { return float64(s.Bytes) / float64(s.Requests) })},
		{"trace.next_s", "s", l(func(l *layers) float64 { return l.NextS })},
		{"trace.next_share", "ratio", share(func(l *layers) float64 { return l.NextS })},
		{"cluster.pick_calls", "count", l(func(l *layers) float64 { return float64(l.Picks) })},
		{"cluster.pick_s", "s", l(func(l *layers) float64 { return l.PickS })},
		{"cluster.pick_ns", "ns", l(func(l *layers) float64 { return l.PickS * 1e9 / float64(max(l.Picks, 1)) })},
		{"cluster.pick_share", "ratio", share(func(l *layers) float64 { return l.PickS })},
		{"cluster.placed_ratio", "ratio", l(func(l *layers) float64 { return float64(l.Placed) / float64(max(l.Picks, 1)) })},
		{"sched.enqueue_calls", "count", l(func(l *layers) float64 { return float64(l.Enqueue) })},
		{"sched.picknext_calls", "count", l(func(l *layers) float64 { return float64(l.PickNext) })},
		{"sched.descheduled_calls", "count", l(func(l *layers) float64 { return float64(l.Descheduled) })},
		{"sched.wantspreempt_calls", "count", l(func(l *layers) float64 { return float64(l.WantsPreempt) })},
		{"sched.timer_calls", "count", l(func(l *layers) float64 { return float64(l.Timers) })},
		{"sched.calls_per_inv", "count", perInv(func(s *sample) float64 { return float64(s.Layers.SchedCalls) })},
		{"sched.s", "s", l(func(l *layers) float64 { return l.SchedS })},
		{"sched.ns_per_call", "ns", l(func(l *layers) float64 { return l.SchedS * 1e9 / float64(max(l.SchedCalls, 1)) })},
		{"sched.share", "ratio", share(func(l *layers) float64 { return l.SchedS })},
		{"sched.preempted", "count", l(func(l *layers) float64 { return float64(l.Preempted) })},
		{"sched.blocked", "count", l(func(l *layers) float64 { return float64(l.Blocked) })},
		{"host.self_s", "s", l(func(l *layers) float64 { return l.HostSelfS })},
		{"host.self_share", "ratio", share(func(l *layers) float64 { return l.HostSelfS })},
		{"host.ctx_switches", "count", median(traced, func(s *sample) float64 { return float64(s.CtxSwitches) })},
		{"lifecycle.cold_starts", "count", median(traced, func(s *sample) float64 { return float64(s.ColdStarts) })},
		{"lifecycle.warm_hit_ratio", "ratio", median(traced, func(s *sample) float64 { return s.WarmHitRatio })},
		{"lifecycle.evictions", "count", median(traced, func(s *sample) float64 { return float64(s.Evictions) })},
		{"chain.workflows_done", "count", median(traced, func(s *sample) float64 { return float64(s.WorkflowsOK) })},
		{"metrics.summarize_s", "s", median(traced, func(s *sample) float64 { return s.SummarizeS })},
		{"go.gc_cycles", "count", median(traced, func(s *sample) float64 { return float64(s.GCCycles) })},
		{"go.gc_pause_s", "s", median(traced, func(s *sample) float64 { return s.GCPauseS })},
		{"go.alloc_bytes_per_inv", "B", perInv(func(s *sample) float64 { return float64(s.AllocBytes) })},
		{"trace_overhead_ratio", "ratio", medianOf(overhead)},
	}
}

// parallelVerdict times the serial and sharded engines on the same
// trace and fleet, alternating, verdictReps times each at GOMAXPROCS=1
// and at the machine's CPU count. It is information for the
// serial-vs-sharded decision, not a gated metric.
func parallelVerdict(r runner, in input) (string, error) {
	serial := r
	serial.w.Shards = 0
	line := fmt.Sprintf("info: inv_per_s sharded/serial (median of %d)", verdictReps)
	for _, procs := range []int{1, runtime.NumCPU()} {
		var sh, se []float64
		for range verdictReps {
			a, err := r.run(in, false, procs)
			if err != nil {
				return "", err
			}
			b, err := serial.run(in, false, procs)
			if err != nil {
				return "", err
			}
			sh, se = append(sh, invPerS(a)), append(se, invPerS(b))
		}
		a, b := medianOf(sh), medianOf(se)
		line += fmt.Sprintf("  GOMAXPROCS=%d: %.0f/%.0f = %.2fx", procs, a, b, a/b)
	}
	return line, nil
}

// printManifest records what a result was measured on, so two
// commits' outputs can be compared byte-for-byte.
func printManifest(w spec, seed uint64, inputs []input, rep repairs, digests []string, s *sample, plain, traced int) {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				rev = kv.Value
			}
		}
	}
	seeds := make([]uint64, len(inputs))
	inputBytes := 0
	for i, in := range inputs {
		seeds[i] = in.seed
		inputBytes += len(in.bytes)
	}
	h := sha256.New()
	for _, d := range digests {
		h.Write([]byte(d))
	}
	m := map[string]any{
		"workload":    w,
		"seed":        seed,
		"trace_seeds": seeds,
		"input_bytes": inputBytes,
		"repairs":     rep,
		"invocations": s.Attempted, // of one trace
		"requests":    s.Requests,
		"digest":      hex.EncodeToString(h.Sum(nil)[:16]),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"go":          runtime.Version(),
		"revision":    rev,
		"runs":        plain,
		"traced_runs": traced,
	}
	b, _ := json.Marshal(m) // plain values only
	fmt.Printf("manifest: %s\n", b)
}

// printResult writes the machine-readable last line.
func printResult(correct bool, attempted, failed int, ms []metric) error {
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{correct, attempted, failed, map[string]map[string]any{}}
	for _, m := range ms {
		out.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(b))
	return nil
}
