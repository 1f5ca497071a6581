// Package cluster is the multi-host simulation layer: it fans one
// trace.Source out across N simulated hosts, each a host.Runtime
// running its own cpusim engine under its own scheduler instance (SFS,
// CFS, EEVDF, …), and merges per-host results into cluster-level
// summaries.
//
// The paper evaluates SFS on a single host; this layer grows the
// reproduction into a scheduling-evaluation system for the cluster
// questions raised by follow-on work — Kaffes et al.'s core-granular
// cluster scheduling and Hiku's pull-based dispatch — where cluster
// placement interacts with each host's OS-level scheduler. A pluggable
// Dispatcher decides which host sees each invocation; a central FIFO
// queue holds work that pull-based policies decline to place.
//
// Per-host behavior is composed from host-runtime stages
// (internal/host): with Config.NewLifecycle set every host carries a
// container lifecycle stage (internal/lifecycle) — an invocation
// acquires a warm or cold container on its dispatched host, cold-start
// latency delays the instant it becomes runnable there, and dispatch
// policies can route on warm state (WARMFIRST prefers hosts already
// holding an idle sandbox for the app) — and completion-observing
// dispatchers and the chain coordinator tap completions through
// further stages on the same pipeline.
//
// The simulation is deterministic: every engine is driven from one
// global loop that always fires the globally-earliest visible event
// (host ties break by index, host events before same-instant arrivals;
// slice renewals, which no other host can see, fire lazily on their
// own engine — see host.Group),
// dispatchers are deterministic functions of seed and observed state,
// container expiry and pre-warm events are processed in the same global
// time order, and sources are deterministic in their spec — so the same
// spec/seed/host-count/policy yields identical metrics on every run.
//
// With Config.Shards > 0 the run switches to the sharded
// discrete-event engine (sharded.go): hosts are partitioned into
// shards that advance in parallel between epoch barriers spaced by the
// modeled dispatch latency. Sharded output is deterministic in the
// same strong sense — identical at any shard and worker count — but
// models a non-zero dispatcher→host latency, so it is a distinct
// (coarser-grained) simulation from the zero-latency serial path. Both
// paths drive hosts through the same host.Group advance primitives, so
// a stage wired once works at any -shards count.
package cluster

import (
	"fmt"
	"math"
	"strings"
	"time"

	"github.com/serverless-sched/sfs/internal/chain"
	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/dist"
	"github.com/serverless-sched/sfs/internal/host"
	"github.com/serverless-sched/sfs/internal/lifecycle"
	"github.com/serverless-sched/sfs/internal/metrics"
	"github.com/serverless-sched/sfs/internal/rng"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
)

// Config parameterizes a cluster run.
type Config struct {
	// Hosts is the number of simulated hosts.
	Hosts int
	// CoresPerHost is each host's core count.
	CoresPerHost int
	// CtxSwitchCost is passed through to every host engine.
	CtxSwitchCost time.Duration
	// Speeds gives each host a relative CPU speed factor (1.0 =
	// baseline): host i retires Speeds[i] seconds of CPU demand per
	// second of wall time, modeling a heterogeneous fleet of machine
	// generations. Empty means a uniform fleet at 1.0; otherwise the
	// length must equal Hosts and every factor must be positive and
	// finite. Task demand accounting stays in unit-speed terms, so the
	// same trace is comparable across fleets.
	Speeds []float64
	// NetDelay, when non-nil, samples a dispatcher→host network delay
	// for every successful placement, added to the instant the
	// invocation becomes runnable on its host (on top of any cold
	// start). Draws come from one cluster-owned stream seeded by
	// NetDelaySeed, consumed in dispatch order — deterministic at any
	// shard count. Negative samples are clamped to zero; a negative
	// mean is rejected at New.
	NetDelay dist.Distribution
	// NetDelaySeed seeds the NetDelay sample stream.
	NetDelaySeed uint64
	// Deadline aborts the simulation at this virtual time if tasks are
	// still unfinished (0 = no deadline).
	Deadline simtime.Time
	// NewScheduler constructs one OS-level scheduler per host; every
	// host gets its own instance so scheduler state never leaks across
	// machines.
	NewScheduler func() cpusim.Scheduler
	// Dispatcher is the cluster-level placement policy.
	Dispatcher Dispatcher
	// NewLifecycle, when non-nil, constructs one container lifecycle
	// manager per host: invocations acquire a (possibly cold) container
	// on their dispatched host, and affinity-aware dispatchers can read
	// each host's warm pool through Host.Warm. Nil models the paper's
	// pre-warmed setup with no cold starts.
	NewLifecycle func() *lifecycle.Manager
	// Chain, when non-nil, expands requests into function-chain
	// workflows (internal/chain): root stages dispatch at the request's
	// arrival, and each completion releases its downstream stages back
	// through the dispatcher — so successive stages may land on
	// different hosts (and, with NewLifecycle set, hit per-host warm
	// pools). Per-workflow end-to-end results land in Result.Workflows.
	Chain *chain.Config
	// Shards, when > 0, partitions the hosts into that many contiguous
	// shards advanced in parallel between epoch barriers (see
	// sharded.go). Shard counts above Hosts are clamped. 0 selects the
	// legacy zero-latency serial loop.
	Shards int
	// DispatchLatency is the modeled dispatcher→host latency in sharded
	// mode; it is the conservative lookahead between barriers, so every
	// cross-shard interaction (central-queue claims, chain-stage
	// handoffs) costs at least one latency. Zero defaults to
	// DefaultDispatchLatency. Ignored when Shards == 0.
	DispatchLatency time.Duration
	// Workers caps the goroutines advancing shards inside a window in
	// sharded mode; 0 uses GOMAXPROCS. Output is identical at any
	// worker count. Ignored when Shards == 0.
	Workers int
}

// node pairs one host runtime with its dispatch accounting and
// (optionally) its container lifecycle manager. It implements the Host
// view dispatchers decide from; every read is O(1). The runtime (and
// its stage pipeline) is wired at Run start, because the stage set
// depends on the execution mode.
type node struct {
	idx        int
	eng        *cpusim.Engine
	mgr        *lifecycle.Manager // nil when lifecycle modeling is off
	rt         *host.Runtime      // set at Run start
	load       *fleetLoad         // the owning cluster's load index
	speed      float64
	dispatched int
}

func (n *node) Index() int      { return n.idx }
func (n *node) Speed() float64  { return n.speed }
func (n *node) Cores() int      { return n.eng.NumCores() }
func (n *node) InFlight() int   { return n.eng.Pending() + n.assigned() }
func (n *node) BusyCores() int  { return n.eng.BusyCores() }
func (n *node) Dispatched() int { return n.dispatched }

func (n *node) Warm(app string) int {
	if n.mgr == nil {
		return 0
	}
	return n.mgr.WarmIdle(app)
}

func (n *node) Queued() int {
	if q := n.eng.Pending() + n.assigned() - n.eng.BusyCores(); q > 0 {
		return q
	}
	return 0
}

// assigned counts invocations assigned to this host but not yet
// submitted to its engine (sharded mode defers submission into the
// owning shard's window). Folding it into the dispatcher's view keeps
// same-window assignments visible to later placement decisions; it is
// always zero on the serial path and at barriers after a window has
// run.
func (n *node) assigned() int {
	if n.rt == nil {
		return 0
	}
	return n.rt.Queued()
}

// record remembers an invocation's pre-dispatch identity so metrics can
// be computed against original arrival times after the run.
type record struct {
	t    *task.Task
	orig simtime.Time // arrival as emitted by the source
	host int
	at   simtime.Time // dispatch instant (== orig unless held centrally)
}

// HostResult is one host's share of a cluster run.
type HostResult struct {
	Run         metrics.Run
	Dispatches  int
	CtxSwitches int64
	Utilization float64
	// Speed is the host's CPU speed factor (1.0 on uniform fleets).
	Speed float64
	// Lifecycle holds the host's container warm-pool counters (zero
	// when lifecycle modeling was off).
	Lifecycle lifecycle.Stats
}

// Result is the outcome of a cluster run.
type Result struct {
	Scheduler  string // per-host scheduler name
	Dispatcher string
	// Merged views every invocation cluster-wide, in source order, with
	// turnarounds measured from original arrival — central-queue delay
	// under pull-based policies counts against the request.
	Merged  metrics.Run
	PerHost []HostResult
	// Makespan is the latest finish time across all hosts.
	Makespan simtime.Time
	// QueueDelayMax/QueueDelayMean summarize time spent in the central
	// queue before dispatch (zero under pure push policies).
	QueueDelayMax  time.Duration
	QueueDelayMean time.Duration
	// CentralQueueMax is the central queue's high-water mark.
	CentralQueueMax int
	// Lifecycle merges every host's container warm-pool counters (zero
	// when Config.NewLifecycle was nil).
	Lifecycle lifecycle.Stats
	// Workflows holds per-workflow end-to-end results when Config.Chain
	// was set (empty otherwise).
	Workflows metrics.WorkflowRun
	// Shards records how many shards the run used (0 = serial path);
	// Lookahead is the epoch-barrier lookahead that applied (zero on
	// the serial path).
	Shards    int
	Lookahead time.Duration
	// Aborted reports that the run ended with unfinished work: a
	// deadline abort, or a host left stranded with pending tasks and no
	// future events (a scheduler that parked work without re-arming).
	// A dispatcher stall — work held centrally while every host sat
	// idle — is reported as an error from Run instead.
	Aborted bool
}

// RenderPerHost returns the human-readable per-host breakdown both
// CLIs print: an optional central-queue summary line followed by one
// table row per host.
func (res *Result) RenderPerHost() string {
	var b strings.Builder
	if res.QueueDelayMax > 0 {
		fmt.Fprintf(&b, "central queue: high-water %d held, dispatch delay mean %s max %s\n",
			res.CentralQueueMax, metrics.FormatDuration(res.QueueDelayMean), metrics.FormatDuration(res.QueueDelayMax))
	}
	header := []string{"host", "dispatched", "ctx switches", "util", "p50", "p99", "mean"}
	// The speed column appears only on heterogeneous fleets, so uniform
	// output (and every fixture that predates speeds) is unchanged.
	withSpeed := false
	for _, hr := range res.PerHost {
		if hr.Speed != 0 && hr.Speed != 1 {
			withSpeed = true
		}
	}
	if withSpeed {
		header = append([]string{header[0], "speed"}, header[1:]...)
	}
	withLifecycle := res.Lifecycle.Invocations > 0
	if withLifecycle {
		header = append(header, metrics.ColdStartHeader()...)
	}
	var rows [][]string
	for i, hr := range res.PerHost {
		sum := hr.Run.Summarize(50, 99)
		ps := sum.Percentiles()
		row := []string{
			fmt.Sprintf("%d", i),
		}
		if withSpeed {
			row = append(row, fmt.Sprintf("%.2gx", hr.Speed))
		}
		row = append(row,
			fmt.Sprintf("%d", hr.Dispatches),
			fmt.Sprintf("%d", hr.CtxSwitches),
			fmt.Sprintf("%.0f%%", hr.Utilization*100),
			metrics.FormatDuration(ps[0]),
			metrics.FormatDuration(ps[1]),
			metrics.FormatDuration(sum.Mean()),
		)
		if withLifecycle {
			row = append(row, hr.Lifecycle.Columns()...)
		}
		rows = append(rows, row)
	}
	b.WriteString(metrics.Table(header, rows))
	return b.String()
}

// Cluster simulates N hosts behind one dispatcher.
type Cluster struct {
	cfg    Config
	nodes  []*node
	views  []Host
	load   *fleetLoad
	inj    *chain.Injector    // nil unless Config.Chain was set
	obs    CompletionObserver // the dispatcher, when it wants completions
	netRNG *rng.RNG           // nil unless Config.NetDelay was set
}

// netDelayOf draws the next dispatch's network delay (zero when the
// model is off), clamping negative samples.
func (c *Cluster) netDelayOf() time.Duration {
	if c.netRNG == nil {
		return 0
	}
	if d := c.cfg.NetDelay.Sample(c.netRNG); d > 0 {
		return d
	}
	return 0
}

// New validates the config and builds the cluster's hosts.
func New(cfg Config) (*Cluster, error) {
	if cfg.Hosts <= 0 {
		return nil, fmt.Errorf("cluster: need at least one host, got %d", cfg.Hosts)
	}
	if cfg.CoresPerHost <= 0 {
		return nil, fmt.Errorf("cluster: need at least one core per host, got %d", cfg.CoresPerHost)
	}
	if cfg.NewScheduler == nil {
		return nil, fmt.Errorf("cluster: NewScheduler is required")
	}
	if cfg.Dispatcher == nil {
		return nil, fmt.Errorf("cluster: Dispatcher is required")
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("cluster: negative shard count %d", cfg.Shards)
	}
	if cfg.DispatchLatency < 0 {
		return nil, fmt.Errorf("cluster: negative dispatch latency %v", cfg.DispatchLatency)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("cluster: negative worker count %d", cfg.Workers)
	}
	if len(cfg.Speeds) > 0 && len(cfg.Speeds) != cfg.Hosts {
		return nil, fmt.Errorf("cluster: %d speed factors for %d hosts", len(cfg.Speeds), cfg.Hosts)
	}
	for i, sp := range cfg.Speeds {
		if sp <= 0 || math.IsNaN(sp) || math.IsInf(sp, 0) {
			return nil, fmt.Errorf("cluster: host %d has invalid speed factor %v (must be positive and finite)", i, sp)
		}
	}
	if cfg.NetDelay != nil && cfg.NetDelay.Mean() < 0 {
		return nil, fmt.Errorf("cluster: network delay %s has negative mean %v", cfg.NetDelay, cfg.NetDelay.Mean())
	}
	c := &Cluster{cfg: cfg, load: &fleetLoad{}}
	c.obs, _ = cfg.Dispatcher.(CompletionObserver)
	if cfg.NetDelay != nil {
		c.netRNG = rng.New(cfg.NetDelaySeed)
	}
	if cfg.Chain != nil {
		inj, err := chain.NewInjector(*cfg.Chain)
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		c.inj = inj
	}
	for i := 0; i < cfg.Hosts; i++ {
		sp := 1.0
		if len(cfg.Speeds) > 0 {
			sp = cfg.Speeds[i]
		}
		n := &node{idx: i, speed: sp, load: c.load, eng: cpusim.NewEngine(cpusim.Config{
			Cores:         cfg.CoresPerHost,
			CtxSwitchCost: cfg.CtxSwitchCost,
			Speed:         sp,
		}, cfg.NewScheduler())}
		if cfg.NewLifecycle != nil {
			if n.mgr = cfg.NewLifecycle(); n.mgr == nil {
				return nil, fmt.Errorf("cluster: NewLifecycle returned nil for host %d", i)
			}
		}
		c.nodes = append(c.nodes, n)
		c.views = append(c.views, n)
	}
	c.load.nodes, c.load.views = c.nodes, c.views
	return c, nil
}

// pick asks the dispatcher where t goes as of instant at, turning a
// host index outside the fleet into an error that names the dispatcher.
func (c *Cluster) pick(at simtime.Time, t *task.Task) (int, error) {
	idx := c.cfg.Dispatcher.Pick(at, t, c.views)
	if idx != Hold && (idx < 0 || idx >= len(c.nodes)) {
		return Hold, fmt.Errorf("cluster: dispatcher %s picked host %d, outside [0, %d)",
			c.cfg.Dispatcher.Name(), idx, len(c.nodes))
	}
	return idx, nil
}

// wireRuntimes wraps every node's engine in a host.Runtime running the
// given per-node stage pipeline (nil entries are dropped) and returns
// the fleet as a slice for host.Group. stagesFor is consulted once per
// node, in index order.
func (c *Cluster) wireRuntimes(stagesFor func(n *node) []host.Stage) []*host.Runtime {
	rts := make([]*host.Runtime, len(c.nodes))
	for i, n := range c.nodes {
		n.rt = host.New(n.eng, stagesFor(n)...)
		rts[i] = n.rt
	}
	return rts
}

// Run pulls the source to exhaustion through the dispatcher and drives
// every host engine to completion in global virtual-time order. A
// Cluster is single-use: build a fresh one per run.
func (c *Cluster) Run(src trace.Source) (*Result, error) {
	if c.cfg.NewLifecycle != nil {
		c.load.trackLifecycles()
	}
	if c.cfg.Shards > 0 {
		return c.runSharded(src)
	}
	deadline := c.cfg.Deadline
	if deadline == 0 {
		deadline = simtime.Infinity
	}

	var (
		records []record
		central []int // indices into records of held invocations, FIFO
		maxQ    int
		now     simtime.Time
		aborted bool
	)

	// Per-host stage pipelines, hooked in the serial loop's completion
	// order: the lifecycle stage releases the finished invocation's
	// container back to the warm pool, a completion-observing
	// dispatcher (PREDICTED) is notified synchronously at the finish
	// event — before the freed capacity is re-offered below — and
	// completions are collected for the chain injector, which may
	// release downstream stages back through the dispatcher.
	var finished []*task.Task
	g := host.NewGroup(c.wireRuntimes(func(n *node) []host.Stage {
		var stages []host.Stage
		if n.mgr != nil {
			stages = append(stages, lifecycle.NewHostStage(n.mgr))
		}
		if c.obs != nil {
			hi := n.idx
			stages = append(stages, host.FinishFunc(func(at simtime.Time, t *task.Task) {
				c.obs.TaskFinished(at, hi, t)
			}))
		}
		if c.inj != nil {
			stages = append(stages, host.FinishFunc(func(at simtime.Time, t *task.Task) {
				finished = append(finished, t)
			}))
		}
		return stages
	}))

	// pos is where the last step or arrival stood among the host
	// events at instant now: the stepped host's index, or len(c.nodes)
	// once every host event at now has fired. Work it releases is
	// delivered there (see host.Group.Deliver).
	pos := len(c.nodes)

	// offer asks the dispatcher to place records[ri]. It reports false
	// when the dispatcher holds the invocation (the caller parks it in
	// the central queue) or picks an invalid host (with the error).
	offer := func(at simtime.Time, ri int) (bool, error) {
		rec := &records[ri]
		// Age out expired containers, and materialize due pre-warms,
		// first so affinity-aware policies (and the lifecycle stage's
		// acquire inside Deliver) see the warm pools as of the decision
		// instant.
		c.load.advanceLifecycles(at)
		idx, err := c.pick(at, rec.t)
		if idx == Hold {
			return false, err
		}
		rec.host = idx
		rec.at = at
		// A held invocation is claimed after its arrival; move its
		// engine-visible arrival to the claim instant so the host's
		// event order stays causal. The original arrival is restored
		// before metrics are computed.
		if at > rec.t.Arrival {
			rec.t.Arrival = at
		}
		// Network delay between dispatcher and host postpones the
		// instant the invocation is runnable; the dispatch instant itself
		// (rec.at, queue-delay accounting) is unaffected. The chosen
		// host's lifecycle stage then acquires a container inside
		// Deliver; a cold start further delays runnability there.
		rec.t.Arrival += c.netDelayOf()
		g.Deliver(idx, at, rec.t, pos)
		c.load.update(idx)
		c.nodes[idx].dispatched++
		return true, nil
	}

	// drainCentral re-offers held work oldest-first, stopping at the
	// first invocation the dispatcher still declines (FIFO order is part
	// of the pull-based contract).
	drainCentral := func(at simtime.Time) error {
		for len(central) > 0 {
			if ok, err := offer(at, central[0]); !ok {
				return err
			}
			central = central[1:]
		}
		return nil
	}

	// admit registers an invocation arriving at `at` and offers it to
	// the dispatcher, parking it behind any already-held work so nothing
	// overtakes the central queue's FIFO order.
	admit := func(t *task.Task, at simtime.Time) error {
		records = append(records, record{t: t, orig: t.Arrival, host: Hold, at: -1})
		ri := len(records) - 1
		if len(central) == 0 {
			if ok, err := offer(at, ri); ok || err != nil {
				return err
			}
		}
		central = append(central, ri)
		if len(central) > maxQ {
			maxQ = len(central)
		}
		return nil
	}

	next, more := src.Next()
	for {
		// The globally-earliest visible host event, among hosts that
		// still have unfinished work (ties break by lowest host index,
		// mirroring the heap's comparator).
		heHost, heTime := g.Min()
		arrTime := simtime.Infinity
		if more {
			arrTime = next.Arrival
		}

		if heTime < simtime.Infinity && heTime <= arrTime {
			// Host events fire before same-instant arrivals so a
			// completion frees capacity the dispatcher can see.
			if heTime > deadline {
				g.CatchUp(deadline)
				aborted = true
				break
			}
			before := c.nodes[heHost].eng.Pending()
			g.Step(heHost)
			c.load.update(heHost)
			if heTime > now {
				now = heTime
			}
			pos = heHost
			if c.nodes[heHost].eng.Pending() < before {
				if err := drainCentral(now); err != nil {
					return nil, err
				}
			}
			// A completion may release downstream chain stages: they
			// re-enter dispatch as arrivals at the completion instant,
			// after held work has had its chance at the freed capacity.
			if c.inj != nil && len(finished) > 0 {
				for _, ft := range finished {
					for _, dt := range c.inj.OnFinish(ft) {
						if err := admit(dt, now); err != nil {
							return nil, err
						}
					}
				}
				finished = finished[:0]
			}
			continue
		}

		if more {
			if arrTime > deadline {
				g.CatchUp(deadline)
				aborted = true
				break
			}
			// An arrival follows every host event at its instant; one
			// behind the clock (an out-of-order source) is admitted at
			// now, where the last step left the hosts.
			if arrTime >= now {
				now, pos = arrTime, len(c.nodes)
			}
			if c.inj != nil {
				// A chained request expands into its root stages, all
				// arriving at the request instant; the request task
				// itself is stage 0.
				for _, rt := range c.inj.Expand(next) {
					if err := admit(rt, now); err != nil {
						return nil, err
					}
				}
			} else if err := admit(next, now); err != nil {
				return nil, err
			}
			next, more = src.Next()
			continue
		}

		if len(central) > 0 {
			// No host events, no arrivals, work still held: the
			// dispatcher declined placement with the whole cluster
			// idle. That is a policy bug; report rather than spin.
			return nil, fmt.Errorf("cluster: dispatcher %s stalled with %d invocations held and all hosts idle",
				c.cfg.Dispatcher.Name(), len(central))
		}
		break
	}
	if err := trace.Err(src); err != nil {
		return nil, err
	}
	// A host with pending tasks but no future events is wedged (its
	// scheduler parked work without re-arming); surface that as an
	// abort rather than letting the tasks silently vanish from stats.
	for _, n := range c.nodes {
		if n.eng.Pending() > 0 {
			aborted = true
		}
	}

	return c.result(records, maxQ, aborted), nil
}

// result restores original arrivals and assembles per-host and merged
// metrics.
func (c *Cluster) result(records []record, maxQ int, aborted bool) *Result {
	schedName := c.cfg.NewScheduler().Name()
	res := &Result{
		Scheduler:       schedName,
		Dispatcher:      c.cfg.Dispatcher.Name(),
		CentralQueueMax: maxQ,
		Aborted:         aborted,
	}

	perHost := make([][]*task.Task, len(c.nodes))
	all := make([]*task.Task, 0, len(records))
	var delaySum time.Duration
	for i := range records {
		rec := &records[i]
		rec.t.Arrival = rec.orig
		all = append(all, rec.t)
		if rec.host >= 0 {
			perHost[rec.host] = append(perHost[rec.host], rec.t)
			if d := rec.at - rec.orig; d > 0 {
				delaySum += d
				if d > res.QueueDelayMax {
					res.QueueDelayMax = d
				}
			}
		}
		if f := rec.t.Finish; f > res.Makespan {
			res.Makespan = f
		}
	}
	if len(records) > 0 {
		res.QueueDelayMean = delaySum / time.Duration(len(records))
	}

	label := fmt.Sprintf("%s x%d/%s", schedName, len(c.nodes), res.Dispatcher)
	res.Merged = metrics.Run{Scheduler: label, Tasks: all}
	if c.inj != nil {
		res.Workflows = metrics.WorkflowRun{Scheduler: label, Workflows: c.inj.Workflows()}
	}
	for i, n := range c.nodes {
		// Utilization over the shared cluster horizon, not each host's
		// local clock: a host that went idle early was idle for the
		// rest of the run, and per-host columns must be comparable.
		util := 0.0
		if res.Makespan > 0 {
			util = float64(n.eng.BusyTime()) / (float64(res.Makespan) * float64(n.eng.NumCores()))
		}
		hr := HostResult{
			Run:         metrics.Run{Scheduler: fmt.Sprintf("%s host%d", schedName, i), Tasks: perHost[i]},
			Dispatches:  n.dispatched,
			CtxSwitches: n.eng.TotalCtxSwitches,
			Utilization: util,
			Speed:       n.speed,
		}
		if n.mgr != nil {
			hr.Lifecycle = n.mgr.Stats()
			res.Lifecycle.Add(hr.Lifecycle)
		}
		res.PerHost = append(res.PerHost, hr)
	}
	return res
}
