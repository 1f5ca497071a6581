package cluster

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"github.com/serverless-sched/sfs/internal/host"
	"github.com/serverless-sched/sfs/internal/lifecycle"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
	"github.com/serverless-sched/sfs/internal/trace"
)

// Sharded conservative parallel discrete-event simulation.
//
// Hosts are partitioned into contiguous shards, each a host.Group over
// its runtimes with a private next-event heap. Virtual time is cut
// into fixed windows [k·L, (k+1)·L) where L is the modeled
// dispatcher→host latency (Config.DispatchLatency): because every
// cluster-level interaction — placement of an arrival, a central-queue
// claim, a chain-stage handoff — takes at least L to reach a host, no
// event inside a window can influence another shard within the same
// window. That is the conservative lookahead: shards advance through a
// window in parallel with no locks and no cross-shard reads.
//
// The coordinator runs single-threaded at each barrier. It advances
// lifecycle clocks to the barrier, collects the window's completions
// (merged across shards in (time, host, seq) order — seq being each
// shard's append order, preserved by a stable sort), lets the chain
// injector release downstream stages, re-offers centrally-held work,
// admits every source arrival inside the next window, and hands each
// assignment to the owning shard's group as a timestamped submission.
// Group.Advance interleaves submissions with host events in exact time
// order (host events first on ties, as on the serial path), so a
// host's event sequence depends only on the submissions it receives —
// never on how hosts are partitioned or which worker goroutine runs
// the shard. Everything the coordinator computes (dispatch decisions,
// window bounds, admission order) is a function of barrier-time state
// that is itself shard-count-independent, so the same seed yields
// byte-identical results at any -shards / -workers setting.
//
// Dispatch decisions observe host state as of the window boundary
// (plus assignments already made this window, via the runtime's Queued
// count); the serial path instead observes the exact decision instant.
// The sharded engine therefore models a cluster whose dispatcher works
// from slightly stale state — the price of the latency it models, not
// a bug; determinism is defined within sharded mode, with -shards 1 as
// the reference.

// DefaultDispatchLatency is the sharded engine's lookahead when
// Config.DispatchLatency is zero: the modeled minimum latency between
// the cluster dispatcher and any host.
const DefaultDispatchLatency = time.Millisecond

// finishRec is one completion observed inside a window, reported to
// the coordinator at the barrier for chain-stage release.
type finishRec struct {
	t    *task.Task
	at   simtime.Time
	host int // global host index
}

// shard owns a contiguous run of hosts — a host.Group plus its barrier
// report. Between barriers a shard is touched only by its worker; at
// barriers only by the coordinator.
type shard struct {
	grp  *host.Group
	base int // global index of the group's runtime 0
	// finished and completions are the shard's barrier report: chain
	// completions in observation order, and the count of tasks that
	// left the engines this window (feeds central-queue re-offers).
	finished    []finishRec
	completions int
}

// advance runs the shard's hosts up to (but excluding) bound,
// interleaving pending submissions with host events in time order.
func (sh *shard) advance(bound simtime.Time) {
	sh.completions += sh.grp.Advance(bound)
}

// runSharded is Run's sharded-mode twin: same contract, parallel
// engine.
func (c *Cluster) runSharded(src trace.Source) (*Result, error) {
	deadline := c.cfg.Deadline
	if deadline == 0 {
		deadline = simtime.Infinity
	}
	lookahead := c.cfg.DispatchLatency
	if lookahead == 0 {
		lookahead = DefaultDispatchLatency
	}
	nShards := c.cfg.Shards
	if nShards > len(c.nodes) {
		nShards = len(c.nodes)
	}

	// Contiguous partition, sizes differing by at most one. Each node's
	// stage pipeline reports into its owning shard: the lifecycle stage
	// releases containers inside the window, while completions queue in
	// the shard's barrier report (the coordinator notifies a
	// completion-observing dispatcher only at barriers, in merged
	// deterministic order — unlike the serial path's synchronous
	// notify).
	shards := make([]*shard, nShards)
	shardOf := make([]int, len(c.nodes))
	per, rem := len(c.nodes)/nShards, len(c.nodes)%nShards
	base := 0
	for s := range shards {
		n := per
		if s < rem {
			n++
		}
		sh := &shard{base: base}
		for i := base; i < base+n; i++ {
			shardOf[i] = s
		}
		rts := make([]*host.Runtime, 0, n)
		for _, nd := range c.nodes[base : base+n] {
			var stages []host.Stage
			if nd.mgr != nil {
				stages = append(stages, lifecycle.NewHostStage(nd.mgr))
			}
			if c.inj != nil || c.obs != nil {
				gi := nd.idx
				stages = append(stages, host.FinishFunc(func(at simtime.Time, t *task.Task) {
					sh.finished = append(sh.finished, finishRec{t: t, at: at, host: gi})
				}))
			}
			nd.rt = host.New(nd.eng, stages...)
			rts = append(rts, nd.rt)
		}
		sh.grp = host.NewGroup(rts)
		shards[s] = sh
		base += n
	}

	var (
		records []record
		central []int // indices into records of held invocations, FIFO
		maxQ    int
		now     simtime.Time
		aborted bool
	)

	// offer asks the dispatcher to place records[ri] as of the
	// coordinator's current view, routing the assignment to the owning
	// shard's group as a submission at `at`. Unlike the serial path,
	// nothing touches the host engine here — the group performs the
	// stage hooks and submit inside its window.
	offer := func(at simtime.Time, ri int) (bool, error) {
		rec := &records[ri]
		idx, err := c.pick(at, rec.t)
		if idx == Hold {
			return false, err
		}
		rec.host = idx
		rec.at = at
		if at > rec.t.Arrival {
			rec.t.Arrival = at
		}
		// Network delay postpones runnability on the host; the submission
		// still travels at the dispatch instant, and the coordinator draws
		// delays in global dispatch order, so the stream is identical at
		// any shard count.
		rec.t.Arrival += c.netDelayOf()
		c.nodes[idx].dispatched++
		sh := shards[shardOf[idx]]
		sh.grp.Enqueue(idx-sh.base, at, rec.t)
		c.load.update(idx)
		return true, nil
	}

	drainCentral := func(at simtime.Time) error {
		for len(central) > 0 {
			if ok, err := offer(at, central[0]); !ok {
				return err
			}
			central = central[1:]
		}
		return nil
	}

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

	// Window execution: one persistent worker per strided shard group,
	// synchronized by channel sends (which carry the happens-before
	// edges that make barrier-time coordinator access race-free). The
	// assignment of shards to workers affects neither results — shards
	// are mutually independent within a window — nor the barrier
	// algorithm, so any -workers value is byte-equivalent.
	nWorkers := c.cfg.Workers
	if nWorkers == 0 {
		nWorkers = runtime.GOMAXPROCS(0)
	}
	if nWorkers > nShards {
		nWorkers = nShards
	}
	runWindow := func(bound simtime.Time) {
		for _, sh := range shards {
			sh.advance(bound)
		}
	}
	if nWorkers > 1 {
		workCh := make([]chan simtime.Time, nWorkers)
		doneCh := make(chan struct{}, nWorkers)
		for w := 0; w < nWorkers; w++ {
			workCh[w] = make(chan simtime.Time)
			go func(w int) {
				for bound := range workCh[w] {
					for s := w; s < nShards; s += nWorkers {
						shards[s].advance(bound)
					}
					doneCh <- struct{}{}
				}
			}(w)
		}
		defer func() {
			for _, ch := range workCh {
				close(ch)
			}
		}()
		runWindow = func(bound simtime.Time) {
			for _, ch := range workCh {
				ch <- bound
			}
			for range workCh {
				<-doneCh
			}
		}
	}

	next, more := src.Next()
	for {
		// ---- barrier: coordinator owns all state ----
		// One monotone lifecycle advance per barrier (of the managers
		// with anything due); shards move each manager forward again
		// during the window via the lifecycle stage's acquire/release
		// hooks.
		c.load.advanceLifecycles(now)

		// Completions from the last window are merged across shards in
		// deterministic (time, host, seq) order — equal (time, host)
		// entries come from one shard, whose append order the stable sort
		// preserves — then handled in the serial loop's order within a
		// completion event: a completion-observing dispatcher learns
		// first, held work gets its claim on the freed capacity (FIFO),
		// and chain stages released by those completions re-enter
		// dispatch last.
		completions := 0
		for _, sh := range shards {
			completions += sh.completions
			sh.completions = 0
		}
		var finished []finishRec
		if c.inj != nil || c.obs != nil {
			for _, sh := range shards {
				finished = append(finished, sh.finished...)
				sh.finished = sh.finished[:0]
			}
			if len(finished) > 0 {
				sort.SliceStable(finished, func(i, j int) bool {
					if finished[i].at != finished[j].at {
						return finished[i].at < finished[j].at
					}
					return finished[i].host < finished[j].host
				})
				if c.obs != nil {
					for _, fr := range finished {
						c.obs.TaskFinished(fr.at, fr.host, fr.t)
					}
				}
			}
		}
		if completions > 0 {
			if err := drainCentral(now); err != nil {
				return nil, err
			}
		}
		if c.inj != nil {
			for _, fr := range finished {
				for _, dt := range c.inj.OnFinish(fr.t) {
					if err := admit(dt, now); err != nil {
						return nil, err
					}
				}
			}
		}

		// Earliest future event anywhere: source arrival, undelivered
		// submission, or host engine event.
		earliest := simtime.Infinity
		if more {
			earliest = next.Arrival
		}
		for _, sh := range shards {
			if st := sh.grp.NextSubmissionTime(); st < earliest {
				earliest = st
			}
			if _, ht := sh.grp.Min(); ht < earliest {
				earliest = ht
			}
		}
		if earliest == simtime.Infinity {
			if len(central) > 0 {
				return nil, fmt.Errorf("cluster: dispatcher %s stalled with %d invocations held and all hosts idle",
					c.cfg.Dispatcher.Name(), len(central))
			}
			break
		}
		if earliest > deadline {
			c.catchUpRenewals(deadline, true, now, deadline, lookahead)
			aborted = true
			break
		}

		// Next window on the fixed L-grid containing the earliest event;
		// the fixed grid (rather than [earliest, earliest+L)) keeps
		// window boundaries independent of per-window content.
		t0 := earliest - earliest%lookahead
		if t0 < now {
			t0 = now
		}
		bound := t0 + lookahead
		if bound < t0 {
			bound = simtime.Infinity // overflow far beyond any trace
		}
		if deadline != simtime.Infinity && bound > deadline+1 {
			// Never simulate past the deadline; the next barrier aborts.
			bound = deadline + 1
		}

		if c.cfg.NewLifecycle != nil {
			// A strict order would have run a window, and advanced
			// the lifecycle clocks at its barrier, for every renewal
			// before t0. Warm pools are the one thing placement reads
			// that this moves, so catch them up before it reads them.
			c.catchUpRenewals(t0, false, now, deadline, lookahead)
		}

		// Admit every arrival inside the window. Placement sees host
		// state as of `now` plus this window's own assignments.
		for more && next.Arrival < bound {
			if c.inj != nil {
				for _, rt := range c.inj.Expand(next) {
					if err := admit(rt, next.Arrival); err != nil {
						return nil, err
					}
				}
			} else if err := admit(next, next.Arrival); err != nil {
				return nil, err
			}
			next, more = src.Next()
		}

		// ---- window: shards advance in parallel ----
		runWindow(bound)
		now = bound
		// Back on the coordinator: only the hosts a window stepped or
		// delivered to changed load or container state, so re-key just
		// those, and drain their warm logs, before the next barrier's
		// picks.
		for _, sh := range shards {
			for _, i := range sh.grp.Touched() {
				c.load.update(sh.base + i)
			}
		}
	}

	if err := trace.Err(src); err != nil {
		return nil, err
	}
	for _, n := range c.nodes {
		if n.eng.Pending() > 0 {
			aborted = true
		}
	}

	res := c.result(records, maxQ, aborted)
	res.Shards = nShards
	res.Lookahead = lookahead
	return res, nil
}

// catchUpRenewals fires every engine's deferred renewals due before
// upTo (or at upTo, when inclusive), leaving the lifecycle clocks where
// a strict event order would. Windows skip instants that hold only
// renewals, but a strict order runs a window for each, and every
// barrier advances the lifecycle clocks to its window's end; so when a
// caught-up renewal lies at or past the last barrier, now, the
// managers advance to the end of the window that would have held the
// latest one, as that window's barrier would have. The coordinator
// calls it before placing a window's arrivals, which only warm pools
// could tell apart from a strict order, and when a run aborts at its
// deadline, so every engine ends where that order leaves it.
func (c *Cluster) catchUpRenewals(upTo simtime.Time, inclusive bool, now, deadline simtime.Time, lookahead time.Duration) {
	last := simtime.Time(-1)
	for _, n := range c.nodes {
		before := n.eng.Now()
		n.eng.CatchUp(upTo, inclusive)
		if at := n.eng.Now(); at > before && at > last {
			last = at
		}
	}
	if last < now || c.cfg.NewLifecycle == nil {
		return
	}
	bound := last - last%lookahead + lookahead
	if deadline != simtime.Infinity {
		bound = min(bound, deadline+1)
	}
	c.load.advanceLifecycles(bound)
}
