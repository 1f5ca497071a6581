package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"github.com/serverless-sched/sfs/internal/chain"
	"github.com/serverless-sched/sfs/internal/cluster"
	"github.com/serverless-sched/sfs/internal/trace"
)

// expectedInvocations counts the invocations a run attempts: one per
// trace record, or, for a request whose app has a workflow, one per
// stage of that workflow.
func expectedInvocations(tp *trace.Tape, cc *chain.Config) (requests, invocations int) {
	requests = tp.Len()
	if cc == nil {
		return requests, requests
	}
	src := tp.Source()
	for t, ok := src.Next(); ok; t, ok = src.Next() {
		if wf, found := cc.Specs[t.App]; found {
			invocations += len(wf.Stages)
		} else {
			invocations++
		}
	}
	return requests, invocations
}

// verdict is the outcome of checking one run's outputs.
type verdict struct {
	Attempted int      `json:"attempted"`
	Finished  int      `json:"finished"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"` // first few violations
}

func (v *verdict) problem(format string, args ...any) {
	if len(v.Problems) < 8 {
		v.Problems = append(v.Problems, fmt.Sprintf(format, args...))
	}
}

// ok reports whether the run passed every check.
func (v *verdict) ok() bool { return v.Failed == 0 && len(v.Problems) == 0 }

// check verifies a run's public Result: every attempted invocation
// appears exactly once in Merged and finished causally (arrival ≤ start
// ≤ finish) with its whole CPU demand charged (the fleets run at unit
// speed), the per-host dispatch counts sum to the placements, every
// workflow completed, and the run was not aborted. An invocation that
// is missing or fails a check counts as failed.
func check(res *cluster.Result, attempted, requests int, chained bool) verdict {
	v := verdict{Attempted: attempted}
	if res.Aborted {
		v.problem("run aborted")
	}
	seen := make(map[int]struct{}, len(res.Merged.Tasks))
	for _, t := range res.Merged.Tasks {
		if _, dup := seen[t.ID]; dup {
			v.problem("invocation %d appears twice in Merged", t.ID)
			continue
		}
		seen[t.ID] = struct{}{}
		switch {
		case t.Finish < 0:
			v.problem("invocation %d did not finish", t.ID)
		case t.Start < t.Arrival || t.Finish < t.Start:
			v.problem("invocation %d: arrival %v, start %v, finish %v not causal", t.ID, t.Arrival, t.Start, t.Finish)
		case t.CPUUsed != t.Service:
			v.problem("invocation %d: charged %v CPU for %v demand", t.ID, t.CPUUsed, t.Service)
		default:
			v.Finished++
		}
	}
	if len(res.Merged.Tasks) != attempted {
		v.problem("Merged holds %d invocations, %d attempted", len(res.Merged.Tasks), attempted)
	}
	dispatched, perHost := 0, 0
	for _, h := range res.PerHost {
		dispatched += h.Dispatches
		perHost += len(h.Run.Tasks)
	}
	if dispatched != perHost {
		v.problem("per-host dispatches sum to %d, %d invocations placed", dispatched, perHost)
	}
	if chained {
		if n := len(res.Workflows.Workflows); n != requests {
			v.problem("%d workflows for %d requests", n, requests)
		}
		if done := res.Workflows.Completed(); done != len(res.Workflows.Workflows) {
			v.problem("%d of %d workflows completed", done, len(res.Workflows.Workflows))
		}
	}
	v.Failed = attempted - min(v.Finished, attempted)
	return v
}

// digest hashes everything a run computed that a speed-only change
// must leave alone: each invocation's schedule in Merged order, the
// per-host split, the warm-pool counters and the workflow results.
func digest(res *cluster.Result) string {
	h := sha256.New()
	for _, t := range res.Merged.Tasks {
		put(h, int64(t.ID), int64(t.Arrival), int64(t.Start), int64(t.Finish), int64(t.CPUUsed),
			int64(t.WaitTime), int64(t.CtxSwitches), int64(t.Dispatches), int64(t.Migrations))
	}
	for _, hr := range res.PerHost {
		put(h, int64(hr.Dispatches), hr.CtxSwitches, int64(math.Float64bits(hr.Utilization)))
	}
	ls := res.Lifecycle
	put(h, int64(ls.Invocations), int64(ls.ColdStarts), int64(ls.ColdLatency), int64(ls.Evictions),
		int64(ls.Expirations), int64(ls.Prewarms), int64(ls.MemPeakMB))
	for _, w := range res.Workflows.Workflows {
		put(h, int64(w.ID), int64(w.Arrival), int64(w.Finish))
	}
	put(h, int64(res.Makespan), int64(res.QueueDelayMax), int64(res.CentralQueueMax))
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func put(h hash.Hash, vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}
