package cluster

import (
	"fmt"
	"time"

	"repro/internal/taskrt"
	"repro/internal/trace"
)

// Straggler & anomaly detection: every successful model-placed execution is
// compared against the perfmodel estimate its placement actually used. The
// per-task residual (observed / estimated) feeds a histogram and a per-node
// EWMA slowdown score; tasks whose residual exceeds the configured multiple
// are flagged (metric, Straggler trace instant, structured log), and the
// slowdown score back-pressures the EFT placer — a slow node's estimates are
// scaled up, so work drains toward healthy nodes ("Revisiting Matrix Product
// on Master-Worker Platforms": stragglers dominate makespan unless the
// master adapts). An optional score threshold escalates to blacklisting.

// StragglerConfig tunes the master's detector.
type StragglerConfig struct {
	// Multiple flags a task when observed latency exceeds the model
	// estimate its placement used by more than this factor. Default 4;
	// negative disables detection entirely.
	Multiple float64
	// MinSamples is how many model-placed observations a node must have
	// before tasks on it can be flagged — cold models mis-estimate, and a
	// detector that cries wolf during warmup gets ignored. Default 3.
	MinSamples int
	// Alpha is the EWMA weight of the newest residual in the node slowdown
	// score (first observation seeds the score directly). Default 0.25.
	Alpha float64
	// BlacklistScore, when > 0, declares a node down once its slowdown
	// score reaches it — the detector's escalation from deprioritise to
	// evict. The node rejoins through the normal heartbeat path if it
	// recovers. Zero leaves eviction to heartbeats alone.
	BlacklistScore float64
}

// withDefaults fills zero fields.
func (c StragglerConfig) withDefaults() StragglerConfig {
	if c.Multiple == 0 {
		c.Multiple = 4
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 3
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.25
	}
	return c
}

// enabled reports whether detection is active.
func (c StragglerConfig) enabled() bool { return c.Multiple > 0 }

// penalty is the factor a node's execution estimates are scaled by in EFT
// placement: its slowdown score, floored at 1 so healthy or fast nodes are
// never rewarded for beating the model (that is the model's job to learn).
func (n *nodeState) penalty() float64 {
	if n.slowEWMA > 1 {
		return n.slowEWMA
	}
	return 1
}

// observeResidual runs on the loop goroutine for every successful execution
// that was placed on a perfmodel estimate (rec.modelEst > 0).
func (st *runState) observeResidual(n *nodeState, t *taskrt.Task, rec *inflightRec, obsSeconds float64) {
	cfg := st.m.cfg.Straggler
	if !cfg.enabled() || rec.modelEst <= 0 || obsSeconds <= 0 {
		return
	}
	ratio := obsSeconds * 1e9 / rec.modelEst
	cm.residual.With(n.cfg.Name).Observe(ratio)
	if n.slowSamples == 0 {
		n.slowEWMA = ratio
	} else {
		n.slowEWMA = (1-cfg.Alpha)*n.slowEWMA + cfg.Alpha*ratio
	}
	n.slowSamples++
	n.stats.Slowdown = n.slowEWMA
	cm.slowdown.With(n.cfg.Name).Set(n.slowEWMA)

	if n.slowSamples >= cfg.MinSamples && ratio > cfg.Multiple {
		n.stats.Stragglers++
		cm.stragglers.With(n.cfg.Name).Inc()
		reason := fmt.Sprintf("x%.1f vs model (est %.3fms obs %.3fms score x%.1f)",
			ratio, rec.modelEst/1e6, obsSeconds*1e3, n.slowEWMA)
		st.traceStraggler(n, t, reason)
		st.m.logf("cluster: straggler: node=%s task=%d label=%q attempt=%d ratio=%.2f est_ms=%.3f obs_ms=%.3f score=%.2f",
			n.cfg.Name, t.ID(), t.Label, t.Attempt(), ratio, rec.modelEst/1e6, obsSeconds*1e3, n.slowEWMA)
	}
	if cfg.BlacklistScore > 0 && n.slowEWMA >= cfg.BlacklistScore && n.alive {
		st.m.logf("cluster: node %s slowdown score %.2f >= %.2f; blacklisting",
			n.cfg.Name, n.slowEWMA, cfg.BlacklistScore)
		st.nodeDown(n)
	}
}

// traceStraggler records the detection instant against the flagged node.
func (st *runState) traceStraggler(n *nodeState, t *taskrt.Task, reason string) {
	tr := st.m.cfg.Trace
	if tr == nil {
		return
	}
	now := time.Since(st.start).Seconds()
	tr.Record(trace.Event{
		Kind: trace.Straggler, Unit: st.m.cfg.Name, Node: n.cfg.Name,
		Label: t.Label, TaskID: t.ID(), From: reason, Start: now, End: now,
	})
}
