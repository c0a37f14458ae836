package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/taskrt"
	"repro/internal/trace"
)

// NodeConfig describes one execution node to the master.
type NodeConfig struct {
	// Name labels the node in traces, metrics and reports.
	Name string
	// Addr is the worker's base URL (http://host:port).
	Addr string
	// PU optionally anchors the node to a processing unit in
	// Config.Platform, so transfer costs follow the declared interconnect
	// route from MasterPU instead of the generic defaults.
	PU string
}

// Config wires a Master.
type Config struct {
	// Nodes lists the execution nodes. Archs, parallelism and runnable
	// codelets are probed from each node's /v1/info.
	Nodes []NodeConfig
	// Platform, with MasterPU and per-node PU set, prices master→node
	// transfers over the declared interconnect route (the paper's explicit
	// data-transfer paths); absent routes use defaults for a LAN hop.
	Platform *core.Platform
	MasterPU string
	// Models holds per-(codelet, arch) performance history for EFT
	// placement; a fresh store when nil (placement warms up via fallback
	// means). Workers feed their own observations back in each response,
	// so the store converges during a run.
	Models *perfmodel.Store
	// MaxInflight bounds outstanding invocations per node: the node-level
	// generalisation of the dispatcher's credit semaphore. Default
	// 2×(node workers), so each node always has the next wave queued.
	MaxInflight int
	// MaxAttempts bounds executions per task (in-band failures only;
	// transport errors and cache misses do not consume attempts). Default 5.
	MaxAttempts int
	// Heartbeat parameters: probe cadence, per-probe timeout, and how many
	// consecutive misses declare the node dead.
	HeartbeatEvery   time.Duration // default 250ms
	HeartbeatTimeout time.Duration // default = HeartbeatEvery
	HeartbeatMisses  int           // default 3
	// Retry backoff (taskrt.Backoff): the first retry waits BackoffBase,
	// each further failed attempt doubles it, capped at BackoffCap.
	// Defaults 25ms / 1s.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// AllDeadTimeout aborts the run after every node has been dead this
	// long with work outstanding. Default 30s.
	AllDeadTimeout time.Duration
	// ExecTimeout bounds one invocation round-trip. Default 2m.
	ExecTimeout time.Duration
	// Trace, when set, records master-side spans (placements, transfers,
	// retries, node state changes) stamped Node=Name. Worker-side kernel
	// spans arriving on execute responses are kept in per-(node, epoch)
	// traces and merged with it for publishing and the final Report.Trace.
	Trace *trace.Trace
	// Straggler tunes the latency-anomaly detector (zero value = defaults:
	// flag at 4× the model estimate after 3 samples; set Multiple negative
	// to disable).
	Straggler StragglerConfig
	// PublishEvery is how many task completions elapse between live
	// re-publishes of the merged cluster trace to trace.Published (the
	// /debug/trace surface). Default 64; negative disables live publishing
	// (the final merge still lands in Report.Trace).
	PublishEvery int
	// Name is the master's node label in traces. Default "master".
	Name string
	// HTTP is the data-plane client. Default: dedicated client, no global
	// timeout (ExecTimeout bounds each call).
	HTTP *http.Client
	Logf func(format string, args ...any)
}

// NodeStats aggregates one node's contribution to a run.
type NodeStats struct {
	Name          string
	Tasks         int
	BusySeconds   float64 // summed kernel seconds reported by the node
	Transfers     int     // payloads inlined (cache misses by version)
	TransferBytes int64   // encoded bytes shipped
	Retries       int     // in-band failures requeued
	Resubmits     int     // tasks reassigned after this node died
	NeedData      int     // dispatches bounced for missing cached data
	Stragglers    int     // tasks flagged by the latency-anomaly detector
	Slowdown      float64 // final EWMA of observed/estimated latency (0 = no data)
	Dead          bool    // dead when the run ended
}

// Report is the outcome of Master.Run.
type Report struct {
	Tasks           int
	MakespanSeconds float64
	PerNode         []NodeStats
	FailedAttempts  int
	RetriedTasks    int
	Resubmissions   int
	Transfers       int
	TransferBytes   int64
	DeadNodes       []string
	Stragglers      int
	// Trace is the merged cluster timeline (master spans + worker kernel
	// spans, epoch-aligned), when the master was configured with a Trace.
	Trace *trace.Trace
}

// String renders a human-readable summary, in the shape of taskrt.Report.
func (r *Report) String() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "mode=cluster sched=eft tasks=%d makespan=%.6fs transfers=%d (%.1f MB)",
		r.Tasks, r.MakespanSeconds, r.Transfers, float64(r.TransferBytes)/(1<<20))
	if r.FailedAttempts > 0 || r.Resubmissions > 0 || len(r.DeadNodes) > 0 {
		fmt.Fprintf(&b, " failures=%d retried=%d resubmitted=%d dead=%v",
			r.FailedAttempts, r.RetriedTasks, r.Resubmissions, r.DeadNodes)
	}
	b.WriteString("\n")
	for _, n := range r.PerNode {
		util := 0.0
		if r.MakespanSeconds > 0 {
			util = n.BusySeconds / r.MakespanSeconds
		}
		fmt.Fprintf(&b, "  %-10s tasks=%-5d busy=%.6fs util=%.0f%% shipped=%.1fMB",
			n.Name, n.Tasks, n.BusySeconds, util*100, float64(n.TransferBytes)/(1<<20))
		if n.Resubmits > 0 || n.Dead {
			fmt.Fprintf(&b, " resubmitted=%d dead=%v", n.Resubmits, n.Dead)
		}
		if n.Stragglers > 0 {
			fmt.Fprintf(&b, " stragglers=%d slowdown=x%.1f", n.Stragglers, n.Slowdown)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Master dispatches a task graph across worker nodes.
type Master struct {
	cfg  Config
	http *http.Client
}

// NewMaster validates the config and applies defaults.
func NewMaster(cfg Config) (*Master, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: master needs at least one node")
	}
	seen := map[string]bool{}
	for i, n := range cfg.Nodes {
		if n.Name == "" || n.Addr == "" {
			return nil, fmt.Errorf("cluster: node %d needs name and addr", i)
		}
		if seen[n.Name] {
			return nil, fmt.Errorf("cluster: duplicate node name %q", n.Name)
		}
		seen[n.Name] = true
	}
	if cfg.Models == nil {
		cfg.Models = perfmodel.NewStore()
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 5
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 250 * time.Millisecond
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = cfg.HeartbeatEvery
	}
	if cfg.HeartbeatMisses <= 0 {
		cfg.HeartbeatMisses = 3
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 25 * time.Millisecond
	}
	if cfg.BackoffCap <= 0 {
		cfg.BackoffCap = time.Second
	}
	if cfg.AllDeadTimeout <= 0 {
		cfg.AllDeadTimeout = 30 * time.Second
	}
	if cfg.ExecTimeout <= 0 {
		cfg.ExecTimeout = 2 * time.Minute
	}
	if cfg.Name == "" {
		cfg.Name = "master"
	}
	cfg.Straggler = cfg.Straggler.withDefaults()
	if cfg.PublishEvery == 0 {
		cfg.PublishEvery = 64
	}
	m := &Master{cfg: cfg, http: cfg.HTTP}
	if m.http == nil {
		m.http = &http.Client{}
	}
	return m, nil
}

// Transfer characteristics of a node without a declared route: a LAN hop
// (~1 GB/s, 200µs). Declared links missing a property take
// core.Interconnect.Cost's defaults instead.
const (
	lanBandwidth = 1 << 30
	lanLatencyNS = 200e3
)

// nodeState is the master's view of one node during a run. All fields
// except the control client are owned by the run loop goroutine.
type nodeState struct {
	cfg NodeConfig
	ctl *client.Client

	alive    bool
	misses   int // consecutive failed heartbeat probes while alive
	info     InfoResponse
	maxCred  int
	credits  int
	backlog  float64 // outstanding estimate, nanoseconds
	suspects int     // consecutive transport errors on the data plane
	has      map[int]uint64

	// Modelled transfer cost of the master→node route.
	latNanos     float64
	nanosPerByte float64

	// Fallback estimate: mean observed round-trip on this node.
	obsCount int
	obsMean  float64 // nanoseconds

	// Straggler detector state: EWMA of observed/estimated latency over
	// model-placed tasks, and how many such observations exist.
	slowEWMA    float64
	slowSamples int

	stats NodeStats
}

// events flowing into the run loop.
type eventKind int

const (
	evResult eventKind = iota
	evRequeue
	evProbe
	evAllDead
)

type event struct {
	kind eventKind
	node *nodeState
	rec  *inflightRec
	resp *ExecResponse
	err  error
	task *taskrt.Task
	info InfoResponse
}

// inflightRec is one dispatched invocation. It holds its node's credit and
// backlog charge while it is the task's entry in runState.inflight.
type inflightRec struct {
	task     *taskrt.Task
	node     *nodeState
	specs    []AccessSpec
	charge   float64 // backlog charged at dispatch: penalised exec + transfer, nanoseconds
	modelEst float64 // unscaled perfmodel estimate, nanoseconds (0 unless reason "model")
	shipped  int64   // encoded bytes inlined (set by the ship goroutine)
	inlines  int
}

// runState is the mutable state of one Run, owned by the loop goroutine.
type runState struct {
	m       *Master
	tasks   []*taskrt.Task
	handles []*taskrt.Handle
	nodes   []*nodeState

	ver      []uint64 // current version per handle id
	indeg    map[int]int
	done     map[int]bool
	inflight map[int]*inflightRec
	ready    []*taskrt.Task
	rr       int // placement scan start, rotated per decision

	events chan event
	stop   chan struct{}
	start  time.Time

	resubmissions int

	// Worker-side kernel spans, keyed by (node, process epoch) so a
	// restarted worker gets a fresh, correctly-aligned input trace instead
	// of polluting its predecessor's time base. Order is first-seen, for
	// deterministic merges.
	nodeTraces     map[nodeEpoch]*trace.Trace
	nodeTraceOrder []nodeEpoch
	sincePublish   int
}

// nodeEpoch identifies one worker process incarnation.
type nodeEpoch struct {
	node  string
	epoch int64
}

func (st *runState) send(ev event) {
	select {
	case st.events <- ev:
	case <-st.stop:
	}
}

func (m *Master) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// Run executes a fully-submitted (and not yet run) Runtime's graph across
// the configured nodes, applying results into the Runtime's handle payloads
// exactly once. It is the cluster-wide counterpart of Runtime.Run.
func (m *Master) Run(rt *taskrt.Runtime) (*Report, error) {
	tasks, handles, err := rt.Graph()
	if err != nil {
		return nil, err
	}
	if len(tasks) == 0 {
		return &Report{}, nil
	}
	st := &runState{
		m:        m,
		tasks:    tasks,
		handles:  handles,
		ver:      make([]uint64, len(handles)),
		indeg:    make(map[int]int, len(tasks)),
		done:     make(map[int]bool, len(tasks)),
		inflight: map[int]*inflightRec{},
		events:   make(chan event, 64),
		stop:     make(chan struct{}),
		start:    time.Now(),
	}
	defer close(st.stop)

	if tr := m.cfg.Trace; tr != nil {
		tr.SetMeta(trace.MetaNode, m.cfg.Name)
		tr.SetMeta(trace.MetaEpochMicros, fmt.Sprintf("%d", st.start.UnixMicro()))
	}

	for _, nc := range m.cfg.Nodes {
		ctl, err := client.New(nc.Addr,
			client.WithHTTPClient(&http.Client{Timeout: m.cfg.HeartbeatTimeout}),
			client.WithRetry(0, 0))
		if err != nil {
			return nil, fmt.Errorf("cluster: node %s: %v", nc.Name, err)
		}
		n := &nodeState{cfg: nc, ctl: ctl, has: map[int]uint64{}}
		n.stats.Name = nc.Name
		n.latNanos, n.nanosPerByte = m.routeCost(nc.PU)
		st.nodes = append(st.nodes, n)
		cm.nodeUp.With(nc.Name).Set(0)
		go st.heartbeat(n)
	}

	for _, t := range tasks {
		st.indeg[t.ID()] = len(t.Deps())
		if len(t.Deps()) == 0 {
			st.ready = append(st.ready, t)
		}
	}

	remaining := len(tasks)
	var deadTimer *time.Timer
	defer func() {
		if deadTimer != nil {
			deadTimer.Stop()
		}
	}()
	for remaining > 0 {
		st.dispatchReady()
		if len(st.inflight) == 0 && len(st.ready) > 0 && st.aliveCount() > 0 {
			// Nothing in flight means every alive node has full credit, yet
			// no ready task was placeable: the codelet runs nowhere.
			t := st.ready[0]
			return nil, fmt.Errorf("cluster: no alive node can run codelet %q (task %d)", t.Codelet.Name, t.ID())
		}
		if st.aliveCount() == 0 {
			if deadTimer == nil {
				deadTimer = time.AfterFunc(m.cfg.AllDeadTimeout, func() { st.send(event{kind: evAllDead}) })
			}
		} else if deadTimer != nil {
			deadTimer.Stop()
			deadTimer = nil
		}

		ev := <-st.events
		switch ev.kind {
		case evProbe:
			st.probe(ev.node, ev.info, ev.err)
		case evRequeue:
			st.ready = append(st.ready, ev.task)
		case evAllDead:
			if st.aliveCount() == 0 {
				return nil, fmt.Errorf("cluster: all %d nodes dead for %s with %d tasks outstanding",
					len(st.nodes), m.cfg.AllDeadTimeout, remaining)
			}
		case evResult:
			completed, err := st.handleResult(ev)
			if err != nil {
				return nil, err
			}
			if completed {
				remaining--
				st.sincePublish++
				if m.cfg.PublishEvery > 0 && st.sincePublish >= m.cfg.PublishEvery {
					st.publishMerged()
					st.sincePublish = 0
				}
			}
		}
	}

	rep := &Report{
		Tasks:           len(tasks),
		MakespanSeconds: time.Since(st.start).Seconds(),
		Resubmissions:   st.resubmissions,
	}
	rep.FailedAttempts, rep.RetriedTasks = taskrt.FailureCounts(tasks)
	for _, n := range st.nodes {
		n.stats.Dead = !n.alive
		if n.stats.Dead {
			rep.DeadNodes = append(rep.DeadNodes, n.cfg.Name)
		}
		rep.Transfers += n.stats.Transfers
		rep.TransferBytes += n.stats.TransferBytes
		rep.Stragglers += n.stats.Stragglers
		rep.PerNode = append(rep.PerNode, n.stats)
	}
	sort.Strings(rep.DeadNodes)
	sort.Slice(rep.PerNode, func(i, j int) bool { return rep.PerNode[i].Name < rep.PerNode[j].Name })
	rep.Trace = st.publishMerged()
	return rep, nil
}

// ingestSpans files the worker kernel spans piggybacked on a response into
// the per-(node, epoch) trace they belong to. Keying by process epoch means
// a restarted worker's spans align against its own time base instead of its
// predecessor's.
func (st *runState) ingestSpans(n *nodeState, resp *ExecResponse) {
	if len(resp.Spans) == 0 || resp.EpochMicros == 0 {
		return
	}
	key := nodeEpoch{node: n.cfg.Name, epoch: resp.EpochMicros}
	if st.nodeTraces == nil {
		st.nodeTraces = map[nodeEpoch]*trace.Trace{}
	}
	tr, ok := st.nodeTraces[key]
	if !ok {
		tr = trace.New()
		tr.SetMeta(trace.MetaNode, n.cfg.Name)
		tr.SetMeta(trace.MetaEpochMicros, fmt.Sprintf("%d", resp.EpochMicros))
		st.nodeTraces[key] = tr
		st.nodeTraceOrder = append(st.nodeTraceOrder, key)
	}
	for _, e := range resp.Spans {
		tr.Record(e)
	}
}

// publishMerged stitches the master trace and every node's span trace into
// one epoch-aligned timeline, publishes it as the process's current trace
// (the /debug/trace surface) and returns it. Nil when the master itself has
// no trace configured and no spans arrived.
func (st *runState) publishMerged() *trace.Trace {
	var inputs []*trace.Trace
	if st.m.cfg.Trace != nil {
		inputs = append(inputs, st.m.cfg.Trace)
	}
	for _, key := range st.nodeTraceOrder {
		inputs = append(inputs, st.nodeTraces[key])
	}
	if len(inputs) == 0 {
		return nil
	}
	merged, err := trace.Merge(inputs...)
	if err != nil {
		st.m.logf("cluster: merging node traces: %v", err)
		return nil
	}
	trace.Publish(merged)
	return merged
}

// routeCost prices the master→node path over the platform's declared
// interconnects (core.Platform.RouteCost), or as a LAN hop when the node
// has no declared route from MasterPU.
func (m *Master) routeCost(pu string) (latNanos, nanosPerByte float64) {
	if pl := m.cfg.Platform; pl != nil && m.cfg.MasterPU != "" && pu != "" && pu != m.cfg.MasterPU {
		if lat, perByte, err := pl.RouteCost(m.cfg.MasterPU, pu); err == nil {
			return lat * 1e9, perByte * 1e9
		}
	}
	return lanLatencyNS, 1e9 / lanBandwidth
}

func (st *runState) aliveCount() int {
	n := 0
	for _, node := range st.nodes {
		if node.alive {
			n++
		}
	}
	return n
}

// heartbeat probes the node's /v1/info every HeartbeatEvery until the run
// ends and hands each outcome to the loop, which alone decides liveness
// (probe). The same probe learns the node's capabilities on first contact
// and after restarts.
func (st *runState) heartbeat(n *nodeState) {
	cfg := st.m.cfg
	for {
		ctx, cancel := context.WithTimeout(context.Background(), cfg.HeartbeatTimeout)
		var info InfoResponse
		err := n.ctl.GetJSON(ctx, PathInfo, &info)
		cancel()
		st.send(event{kind: evProbe, node: n, info: info, err: err})
		select {
		case <-st.stop:
			return
		case <-time.After(cfg.HeartbeatEvery):
		}
	}
}

// probe applies one heartbeat outcome. A good probe brings a down node up
// (nodeUp does nothing for a live one); HeartbeatMisses consecutive failed
// probes of a live node declare it dead. A down node's failed probes count
// nothing.
func (st *runState) probe(n *nodeState, info InfoResponse, err error) {
	if err == nil {
		n.misses = 0
		st.nodeUp(n, info)
		return
	}
	if !n.alive {
		return
	}
	n.misses++
	cm.hbMisses.With(n.cfg.Name).Inc()
	if n.misses >= st.m.cfg.HeartbeatMisses {
		st.nodeDown(n)
	}
}

func (st *runState) nodeUp(n *nodeState, info InfoResponse) {
	if n.alive {
		return
	}
	n.alive = true
	n.info = info
	n.suspects = 0
	// Fresh (or restarted) process: its cache is unknown, so forget what we
	// believed resident — every first access re-inlines.
	n.has = map[int]uint64{}
	n.maxCred = st.m.cfg.MaxInflight
	if n.maxCred <= 0 {
		w := info.Workers
		if w <= 0 {
			w = 1
		}
		n.maxCred = 2 * w
	}
	n.credits = n.maxCred
	n.backlog = 0
	cm.nodeUp.With(n.cfg.Name).Set(1)
	st.m.logf("cluster: node %s up (archs %v, %d workers, %d codelets)",
		n.cfg.Name, info.Archs, info.Workers, len(info.Codelets))
	st.traceInstant(trace.Recover, n.cfg.Name, "", trace.NoTask)
}

// nodeDown blacklists the node and resubmits everything it had in flight.
func (st *runState) nodeDown(n *nodeState) {
	if !n.alive {
		return
	}
	n.alive, n.misses = false, 0
	cm.nodeUp.With(n.cfg.Name).Set(0)
	// A dead node must not linger in scrapes as a ghost: releasing its recs
	// below takes its inflight gauge to zero, and its slowdown series is
	// deleted outright — a score with no live node behind it is noise, and
	// a rejoining process starts fresh.
	cm.slowdown.Delete(n.cfg.Name)
	n.slowEWMA, n.slowSamples = 0, 0
	st.m.logf("cluster: node %s dead; resubmitting its in-flight tasks", n.cfg.Name)
	st.traceInstant(trace.Blacklist, n.cfg.Name, "", trace.NoTask)
	for _, rec := range st.inflight {
		if rec.node == n {
			st.release(rec)
			st.resubmit(n, rec.task)
		}
	}
	n.credits, n.backlog = 0, 0
}

// release returns rec's credit, backlog charge and inflight gauge to its
// node, once: only the task's current in-flight record holds them, so a rec
// already released by nodeDown, or superseded by a resubmitted copy,
// returns nothing.
func (st *runState) release(rec *inflightRec) {
	id := rec.task.ID()
	if st.inflight[id] != rec {
		return
	}
	delete(st.inflight, id)
	n := rec.node
	n.credits++
	n.backlog -= rec.charge
	if n.backlog < 0 {
		n.backlog = 0
	}
	cm.inflight.With(n.cfg.Name).Dec()
}

// resubmit requeues a task taken back from dead node n, counted against n.
func (st *runState) resubmit(n *nodeState, t *taskrt.Task) {
	n.stats.Resubmits++
	st.resubmissions++
	cm.resubmits.With(n.cfg.Name).Inc()
	st.requeueWithBackoff(t)
}

// requeueWithBackoff schedules the task back into ready after the retry
// delay for its in-band attempt count.
func (st *runState) requeueWithBackoff(t *taskrt.Task) {
	time.AfterFunc(st.m.retryDelay(t.Attempt()), func() { st.send(event{kind: evRequeue, task: t}) })
}

// retryDelay is taskrt.Backoff over BackoffBase/BackoffCap: the first retry
// (and any requeue before an attempt failed) waits BackoffBase.
func (m *Master) retryDelay(attempts int) time.Duration {
	return time.Duration(taskrt.Backoff(float64(m.cfg.BackoffBase), float64(m.cfg.BackoffCap), attempts))
}

// nodeRuns reports whether the node advertises the codelet as runnable.
func (n *nodeState) nodeRuns(codelet string) bool {
	if len(n.info.Codelets) == 0 {
		return true // no advertisement: optimistic, execute surfaces errors
	}
	for _, c := range n.info.Codelets {
		if c == codelet {
			return true
		}
	}
	return false
}

// modelEstimate returns the perfmodel's prediction, in nanoseconds, for the
// task on the first of the node's archs that implements the codelet and
// has history.
func (st *runState) modelEstimate(t *taskrt.Task, n *nodeState) (float64, bool) {
	if t.Flops <= 0 {
		return 0, false
	}
	for _, arch := range n.info.Archs {
		if t.Codelet.ImplFor(arch) == nil {
			continue
		}
		if sec, ok := st.m.cfg.Models.Model(t.Codelet.Name, arch).Estimate(t.Flops); ok {
			return sec * 1e9, true
		}
	}
	return 0, false
}

// poolMean is the mean observed round-trip over every node (0 before any
// completion): the estimate a node without history bids.
func (st *runState) poolMean() float64 {
	sum, count := 0.0, 0
	for _, n := range st.nodes {
		sum += n.obsMean * float64(n.obsCount)
		count += n.obsCount
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// hasVersion reports whether the node is believed to cache the handle at
// exactly this version. The explicit ok-check matters: handles start at
// version 0, and a missing map entry must not read as "version 0 resident".
func (n *nodeState) hasVersion(id int, ver uint64) bool {
	v, ok := n.has[id]
	return ok && v == ver
}

// transferNanos prices the payloads that would need inlining for the task
// on the node, given the node's version cache.
func (st *runState) transferNanos(t *taskrt.Task, n *nodeState) float64 {
	total := 0.0
	for _, a := range t.Accesses {
		id := a.Handle.ID()
		if n.hasVersion(id, st.ver[id]) {
			continue
		}
		total += n.latNanos + float64(a.Handle.Bytes)*n.nanosPerByte
	}
	return total
}

// choose places the task through taskrt.ChooseEFT among alive nodes with
// free credit that can run the codelet, rotating the scan start across
// decisions. Each node's execution estimate is scaled by its slowdown
// penalty (EWMA of observed/estimated latency, floored at 1), so detected
// stragglers bid with their real speed rather than the model's optimism.
// It returns the decision and the chosen node.
func (st *runState) choose(t *taskrt.Task) (taskrt.Choice, *nodeState, bool) {
	start := st.rr % len(st.nodes)
	st.rr++
	c, ok := taskrt.ChooseEFT(len(st.nodes), start, t.Priority, st.poolMean(), func(i int) (taskrt.Bid, bool) {
		n := st.nodes[i]
		if !n.alive || n.credits <= 0 || !n.nodeRuns(t.Codelet.Name) {
			return taskrt.Bid{}, false
		}
		b := taskrt.Bid{Backlog: n.backlog, Transfer: st.transferNanos(t, n), Penalty: n.penalty()}
		b.Model, b.ModelOK = st.modelEstimate(t, n)
		b.Mean, b.Samples = n.obsMean, int64(n.obsCount)
		return b, true
	})
	if !ok {
		return c, nil, false
	}
	return c, st.nodes[c.Index], true
}

// dispatchReady places as many ready tasks as node credits allow.
func (st *runState) dispatchReady() {
	var defer2 []*taskrt.Task
	for len(st.ready) > 0 {
		t := st.ready[0]
		st.ready = st.ready[1:]
		if st.done[t.ID()] || st.inflight[t.ID()] != nil {
			continue // resubmitted and already handled
		}
		c, n, ok := st.choose(t)
		if !ok {
			defer2 = append(defer2, t)
			if st.aliveCount() == 0 {
				break // wait for a node; keep remaining ready intact
			}
			continue
		}
		st.dispatch(t, c, n)
	}
	st.ready = append(defer2, st.ready...)
}

// dispatch charges node n with placement decision c and ships the
// invocation asynchronously.
func (st *runState) dispatch(t *taskrt.Task, c taskrt.Choice, n *nodeState) {
	specs := make([]AccessSpec, len(t.Accesses))
	inline := make([]bool, len(t.Accesses))
	for i, a := range t.Accesses {
		id := a.Handle.ID()
		specs[i] = AccessSpec{
			HandleID: id,
			Name:     a.Handle.Name,
			Bytes:    a.Handle.Bytes,
			Mode:     int(a.Mode),
			Version:  st.ver[id],
		}
		inline[i] = !n.hasVersion(id, st.ver[id])
	}
	rec := &inflightRec{task: t, node: n, specs: specs, charge: c.Exec + c.Transfer}
	if c.Source == taskrt.PlaceModel {
		rec.modelEst = c.Estimate
	}
	st.inflight[t.ID()] = rec
	n.credits--
	n.backlog += rec.charge
	cm.inflight.With(n.cfg.Name).Inc()
	cm.decisions.With(c.Source).Inc()
	st.traceDispatch(t, n, c.Source, c.Transfer)

	var parents []int
	for _, d := range t.Deps() {
		parents = append(parents, d.ID())
	}
	req := &ExecRequest{
		TaskID:  t.ID(),
		Attempt: t.Attempt(),
		Codelet: t.Codelet.Name,
		Label:   t.Label,
		Flops:   t.Flops,
		Parents: parents,
	}
	payloads := make([]any, len(t.Accesses))
	for i, a := range t.Accesses {
		payloads[i] = a.Handle.Payload
	}
	go func() {
		resp, err := st.ship(rec, req, payloads, inline)
		st.send(event{kind: evResult, rec: rec, resp: resp, err: err})
	}()
}

// ship encodes inline payloads and performs the execute round-trip. Runs
// outside the loop goroutine; it only touches payloads of the task's own
// accesses, whose writers have all been applied (DAG order), so the reads
// race with nothing.
func (st *runState) ship(rec *inflightRec, req *ExecRequest, payloads []any, inline []bool) (*ExecResponse, error) {
	req.Accesses = append([]AccessSpec(nil), rec.specs...)
	for i := range req.Accesses {
		if !inline[i] {
			continue
		}
		data, err := EncodePayload(payloads[i])
		if err != nil {
			return nil, fmt.Errorf("encoding handle %d: %w", req.Accesses[i].HandleID, err)
		}
		req.Accesses[i].Inline = data
		rec.shipped += int64(len(data))
		rec.inlines++
	}
	body, err := encodeGob(req)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), st.m.cfg.ExecTimeout)
	defer cancel()
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, rec.node.cfg.Addr+PathExecute, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	httpReq.Header.Set("Content-Type", ContentTypeGob)
	httpResp, err := st.m.http.Do(httpReq)
	if err != nil {
		return nil, err
	}
	defer httpResp.Body.Close()
	data, err := io.ReadAll(httpResp.Body)
	if err != nil {
		return nil, err
	}
	if httpResp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("execute returned %d: %s", httpResp.StatusCode, bytes.TrimSpace(data))
	}
	var resp ExecResponse
	if err := decodeGob(data, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// handleResult applies one round-trip outcome. Returns whether a task
// newly completed. This is the exactly-once point: results for tasks
// already done (late arrivals from presumed-dead nodes, duplicates after
// resubmission) are dropped before any state changes.
func (st *runState) handleResult(ev event) (bool, error) {
	rec, n, t := ev.rec, ev.rec.node, ev.rec.task
	st.release(rec)
	// Ingest piggybacked worker spans before the exactly-once drop: even a
	// duplicate attempt really executed, and the merged timeline should show
	// it (that is how duplicated work becomes visible).
	if ev.resp != nil {
		st.ingestSpans(n, ev.resp)
	}
	if st.done[t.ID()] {
		return false, nil // duplicate of a completed task: exactly-once drop
	}
	if cur := st.inflight[t.ID()]; cur != nil && cur != rec {
		// A late result from a presumed-dead node, while the resubmitted
		// copy is already in flight. Drop even a success: the copy was
		// dispatched from identical inputs and will produce the same
		// output, and applying now would race with the copy's payload
		// encoding.
		return false, nil
	}

	switch {
	case ev.err != nil:
		// Transport-level failure: the infrastructure faulted, not the
		// task, so no attempt is consumed; repeated faults take the node
		// down ahead of the heartbeat's verdict.
		n.suspects++
		st.m.logf("cluster: node %s transport error (task %d): %v", n.cfg.Name, t.ID(), ev.err)
		if n.suspects >= 2 && n.alive {
			// nodeDown resubmits what is still in flight; this rec was
			// released above, so it is resubmitted here.
			st.nodeDown(n)
			st.resubmit(n, t)
		} else {
			st.requeueWithBackoff(t)
		}
		return false, nil

	case len(ev.resp.NeedData) > 0:
		// Worker cache miss (eviction or restart): forget the stale
		// residency and redispatch; no attempt consumed, no backoff. The
		// completed round-trip also proves transport is healthy, so clear
		// suspicion like the other in-band outcomes do.
		n.suspects = 0
		for _, id := range ev.resp.NeedData {
			delete(n.has, id)
		}
		n.stats.NeedData++
		cm.needData.With(n.cfg.Name).Inc()
		st.ready = append(st.ready, t)
		return false, nil

	case !ev.resp.OK:
		// In-band execution failure: consumes an attempt. The failed kernel
		// may have mutated write-mode payloads in place (the worker drops
		// its cache entries for them), so forget their residency too and
		// re-inline canonical bytes on the retry instead of trusting — or
		// bouncing off — the node's copy.
		for _, spec := range rec.specs {
			if taskrt.AccessMode(spec.Mode).Writes() {
				delete(n.has, spec.HandleID)
			}
		}
		n.suspects = 0
		n.stats.Retries++
		cm.retries.With(n.cfg.Name).Inc()
		attempt, err := taskrt.RetryPolicy{MaxAttempts: st.m.cfg.MaxAttempts}.CountFailure(t, n.cfg.Name, errors.New(ev.resp.Error))
		st.traceInstant(trace.Retry, n.cfg.Name, t.Label, t.ID())
		if err != nil {
			return false, err
		}
		st.m.logf("cluster: task %d failed on %s (attempt %d): %s", t.ID(), n.cfg.Name, attempt, ev.resp.Error)
		st.requeueWithBackoff(t)
		return false, nil
	}

	// Success: apply writes under first-writer-wins (the done-check above),
	// update residency, release dependents.
	n.suspects = 0
	resp := ev.resp
	for _, wr := range resp.Written {
		h := st.handles[wr.HandleID]
		v, err := DecodePayload(wr.Payload)
		if err != nil {
			return false, fmt.Errorf("cluster: task %d result, handle %d: %w", t.ID(), wr.HandleID, err)
		}
		applied, err := ApplyPayload(h.Payload, v)
		if err != nil {
			return false, fmt.Errorf("cluster: task %d result, handle %d: %w", t.ID(), wr.HandleID, err)
		}
		h.Payload = applied
		st.ver[wr.HandleID] = wr.Version
		n.has[wr.HandleID] = wr.Version
	}
	for _, spec := range rec.specs {
		if !taskrt.AccessMode(spec.Mode).Writes() {
			n.has[spec.HandleID] = spec.Version
		}
	}
	st.done[t.ID()] = true
	n.stats.Tasks++
	n.stats.BusySeconds += resp.ExecSeconds
	n.stats.Transfers += rec.inlines
	n.stats.TransferBytes += rec.shipped
	cm.tasks.With(n.cfg.Name).Inc()
	cm.taskSeconds.With(n.cfg.Name).Observe(resp.ExecSeconds)
	if rec.inlines > 0 {
		cm.transfers.With(n.cfg.Name).Add(float64(rec.inlines))
		cm.transferB.With(n.cfg.Name).Add(float64(rec.shipped))
	}
	st.observeResidual(n, t, rec, resp.ExecSeconds)
	// Feed the round-trip into the node's fallback mean and the shared
	// perfmodel (keyed by the arch the worker actually used).
	if resp.ExecSeconds > 0 {
		nanos := resp.ExecSeconds * 1e9
		n.obsMean = (n.obsMean*float64(n.obsCount) + nanos) / float64(n.obsCount+1)
		n.obsCount++
		if t.Flops > 0 && resp.Arch != "" {
			st.m.cfg.Models.Model(t.Codelet.Name, resp.Arch).Record(t.Flops, resp.ExecSeconds)
		}
	}
	for _, dep := range t.Dependents() {
		st.indeg[dep.ID()]--
		if st.indeg[dep.ID()] == 0 {
			st.ready = append(st.ready, dep)
		}
	}
	return true, nil
}

// traceDispatch records the placement decision (and, when data moved, a
// transfer span) against the target node.
func (st *runState) traceDispatch(t *taskrt.Task, n *nodeState, reason string, xferNanos float64) {
	tr := st.m.cfg.Trace
	if tr == nil {
		return
	}
	now := time.Since(st.start).Seconds()
	tr.Record(trace.Event{
		Kind: trace.Place, Unit: st.m.cfg.Name, Node: n.cfg.Name,
		Label: t.Label, TaskID: t.ID(), From: reason,
		Transfer: xferNanos / 1e9, Start: now, End: now,
	})
}

func (st *runState) traceInstant(kind trace.Kind, node, label string, taskID int) {
	tr := st.m.cfg.Trace
	if tr == nil {
		return
	}
	now := time.Since(st.start).Seconds()
	tr.Record(trace.Event{
		Kind: kind, Unit: st.m.cfg.Name, Node: node,
		Label: label, TaskID: taskID, Start: now, End: now,
	})
}
