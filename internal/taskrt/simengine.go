package taskrt

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/dynamic"
	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/simhw"
	"repro/internal/trace"
)

// simUnit pairs a simulated hardware unit with its occupancy resource and
// its fault-tolerance state.
type simUnit struct {
	hw    *simhw.Unit
	idx   int // lane index, stamped into trace spans as Worker
	res   sim.Resource
	tasks int

	started   int         // attempts launched on this unit (fault triggers)
	downUntil sim.Time    // transient blacklisting: unavailable before this
	dead      bool        // permanent blacklisting: skipped by schedulers
	faults    *faultQueue // injected events for this unit, in plan order
}

// availAt returns when the unit can next start work, accounting for both
// occupancy and transient blacklisting.
func (su *simUnit) availAt() sim.Time {
	a := su.res.Available()
	if su.downUntil > a {
		a = su.downUntil
	}
	return a
}

// simFailure describes one failed attempt to the scheduling loop.
type simFailure struct {
	at      sim.Time // detection time
	unit    string
	unitIdx int
}

// simState is the mutable state of one simulated execution.
type simState struct {
	machine *simhw.Machine
	units   []*simUnit
	dma     []sim.Resource           // one DMA engine per memory node
	valid   map[*Handle]map[int]bool // coherence: nodes holding a valid copy
	rng     *rand.Rand
	tracer  *trace.Trace

	// Fault tolerance.
	ft      bool
	policy  RetryPolicy
	tracker *dynamic.Tracker
	models  *perfmodel.Store

	transferBytes int64
	transferSecs  float64
	transferCount int

	watchdogTrips int
	failedUnits   []string // permanently blacklisted by failures, in order
}

// runSim executes the task graph in virtual time via greedy list scheduling
// with the configured policy. The algorithm is deterministic for a given
// (platform, task graph, scheduler, seed, fault plan).
func (rt *Runtime) runSim() (*Report, error) {
	machine, err := simhw.FromPlatform(rt.cfg.Platform)
	if err != nil {
		return nil, err
	}
	st := &simState{
		machine: machine,
		dma:     make([]sim.Resource, machine.NumNodes()),
		valid:   map[*Handle]map[int]bool{},
		rng:     rand.New(rand.NewSource(rt.cfg.Seed)),
		tracer:  rt.cfg.Trace,
		ft:      rt.ftEnabled(),
		policy:  rt.cfg.Retry.withDefaults(),
		tracker: rt.cfg.Tracker,
		models:  rt.cfg.Models,
	}
	// Units the tracker already reports offline start blacklisted: the
	// in-flight path honours the same descriptor state the re-plan path
	// (dynamic.Tracker.Snapshot) would have pruned.
	preOffline := map[string]bool{}
	if st.tracker != nil {
		for _, id := range st.tracker.OfflineUnits() {
			preOffline[id] = true
		}
	}
	for _, u := range machine.Units {
		su := &simUnit{hw: u, idx: len(st.units)}
		if evs := rt.cfg.Faults.forUnit(u.ID); len(evs) > 0 {
			su.faults = &faultQueue{events: evs}
		}
		if preOffline[u.ID] || preOffline[baseUnitID(u.ID)] {
			su.dead = true
		}
		st.units = append(st.units, su)
	}
	for _, h := range rt.handles {
		st.valid[h] = map[int]bool{h.home: true}
	}

	// Dependency bookkeeping.
	remaining := make(map[*Task]int, len(rt.tasks))
	readyAt := make(map[*Task]sim.Time, len(rt.tasks))
	var ready []*Task
	for _, t := range rt.tasks {
		remaining[t] = len(t.deps)
		if remaining[t] == 0 {
			ready = append(ready, t)
		}
	}

	var makespan sim.Time
	completed := 0
	for completed < len(rt.tasks) {
		if len(ready) == 0 {
			return nil, fmt.Errorf("taskrt: task graph deadlock (cycle?) with %d tasks pending", len(rt.tasks)-completed)
		}
		ti := rt.pickTaskIndex(ready, st)
		t := ready[ti]
		ready = append(ready[:ti], ready[ti+1:]...)

		u, err := rt.pickUnit(t, st, readyAt[t])
		if err != nil {
			return nil, err
		}
		end, fail, err := st.execute(t, u, readyAt[t], t.Attempt())
		if err != nil {
			return nil, err
		}
		if fail != nil {
			// Failure recovery: re-queue the task with capped exponential
			// backoff. The failed unit is blacklisted (permanently or until
			// recovery), so the retry lands on a different unit — and when
			// the whole PU class is gone, on a different implementation
			// variant (GPU codelet → CPU variant) via compatibleUnits.
			n, err := st.policy.CountFailure(t, fail.unit, errInjected)
			if err != nil {
				return nil, err
			}
			retryAt := fail.at + sim.Time(st.policy.backoff(n))
			if st.tracer != nil {
				st.tracer.Record(trace.Event{
					Kind: trace.Retry, Unit: fail.unit, Label: taskLabel(t),
					Start: float64(fail.at), End: float64(retryAt),
					TaskID: t.id, Attempt: n, Worker: fail.unitIdx,
				})
			}
			readyAt[t] = retryAt
			ready = append(ready, t)
			continue
		}
		if end > makespan {
			makespan = end
		}
		completed++
		for _, d := range t.dependents {
			if end > readyAt[d] {
				readyAt[d] = end
			}
			remaining[d]--
			if remaining[d] == 0 {
				ready = append(ready, d)
			}
		}
	}

	rep := &Report{
		Mode:            Sim,
		Scheduler:       rt.cfg.Scheduler,
		Tasks:           len(rt.tasks),
		MakespanSeconds: float64(makespan),
		TransferBytes:   st.transferBytes,
		TransferSeconds: st.transferSecs,
		TransferCount:   st.transferCount,
		WatchdogTrips:   st.watchdogTrips,
	}
	rep.FailedAttempts, rep.RetriedTasks = FailureCounts(rt.tasks)
	rep.Blacklisted = append(rep.Blacklisted, st.failedUnits...)
	sort.Strings(rep.Blacklisted)
	for _, su := range st.units {
		rep.PerUnit = append(rep.PerUnit, UnitStats{
			ID: su.hw.ID, Arch: su.hw.Arch, Tasks: su.tasks, BusySeconds: float64(su.res.Busy()),
		})
	}
	return rep, nil
}

// taskLabel names a task in traces.
func taskLabel(t *Task) string {
	if t.Label != "" {
		return t.Label
	}
	return t.Codelet.Name
}

// taskParents resolves a task's dependency ids for trace spans (nil when the
// task is a DAG root).
func taskParents(t *Task) []int {
	if len(t.deps) == 0 {
		return nil
	}
	ps := make([]int, len(t.deps))
	for i, d := range t.deps {
		ps[i] = d.id
	}
	return ps
}

// baseUnitID maps a quantity-expanded instance id back to the descriptor id
// it was expanded from ("host.3" → "host"); ids without an instance suffix
// map to themselves.
func baseUnitID(id string) string {
	for i := len(id) - 1; i > 0; i-- {
		c := id[i]
		if c >= '0' && c <= '9' {
			continue
		}
		if c == '.' && i < len(id)-1 {
			return id[:i]
		}
		break
	}
	return id
}

// kernelSeconds returns the virtual execution time of t's implementation on
// unit u, honouring per-codelet speed factors.
func kernelSeconds(m *simhw.Machine, t *Task, u *simhw.Unit) float64 {
	im := t.Codelet.ImplFor(u.Arch)
	factor := im.SpeedFactor
	if factor <= 0 {
		factor = 1
	}
	return m.KernelTime(u, t.Flops/factor)
}

// watchdogTimeout derives the hang-detection timeout for task t on unit su:
// per-codelet perfmodel estimate × factor when history exists, else the
// simulator's own cost model × factor.
func (st *simState) watchdogTimeout(t *Task, su *simUnit) float64 {
	est := kernelSeconds(st.machine, t, su.hw)
	if st.models != nil && t.Flops > 0 {
		if e, ok := st.models.Model(t.Codelet.Name, su.hw.Arch).Estimate(t.Flops); ok {
			est = e
		}
	}
	return est * st.policy.WatchdogFactor
}

// execute commits task t onto unit u: stages the required transfers,
// occupies the unit and updates coherence. It returns the completion time,
// or a non-nil simFailure when an injected fault killed the attempt.
// attempt numbers this try of t (0 = first), stamped into trace spans.
func (st *simState) execute(t *Task, su *simUnit, ready sim.Time, attempt int) (sim.Time, *simFailure, error) {
	node := su.hw.MemNode
	if su.downUntil > ready {
		ready = su.downUntil
	}
	dataReady := ready
	for _, a := range t.Accesses {
		if !a.Mode.Reads() {
			continue // pure writes need no inbound copy
		}
		v := st.valid[a.Handle]
		if v[node] {
			continue
		}
		src, dur, err := st.cheapestSource(a.Handle, node)
		if err != nil {
			return 0, nil, err
		}
		s, e := st.dma[node].Acquire(ready, sim.Time(dur))
		st.transferBytes += a.Handle.Bytes
		st.transferSecs += dur
		st.transferCount++
		if st.tracer != nil {
			st.tracer.Record(trace.Event{
				Kind: trace.Transfer, Unit: fmt.Sprintf("node%d", node),
				Label: a.Handle.Name, Start: float64(s), End: float64(e),
				Bytes:  a.Handle.Bytes,
				TaskID: t.id, Worker: su.idx, From: fmt.Sprintf("node%d", src),
			})
		}
		if e > dataReady {
			dataReady = e
		}
	}
	dur := sim.Time(kernelSeconds(st.machine, t, su.hw))
	start := dataReady
	if a := su.res.Available(); a > start {
		start = a
	}
	su.started++
	if st.ft {
		if fail, err := st.checkFault(t, su, start, dur, attempt); fail != nil || err != nil {
			return 0, fail, err
		}
	}
	// dataReady already accounts for downUntil, so Acquire's start matches
	// the start the fault check used.
	_, end := su.res.Acquire(dataReady, dur)
	su.tasks++
	rtm.taskSeconds.With(su.hw.ID).Observe(float64(dur))
	if st.tracer != nil {
		st.tracer.Record(trace.Event{
			Kind: trace.Task, Unit: su.hw.ID, Label: taskLabel(t),
			Start: float64(start), End: float64(end),
			TaskID: t.id, ParentIDs: taskParents(t), Attempt: attempt, Worker: su.idx,
		})
	}
	// Commit coherence after execution.
	for _, a := range t.Accesses {
		if a.Mode.Writes() {
			st.valid[a.Handle] = map[int]bool{node: true}
			if st.ft && node != 0 {
				// Checkpoint device writes to host RAM so recovery never
				// depends on state held by a unit that may die: the
				// write-back cost is charged to the host DMA engine and
				// counted as a transfer.
				st.mirrorToHost(a.Handle, node, end, t.id)
			}
		} else {
			st.valid[a.Handle][node] = true
		}
	}
	return end, nil, nil
}

// checkFault fires the unit's next injected fault if this attempt triggers
// it: the unit is occupied for the wasted window, blacklisted (with optional
// recovery), its device memory is invalidated, and the failure is traced and
// mirrored into the dynamic tracker.
func (st *simState) checkFault(t *Task, su *simUnit, start, dur sim.Time, attempt int) (*simFailure, error) {
	f := su.faults.pending()
	if f == nil {
		return nil, nil
	}
	var detect sim.Time
	switch {
	case f.AfterTasks > 0 && su.started >= f.AfterTasks:
		// The kernel crashes halfway through its run.
		detect = start + dur/2
	case f.AtTime > 0 && float64(start+dur) > f.AtTime:
		// The unit dies at AtTime: mid-kernel when the attempt spans it,
		// at launch when the unit was already dead.
		detect = sim.Time(f.AtTime)
		if detect < start {
			detect = start
		}
	default:
		return nil, nil
	}
	if f.Hang {
		// A hung kernel is only detected when the watchdog timeout (per-
		// codelet estimate × factor) expires, so hangs waste more of the
		// unit than crashes — but can never block the run forever.
		detect = start + sim.Time(st.watchdogTimeout(t, su))
		st.watchdogTrips++
	}
	su.faults.consume()
	if wasted := detect - start; wasted > 0 {
		su.res.Acquire(start, wasted)
	}
	if st.tracer != nil {
		st.tracer.Record(trace.Event{
			Kind: trace.Failure, Unit: su.hw.ID, Label: taskLabel(t),
			Start: float64(start), End: float64(detect),
			TaskID: t.id, ParentIDs: taskParents(t), Attempt: attempt, Worker: su.idx,
		})
	}
	// Blacklist the unit. Tracker notifications are emitted in engine
	// processing order; the trace events carry the virtual times.
	if f.RecoverAfter > 0 {
		su.downUntil = detect + sim.Time(f.RecoverAfter)
		if st.tracer != nil {
			st.tracer.Record(trace.Event{
				Kind: trace.Blacklist, Unit: su.hw.ID,
				Start: float64(detect), End: float64(detect),
				TaskID: trace.NoTask, Worker: su.idx,
			})
			st.tracer.Record(trace.Event{
				Kind: trace.Recover, Unit: su.hw.ID,
				Start: float64(su.downUntil), End: float64(su.downUntil),
				TaskID: trace.NoTask, Worker: su.idx,
			})
		}
		if st.tracker != nil {
			// Best effort: the tracker only knows descriptor-level ids.
			if st.tracker.SetOffline(su.hw.ID) == nil {
				_ = st.tracker.SetOnline(su.hw.ID)
			}
		}
	} else {
		su.dead = true
		st.failedUnits = append(st.failedUnits, su.hw.ID)
		if st.tracer != nil {
			st.tracer.Record(trace.Event{
				Kind: trace.Blacklist, Unit: su.hw.ID,
				Start: float64(detect), End: float64(detect),
				TaskID: trace.NoTask, Worker: su.idx,
			})
		}
		if st.tracker != nil {
			_ = st.tracker.SetOffline(su.hw.ID)
		}
	}
	// Never reuse state on the dead unit: every copy in its device memory is
	// dropped, and later readers re-issue transfers from a surviving MSI
	// copy (host RAM holds one for every handle thanks to write-back).
	// Node 0 is shared host RAM — a dying CPU core does not lose it.
	if node := su.hw.MemNode; node != 0 {
		if err := st.invalidateNode(node); err != nil {
			return nil, err
		}
	}
	return &simFailure{at: detect, unit: su.hw.ID, unitIdx: su.idx}, nil
}

// invalidateNode drops every valid copy held by a failed device's memory.
func (st *simState) invalidateNode(node int) error {
	for h, set := range st.valid {
		if !set[node] {
			continue
		}
		delete(set, node)
		if len(set) == 0 {
			return fmt.Errorf("taskrt: handle %q lost its last valid copy with memory node %d", h.Name, node)
		}
	}
	return nil
}

// mirrorToHost write-backs a freshly written device copy to host RAM.
// taskID attributes the transfer to the task whose write is checkpointed.
func (st *simState) mirrorToHost(h *Handle, node int, ready sim.Time, taskID int) {
	dur, err := st.machine.TransferTime(node, 0, h.Bytes)
	if err != nil {
		return // no route: node keeps the only copy
	}
	s, e := st.dma[0].Acquire(ready, sim.Time(dur))
	st.transferBytes += h.Bytes
	st.transferSecs += dur
	st.transferCount++
	if st.tracer != nil {
		st.tracer.Record(trace.Event{
			Kind: trace.Transfer, Unit: "node0",
			Label: h.Name, Start: float64(s), End: float64(e),
			Bytes:  h.Bytes,
			TaskID: taskID, Worker: -1, From: fmt.Sprintf("node%d", node),
		})
	}
	st.valid[h][0] = true
}

// cheapestSource picks the valid copy of h that is cheapest to move to dst.
func (st *simState) cheapestSource(h *Handle, dst int) (src int, seconds float64, err error) {
	best := -1
	bestT := math.Inf(1)
	for node, ok := range st.valid[h] {
		if !ok {
			continue
		}
		d, err := st.machine.TransferTime(node, dst, h.Bytes)
		if err != nil {
			continue
		}
		if d < bestT {
			bestT, best = d, node
		}
	}
	if best < 0 {
		return 0, 0, fmt.Errorf("taskrt: no valid copy of handle %q reachable from node %d", h.Name, dst)
	}
	return best, bestT, nil
}

// estimateEFT predicts the earliest finish time of t on unit u given
// current resource horizons — the dmda cost function.
func (st *simState) estimateEFT(t *Task, su *simUnit, ready sim.Time) sim.Time {
	node := su.hw.MemNode
	if su.downUntil > ready {
		ready = su.downUntil
	}
	dataReady := ready
	for _, a := range t.Accesses {
		if !a.Mode.Reads() {
			continue
		}
		if st.valid[a.Handle][node] {
			continue
		}
		_, dur, err := st.cheapestSource(a.Handle, node)
		if err != nil {
			return sim.Time(math.Inf(1))
		}
		s := ready
		if st.dma[node].Available() > s {
			s = st.dma[node].Available()
		}
		if e := s + sim.Time(dur); e > dataReady {
			dataReady = e
		}
	}
	start := dataReady
	if a := su.availAt(); a > start {
		start = a
	}
	return start + sim.Time(kernelSeconds(st.machine, t, su.hw))
}

// compatibleUnits returns the units that have an implementation for t,
// satisfy the task's Where placement constraint and are not blacklisted.
func (st *simState) compatibleUnits(t *Task) []*simUnit {
	var out []*simUnit
	for _, su := range st.units {
		if su.dead {
			continue // blacklisted by a failure (or offline in the tracker)
		}
		if t.Codelet.ImplFor(su.hw.Arch) == nil {
			continue
		}
		if len(t.Where) > 0 && !unitAllowed(su.hw.ID, t.Where) {
			continue
		}
		out = append(out, su)
	}
	return out
}

// unitAllowed reports whether a (possibly quantity-expanded) unit id matches
// one of the allowed PU ids.
func unitAllowed(id string, where []string) bool {
	for _, w := range where {
		if id == w || (len(id) > len(w) && id[:len(w)] == w && id[len(w)] == '.') {
			return true
		}
	}
	return false
}

// pickTaskIndex chooses which ready task to schedule next.
func (rt *Runtime) pickTaskIndex(ready []*Task, st *simState) int {
	switch rt.cfg.Scheduler {
	case "heft":
		// Largest work first (a static upward-rank approximation).
		best, bestFlops := 0, -1.0
		for i, t := range ready {
			if t.Flops > bestFlops {
				best, bestFlops = i, t.Flops
			}
		}
		return best
	case "random":
		return st.rng.Intn(len(ready))
	default: // eager, dmda: priority then FIFO
		best := 0
		for i, t := range ready {
			if t.Priority > ready[best].Priority ||
				(t.Priority == ready[best].Priority && t.id < ready[best].id) {
				best = i
			}
		}
		return best
	}
}

// pickUnit chooses the unit for task t.
func (rt *Runtime) pickUnit(t *Task, st *simState, ready sim.Time) (*simUnit, error) {
	cands := st.compatibleUnits(t)
	if len(cands) == 0 {
		return nil, fmt.Errorf("taskrt: no unit can run codelet %q (impls %v; %d unit(s) blacklisted)",
			t.Codelet.Name, t.Codelet.Archs(), len(st.failedUnits))
	}
	switch rt.cfg.Scheduler {
	case "random":
		return cands[st.rng.Intn(len(cands))], nil
	case "ws":
		// Work stealing: tasks are dealt round-robin to per-unit queues at
		// submission; an idle unit steals when the owner is backed up. In
		// list-scheduling terms: run on the owner unless another compatible
		// unit would start strictly earlier.
		owner := cands[t.id%len(cands)]
		best := owner
		for _, su := range cands {
			if su.availAt() < best.availAt() {
				best = su
			}
		}
		if owner.availAt() <= best.availAt() || owner.availAt() <= ready {
			return owner, nil
		}
		return best, nil
	case "dmda", "heft":
		best := cands[0]
		bestEFT := st.estimateEFT(t, best, ready)
		for _, su := range cands[1:] {
			if eft := st.estimateEFT(t, su, ready); eft < bestEFT {
				best, bestEFT = su, eft
			}
		}
		return best, nil
	default: // eager: earliest-available compatible unit (central greedy queue)
		best := cands[0]
		for _, su := range cands[1:] {
			if su.availAt() < best.availAt() {
				best = su
			}
		}
		return best, nil
	}
}
