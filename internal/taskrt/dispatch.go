package taskrt

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/perfmodel"
)

// creditSem is the counting semaphore behind every dispatcher's credit
// discipline. The old implementation deposited one token on a buffered
// channel per push and received one per take — two channel operations on
// every task even when the consumer was already running. Here the count
// lives in an atomic: release adds, acquire subtracts, and the wake channel
// is only touched when a worker actually has to sleep (credits went
// negative). In steady state — workers busy, queues non-empty — push and
// take cost one atomic add each and no channel traffic, and releasing a
// batch of n credits is a single add.
//
// Invariant: credits counts available tasks minus waiting workers. A
// negative value is the number of parked (or about-to-park) workers, so
// release hands exactly that many wake tokens.
type creditSem struct {
	credits atomic.Int64
	wake    chan struct{} // struct{} buffer: capacity costs no memory
}

func newCreditSem(capacity int) *creditSem {
	// Capacity bounds simultaneous sleepers + pending wakes: workers plus
	// every task that could be released while all workers are parked.
	return &creditSem{wake: make(chan struct{}, capacity)}
}

// release deposits n credits, waking as many parked workers as the deposit
// covers.
func (s *creditSem) release(n int) {
	if n <= 0 {
		return
	}
	before := s.credits.Add(int64(n)) - int64(n)
	if before < 0 {
		wake := int64(n)
		if -before < wake {
			wake = -before
		}
		for i := int64(0); i < wake; i++ {
			s.wake <- struct{}{}
		}
	}
}

// acquire obtains one credit, blocking until a task is available. It
// returns false when done or abort closes first — the run is over.
func (s *creditSem) acquire(done, abort <-chan struct{}) bool {
	if s.credits.Add(-1) >= 0 {
		return true // fast path: a task was already available
	}
	select {
	case <-s.wake:
		return true
	case <-done:
		return false
	case <-abort:
		return false
	}
}

// dispatcher abstracts how ready tasks reach real-engine workers. All
// implementations share a credit discipline: push enqueues the task and then
// releases one credit on the semaphore; a worker first acquires a credit (or
// learns the run is over) and only then calls take, which is guaranteed to
// find a task somewhere. The invariant "queued tasks >= outstanding acquired
// credits" holds because every push adds exactly one task and one credit, and
// every acquired credit removes exactly one task. pushBatch amortises the
// synchronisation: one queue pass and one semaphore release for the whole
// batch.
//
//   - stealDispatcher gives each worker a Chase-Lev deque plus one shared
//     injector for pushes from outside the pool. A worker that completes a
//     task pushes newly-ready dependents onto its own deque and pops them
//     back LIFO — the locality hint: dependents run on the worker that just
//     produced their inputs, with their data still cache-hot. Idle workers
//     first drain the injector, then steal FIFO from victims.
//   - dmdaDispatcher routes every push to the worker with the earliest
//     model-predicted finish time (StarPU's dmda policy on the real engine),
//     charging interconnect-modelled data-transfer time for handles that are
//     not resident on the candidate's memory node. See the type comment.
type dispatcher interface {
	// push makes t runnable. from identifies the pushing worker so the task
	// can land on its own deque; from < 0 marks pushes from outside the pool
	// (initial seeding, requeue timers), which go to the shared injector.
	push(from int, t *Task)
	// pushBatch makes every task in ts runnable with one synchronisation
	// round: tasks are enqueued first, then the batch's credits are released
	// together. The slice is not retained — callers may reuse it.
	pushBatch(from int, ts []*Task)
	// acquire obtains one task credit, blocking until one is available or
	// the run ends (done) or aborts. After a true return, take is guaranteed
	// to find a task.
	acquire(done, abort <-chan struct{}) bool
	// take returns a task for worker w after a credit was acquired. It
	// returns nil with victim -1 when abort closes mid-sweep, and nil with
	// victim takeRetry when the dispatcher handed the worker's credit back
	// (every available task is better left where it is) — the caller must
	// loop to acquire. Otherwise the second result is the victim worker
	// the task was stolen from, or -1 when it came from the worker's own
	// queue or the shared pool — steal provenance for traces.
	take(w int, abort <-chan struct{}) (*Task, int)
	// stolen reports how many tasks worker w has obtained by stealing.
	stolen(w int) int
	// depth approximates worker w's queue length (w < 0: the shared queue).
	// A racy snapshot for the metrics sampler, never for control flow.
	depth(w int) int
	// finished tells the dispatcher worker w is done with t (success or
	// failure), releasing any outstanding-work accounting. ran is false when
	// the attempt never executed the kernel (injected fault at launch), so
	// observed-time statistics stay honest.
	finished(w int, t *Task, d time.Duration, ran bool)
	// setOffline tells the dispatcher the fault-tolerance layer blacklisted
	// (or re-admitted) worker w. Dispatchers that route at push time keep
	// placements away from offline workers; queues of offline workers stay
	// stealable either way.
	setOffline(w int, offline bool)
}

// takeRetry is the sentinel victim index a dispatcher's take returns (with a
// nil task) after handing the worker's credit back to the semaphore: the
// worker must loop through acquire rather than treat the nil as an abort.
const takeRetry = -2

// stealDispatcher: per-worker Chase-Lev deques, a shared injector, and
// per-worker steal counters (owner-written, merged after shutdown).
type stealDispatcher struct {
	deques []*wsDeque
	steals []int64

	injMu sync.Mutex
	inj   []*Task
	sem   *creditSem
}

func newStealDispatcher(workers, tasks int) *stealDispatcher {
	d := &stealDispatcher{
		deques: make([]*wsDeque, workers),
		steals: make([]int64, workers),
		sem:    newCreditSem(workers + tasks),
	}
	for w := range d.deques {
		d.deques[w] = newWSDeque(tasks)
	}
	return d
}

func (d *stealDispatcher) push(from int, t *Task) {
	if from >= 0 {
		d.deques[from].push(t)
	} else {
		d.injMu.Lock()
		d.inj = append(d.inj, t)
		d.injMu.Unlock()
	}
	d.sem.release(1)
}

func (d *stealDispatcher) pushBatch(from int, ts []*Task) {
	if from >= 0 {
		for _, t := range ts {
			d.deques[from].push(t)
		}
	} else {
		d.injMu.Lock()
		d.inj = append(d.inj, ts...)
		d.injMu.Unlock()
	}
	d.sem.release(len(ts))
}

func (d *stealDispatcher) acquire(done, abort <-chan struct{}) bool {
	return d.sem.acquire(done, abort)
}

// popInjector removes the oldest injected task.
func (d *stealDispatcher) popInjector() *Task {
	d.injMu.Lock()
	defer d.injMu.Unlock()
	if len(d.inj) == 0 {
		return nil
	}
	t := d.inj[0]
	d.inj = d.inj[1:]
	return t
}

func (d *stealDispatcher) take(w int, abort <-chan struct{}) (*Task, int) {
	for {
		if t := d.deques[w].pop(); t != nil {
			return t, -1
		}
		if t := d.popInjector(); t != nil {
			return t, -1
		}
		// Steal sweep, starting at the next worker so victims differ across
		// thieves. Blacklisted workers' deques stay stealable, so a dying
		// worker never strands its queued tasks.
		for i := 1; i < len(d.deques); i++ {
			victim := (w + i) % len(d.deques)
			if t := d.deques[victim].steal(); t != nil {
				d.steals[w]++
				return t, victim
			}
		}
		// The credit guarantees a task exists; we only get here on transient
		// races (a concurrent pop/steal between our scans). Yield and rescan
		// unless the run is aborting.
		select {
		case <-abort:
			return nil, -1
		default:
		}
		runtime.Gosched()
	}
}

func (d *stealDispatcher) stolen(w int) int { return int(d.steals[w]) }

func (d *stealDispatcher) finished(int, *Task, time.Duration, bool) {}

// setOffline is a no-op: workers take tasks themselves, and a blacklisted
// worker has stopped taking them.
func (d *stealDispatcher) setOffline(int, bool) {}

func (d *stealDispatcher) depth(w int) int {
	if w >= 0 {
		return d.deques[w].size()
	}
	d.injMu.Lock()
	defer d.injMu.Unlock()
	return len(d.inj)
}

// maxNodes bounds the memory-node count the data-aware machinery handles:
// handle residency is a 64-bit bitmask (one bit per platform master).
// Platforms with more masters than bits fall back to transfer-blind dmda.
const maxNodes = 64

// xferCost is the modelled cost of moving bytes between two memory nodes:
// total latency plus inverse bandwidth, summed over the PDL-declared route.
type xferCost struct {
	latNanos     float64
	nanosPerByte float64
}

// predSnap caches one (codelet, arch, size) perfmodel estimate together with
// the model version it was computed at. Placement revalidates with two loads
// (version + flops) and recomputes only after a Record bumped the version.
type predSnap struct {
	version int64
	flops   float64
	nanos   int64
	ok      bool
}

// predEntry is the per-codelet estimate cache, indexed by distinct-arch
// slot. It is built once per run (construction walks the task set, the only
// map access on the dmda path) and shared by every task of the codelet, so a
// steady-state placement decision touches no maps and takes no locks.
type predEntry struct {
	models []*perfmodel.Model
	snaps  []atomic.Pointer[predSnap]
}

// dmdaWorker is one worker's routing state under the dmda dispatcher. The
// queue is the same Chase-Lev deque the ws dispatcher uses, with the roles
// flipped: arbitrary producers push at the bottom serialised by pushMu,
// the owner consumes oldest-first through the lock-free top end (steal —
// placement order, matching the EFT accounting), and thieves take the
// newest task at the bottom (pop) under the victim's pushMu. All bottom-end
// operations are mutex-serialised, so the single-owner requirement of the
// Chase-Lev protocol holds; the top end keeps its usual CAS race handling.
type dmdaWorker struct {
	pushMu sync.Mutex
	q      *wsDeque

	arch    string
	archIdx int // index into the dispatcher's distinct-arch tables
	node    int // memory node (platform master index) this worker lives on
	offline atomic.Bool
	// outstanding is the predicted nanoseconds of work queued on or running
	// on this worker — the queued-work term of the EFT score.
	outstanding atomic.Int64
	// busyNanos/completed feed the observed-mean fallback estimate.
	busyNanos atomic.Int64
	completed atomic.Int64
	steals    atomic.Int64

	// stallDone/stallSince arm the steal-force valve. They track, across
	// take calls, when this worker's sweeps started being declined with no
	// pool-wide completion progress since. Owner-goroutine state: no
	// atomics needed.
	stallDone  int64
	stallSince time.Time
}

// dmdaDispatcher implements StarPU's dmda (deque model, data aware) policy
// on the real engine: push scores every online worker through ChooseEFT —
// outstanding backlog, plus the predicted execution time of the task on
// that worker's architecture, plus the modelled time to move any
// non-resident read operands onto that worker's memory node — and routes
// the task to the minimum. Residency is tracked per handle as a
// bitmask of memory nodes: a write moves the handle to the writer's node, a
// placement marks the chosen node resident ahead of dequeue (the prefetch
// hint — later siblings reading the same handle see the transfer already
// paid and co-locate). Predictions follow Bid.estimate's chain, with the
// perfmodel estimate for (codelet, arch) cached per codelet. Workers whose own
// queue runs dry steal from victims, so a misprediction costs a steal (and
// its transfer charge) rather than idle time.
type dmdaDispatcher struct {
	workers []dmdaWorker
	sem     *creditSem
	rr      atomic.Int64 // rotation cursor: varies tie-breaks across pushes

	// Data-awareness tables, fixed at construction. costs[i][j] models a
	// transfer from node i to node j; dataAware is false when the platform
	// declares no routes (or has >maxNodes masters), which zeroes the
	// transfer term and skips residency upkeep entirely.
	dataAware bool
	nodes     int
	costs     [][]xferCost

	// Pool-wide observed totals for the cold estimate.
	totBusy      atomic.Int64
	totCompleted atomic.Int64

	// Cached decision counters (taskrt_sched_decisions_total{policy="dmda"}).
	decModel, decFallback, decCold *metrics.Counter
	prefetches                     *metrics.Counter
	xferSeconds                    *metrics.Counter
	// onPlace, when non-nil, observes every placement (trace recording).
	// xferNanos is the modelled transfer time folded into the decision.
	onPlace func(w int, t *Task, reason string, xferNanos int64)
}

// newDmdaDispatcher builds the routing state: per-worker deques sized for
// the whole task set, the distinct-arch table, the node transfer-cost
// matrix, and the per-codelet estimate caches (tasks' pred fields are
// assigned here — the only map lookups on the dmda path happen now).
func newDmdaDispatcher(archs []string, nodes []int, costs [][]xferCost, tasks []*Task, models *perfmodel.Store) *dmdaDispatcher {
	d := &dmdaDispatcher{
		workers:     make([]dmdaWorker, len(archs)),
		sem:         newCreditSem(len(archs) + len(tasks)),
		nodes:       len(costs),
		costs:       costs,
		decModel:    rtm.schedDecisions.With("dmda", PlaceModel),
		decFallback: rtm.schedDecisions.With("dmda", PlaceFallback),
		decCold:     rtm.schedDecisions.With("dmda", PlaceCold),
		prefetches:  rtm.prefetches,
		xferSeconds: rtm.schedTransfer,
	}
	for i := range costs {
		for j := range costs[i] {
			if i != j && (costs[i][j].latNanos > 0 || costs[i][j].nanosPerByte > 0) {
				d.dataAware = true
			}
		}
	}
	if d.nodes > maxNodes {
		d.dataAware = false
	}
	distinct := make([]string, 0, 4)
	slot := make(map[string]int, 4)
	for w := range d.workers {
		wk := &d.workers[w]
		wk.arch = archs[w]
		if w < len(nodes) {
			wk.node = nodes[w]
		}
		ai, ok := slot[archs[w]]
		if !ok {
			ai = len(distinct)
			slot[archs[w]] = ai
			distinct = append(distinct, archs[w])
		}
		wk.archIdx = ai
		wk.q = newWSDeque(len(tasks))
		wk.stallDone = -1
	}
	byCodelet := make(map[*Codelet]*predEntry)
	for _, t := range tasks {
		if t.Flops <= 0 || models == nil {
			continue
		}
		pe := byCodelet[t.Codelet]
		if pe == nil {
			pe = &predEntry{
				models: make([]*perfmodel.Model, len(distinct)),
				snaps:  make([]atomic.Pointer[predSnap], len(distinct)),
			}
			for ai, arch := range distinct {
				pe.models[ai] = models.Model(t.Codelet.Name, arch)
			}
			byCodelet[t.Codelet] = pe
		}
		t.pred = pe
	}
	return d
}

// bid describes worker w to ChooseEFT for t, without the transfer term.
// The model path is lock-free in steady state: the cached snapshot is valid
// until a Record bumps the model version.
func (d *dmdaDispatcher) bid(t *Task, w int) Bid {
	wk := &d.workers[w]
	b := Bid{Backlog: float64(wk.outstanding.Load()), Penalty: 1}
	if pe := t.pred; pe != nil {
		ai := wk.archIdx
		v := pe.models[ai].Version()
		s := pe.snaps[ai].Load()
		if s == nil || s.version != v || s.flops != t.Flops {
			sec, ok := pe.models[ai].Estimate(t.Flops)
			s = &predSnap{version: v, flops: t.Flops, nanos: int64(sec * 1e9), ok: ok}
			pe.snaps[ai].Store(s)
		}
		b.Model, b.ModelOK = float64(s.nanos), s.ok
	}
	if n := wk.completed.Load(); n > 0 {
		b.Mean, b.Samples = float64(wk.busyNanos.Load()/n), n
	}
	return b
}

// poolMean is the pool-wide observed mean task time (0 before any
// completion), the estimate of a cold worker.
func (d *dmdaDispatcher) poolMean() float64 {
	if n := d.totCompleted.Load(); n > 0 {
		return float64(d.totBusy.Load() / n)
	}
	return 0
}

// estimate predicts t's execution time on worker w in nanoseconds, tagged
// with the prediction source (Bid.estimate's chain).
func (d *dmdaDispatcher) estimate(t *Task, w int) (nanos int64, source string) {
	b := d.bid(t, w)
	est, src := b.estimate(d.poolMean())
	return int64(est), src
}

// transferToNode models the nanoseconds needed to make t's read operands
// resident on the given memory node: for each handle not already resident
// there, the cheapest declared route from any node that holds it.
func (d *dmdaDispatcher) transferToNode(t *Task, node int) int64 {
	var total int64
	for _, a := range t.Accesses {
		h := a.Handle
		if !a.Mode.Reads() || h.Bytes <= 0 {
			continue
		}
		mask := h.residentMask()
		if mask&(1<<uint(node)) != 0 {
			continue
		}
		best := int64(-1)
		for src := 0; src < d.nodes; src++ {
			if mask&(1<<uint(src)) == 0 {
				continue
			}
			c := &d.costs[src][node]
			cost := int64(c.latNanos + c.nanosPerByte*float64(h.Bytes))
			if best < 0 || cost < best {
				best = cost
			}
		}
		if best > 0 {
			total += best
		}
	}
	return total
}

// choose places t through ChooseEFT and returns the winner, the decision
// source, the predicted nanoseconds charged to its backlog (execution +
// transfer), and the transfer component alone. It allocates nothing: the
// per-node transfer costs live in a stack array and the estimate cache
// replaces per-worker map-and-lock lookups.
func (d *dmdaDispatcher) choose(t *Task) (w int, source string, charge, xfer int64) {
	var xferByNode [maxNodes]int64
	if d.dataAware && len(t.Accesses) > 0 {
		for n := 0; n < d.nodes; n++ {
			xferByNode[n] = d.transferToNode(t, n)
		}
	}
	start := int(d.rr.Add(1)-1) % len(d.workers)
	c, ok := ChooseEFT(len(d.workers), start, t.Priority, d.poolMean(), func(i int) (Bid, bool) {
		wk := &d.workers[i]
		if wk.offline.Load() {
			return Bid{}, false
		}
		b := d.bid(t, i)
		b.Transfer = float64(xferByNode[wk.node])
		return b, true
	})
	if !ok {
		// Every worker offline: place round-robin anyway — the queue stays
		// stealable, and the engine aborts if no worker can ever recover.
		est, src := d.estimate(t, start)
		return start, src, est, 0
	}
	return c.Index, c.Source, int64(c.Exec + c.Transfer), int64(c.Transfer)
}

// place routes one task: score, charge, mark residency (the prefetch hint),
// enqueue. The semaphore release is left to push/pushBatch so a batch pays
// for it once.
func (d *dmdaDispatcher) place(t *Task) {
	w, reason, charge, xfer := d.choose(t)
	switch reason {
	case PlaceModel:
		d.decModel.Inc()
	case PlaceFallback:
		d.decFallback.Inc()
	default:
		d.decCold.Inc()
	}
	t.estNanos = charge
	wk := &d.workers[w]
	wk.outstanding.Add(charge)
	if d.dataAware {
		for _, a := range t.Accesses {
			if a.Mode.Reads() && a.Handle.markResident(wk.node) {
				d.prefetches.Inc()
			}
		}
		if xfer > 0 {
			d.xferSeconds.Add(float64(xfer) / 1e9)
		}
	}
	wk.pushMu.Lock()
	wk.q.push(t)
	wk.pushMu.Unlock()
	if d.onPlace != nil {
		d.onPlace(w, t, reason, xfer)
	}
}

func (d *dmdaDispatcher) push(from int, t *Task) {
	d.place(t)
	d.sem.release(1)
}

func (d *dmdaDispatcher) pushBatch(from int, ts []*Task) {
	// Place higher-priority tasks first: a batch release happens whenever a
	// finishing task readies several dependents at once, and placement order
	// is consumption order on an uncontended worker (the deque serves
	// oldest-placed first). Submitters mark the critical chain with higher
	// priorities (e.g. POTRF over trailing GEMMs), so the chain task lands
	// ahead of the bulk updates instead of behind them. The slice is copied:
	// pushBatch must not retain or reorder the caller's batch.
	for i := 1; i < len(ts); i++ {
		if ts[i].Priority != ts[0].Priority {
			ordered := append([]*Task(nil), ts...)
			sort.SliceStable(ordered, func(a, b int) bool { return ordered[a].Priority > ordered[b].Priority })
			ts = ordered
			break
		}
	}
	for _, t := range ts {
		d.place(t)
	}
	d.sem.release(len(ts))
}

func (d *dmdaDispatcher) acquire(done, abort <-chan struct{}) bool {
	return d.sem.acquire(done, abort)
}

// dmdaStealBackoff is how long a thief sleeps after handing its credit back
// at the end of a sweep in which every stealable task was declined as
// EFT-unfavorable: the work is better left where the model placed it, and
// the sleep gives the rightful owner — just woken by the returned credit —
// the CPU to go collect it instead of racing the thief for the credit.
const dmdaStealBackoff = 50 * time.Microsecond

// dmdaStealForceAfter is the liveness valve of the EFT-aware steal
// throttle: when a worker's sweeps keep being declined while the whole pool
// completes nothing for this long, the placement model is presumed wrong
// (the victim is hung, offline, or far slower than predicted) and the next
// sweep steals unconditionally.
const dmdaStealForceAfter = 10 * time.Millisecond

// stealFrom takes the newest task from the victim's queue (the one that
// would have waited longest behind the victim's backlog) and transfers its
// outstanding-work charge to the thief at the thief's own estimate plus the
// transfer cost of moving the task's operands to the thief's node.
//
// The steal is EFT-aware unless forced: dmda's placement already routed the
// task to the best expected finish time, so a thief only improves matters
// when it would finish the task sooner than the victim clears its whole
// backlog. Otherwise — the classic failure being a slow architecture
// picking at a fast worker's queue and dragging a near-critical task onto a
// unit ten times worse at it — the task goes back and the thief reports a
// decline instead. The second result distinguishes "declined" (work exists
// but is better off where it is) from "queue empty".
func (d *dmdaDispatcher) stealFrom(thief, victim int, force bool) (*Task, bool) {
	vk := &d.workers[victim]
	tk := &d.workers[thief]
	vk.pushMu.Lock()
	t := vk.q.pop()
	if t == nil {
		vk.pushMu.Unlock()
		return nil, false
	}
	est, _ := d.estimate(t, thief)
	if d.dataAware && len(t.Accesses) > 0 {
		est += d.transferToNode(t, tk.node)
	}
	if !force && tk.outstanding.Load()+est >= vk.outstanding.Load() {
		// The victim finishes its backlog (which ends with t — pop takes
		// the newest placement) before the thief could finish t alone:
		// put it back where the model wanted it.
		vk.q.push(t)
		vk.pushMu.Unlock()
		return nil, true
	}
	vk.pushMu.Unlock()
	vk.outstanding.Add(-t.estNanos)
	if d.dataAware && len(t.Accesses) > 0 {
		for _, a := range t.Accesses {
			if a.Mode.Reads() && a.Handle.markResident(tk.node) {
				d.prefetches.Inc()
			}
		}
	}
	t.estNanos = est
	tk.outstanding.Add(est)
	return t, false
}

// take serves worker w's acquired credit: own queue first (oldest placement
// first), then a steal sweep over the other workers. When every available
// task is declined as EFT-unfavorable, the credit does not belong to this
// worker — the task it stands for sits on a queue whose owner may be parked
// WITHOUT a credit (the global semaphore does not route credits to the
// worker the placement chose). The thief hands the credit back with
// release(1), which wakes the parked owner, naps briefly so the owner runs
// first, and returns takeRetry so the engine loops through acquire again.
func (d *dmdaDispatcher) take(w int, abort <-chan struct{}) (*Task, int) {
	wk := &d.workers[w]
	for {
		// Own queue first, oldest placement first (lock-free top end).
		if t := wk.q.steal(); t != nil {
			wk.stallDone = -1
			return t, -1
		}
		force := wk.stallDone >= 0 && wk.stallDone == d.totCompleted.Load() &&
			time.Since(wk.stallSince) > dmdaStealForceAfter
		declined := false
		for i := 1; i < len(d.workers); i++ {
			victim := (w + i) % len(d.workers)
			t, unfav := d.stealFrom(w, victim, force)
			if t != nil {
				wk.steals.Add(1)
				wk.stallDone = -1
				return t, victim
			}
			declined = declined || unfav
		}
		select {
		case <-abort:
			return nil, -1
		default:
		}
		if !declined {
			// Every queue was empty: the credit's task is mid-flight through
			// another worker's decline-and-put-back window. Spin, it is
			// about to reappear.
			wk.stallDone = -1
			runtime.Gosched()
			continue
		}
		if done := d.totCompleted.Load(); done != wk.stallDone {
			wk.stallDone, wk.stallSince = done, time.Now()
		}
		d.sem.release(1)
		time.Sleep(dmdaStealBackoff)
		return nil, takeRetry
	}
}

func (d *dmdaDispatcher) stolen(w int) int { return int(d.workers[w].steals.Load()) }

func (d *dmdaDispatcher) depth(w int) int {
	if w < 0 {
		return 0 // every push is routed; there is no shared queue
	}
	return d.workers[w].q.size()
}

func (d *dmdaDispatcher) finished(w int, t *Task, dur time.Duration, ran bool) {
	wk := &d.workers[w]
	wk.outstanding.Add(-t.estNanos)
	if !ran {
		return
	}
	wk.busyNanos.Add(int64(dur))
	wk.completed.Add(1)
	d.totBusy.Add(int64(dur))
	d.totCompleted.Add(1)
	if d.dataAware {
		// A write moves the handle: it is now resident only where it was
		// produced. (Skipped when the kernel never ran — data unchanged.)
		for _, a := range t.Accesses {
			if a.Mode.Writes() {
				a.Handle.setResidentOnly(wk.node)
			}
		}
	}
}

func (d *dmdaDispatcher) setOffline(w int, offline bool) {
	d.workers[w].offline.Store(offline)
}
