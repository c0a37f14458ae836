package taskrt

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/trace"
)

// errInjected is the cause of a failed attempt an injected fault killed. In
// real mode injected failures fire at task launch, before the kernel touches
// data, so retries operate on unmodified payloads.
var errInjected = fmt.Errorf("taskrt: injected fault")

// runReal executes the task graph on goroutine workers. Only implementations
// with a non-nil Func whose architecture matches a worker's architecture are
// eligible — real GPUs are not available, which is exactly why Sim mode
// exists. Each worker inherits the architecture of the platform Master it
// expands from (masters in declaration order, one worker per effective unit;
// an explicit Config.Workers override truncates or pads with the first
// master's architecture), so heterogeneous platforms run fast and slow
// kernel variants side by side.
//
// Dispatch is work-stealing by default: each worker owns a Chase-Lev deque,
// completions push newly-ready dependents onto the completing worker's own
// deque (the locality hint — the dependent's inputs are still hot in that
// worker's cache), and idle workers steal FIFO from victims. Scheduler
// "dmda" instead routes each push to the worker with the earliest
// model-predicted finish time (ChooseEFT) —
// perfmodel history per worker architecture plus interconnect-modelled
// transfer cost for operands not resident on the worker's memory node (one
// node per platform master, costs from the PDL's declared interconnects) —
// letting the steal path mop up mispredictions. The hot path is lock-free
// and batched: dependency counters and the pending count are atomics,
// dependents released by one completion enter the dispatcher through a
// single pushBatch (one semaphore round per batch), and per-worker
// statistics live in worker-owned state merged after shutdown — the
// engine's one mutex now guards only the failure slow path.
//
// With fault tolerance active (Config.Faults/Retry/Tracker) the engine
// additionally: honours injected worker faults from the FaultPlan (unit ids
// "worker0", "worker1", ...), retries failed tasks on other workers with
// capped exponential backoff, blacklists failed workers (re-admitting them
// after FaultEvent.RecoverAfter), and bounds every execution with a watchdog
// timeout derived from the perfmodel estimate so a hung kernel cannot
// deadlock Run. A blacklisted worker's deque stays stealable, so its queued
// tasks migrate to surviving workers. Retry backoff timers are registered
// and stopped on abort, so a failed run never leaves timers firing into a
// dead run. Without fault tolerance, the first codelet error aborts the run
// — the original fail-fast contract.
func (rt *Runtime) runReal() (*Report, error) {
	if len(rt.cfg.Platform.Masters) == 0 {
		return nil, fmt.Errorf("taskrt: platform has no master")
	}
	workers := rt.cfg.Workers
	if workers <= 0 {
		workers = 0
		for _, m := range rt.cfg.Platform.Masters {
			workers += m.EffectiveQuantity()
		}
	}
	if workers < 1 {
		workers = 1
	}
	nodes := workerMasters(rt.cfg.Platform, workers)
	archs := make([]string, workers)
	for w, mi := range nodes {
		archs[w] = rt.cfg.Platform.Masters[mi].Architecture()
	}

	// Pre-validate: every task must have a runnable implementation for every
	// worker architecture — eager and work-stealing dispatch route blindly,
	// so any worker may end up with any task.
	var distinct []string
	seenArch := map[string]bool{}
	for _, a := range archs {
		if !seenArch[a] {
			seenArch[a] = true
			distinct = append(distinct, a)
		}
	}
	for _, t := range rt.tasks {
		for _, a := range distinct {
			im := t.Codelet.ImplFor(a)
			if im == nil || im.Func == nil {
				return nil, fmt.Errorf("taskrt: codelet %q has no real implementation for worker arch %q", t.Codelet.Name, a)
			}
		}
	}

	ft := rt.ftEnabled()
	policy := rt.cfg.Retry.withDefaults()

	// Worker-owned hot state: no lock is ever taken to update it. The main
	// goroutine reads it only after wgWorkers.Wait().
	type workerState struct {
		arch      string
		busy      time.Duration
		count     int
		startedOn int // attempts started, drives AfterTasks fault triggers
		faults    *faultQueue
		// ready buffers the dependents one completion unblocks, so they reach
		// the dispatcher as a single batch. Worker-owned, reused across tasks.
		ready []*Task
	}
	ws := make([]workerState, workers)
	for w := 0; w < workers; w++ {
		ws[w].arch = archs[w]
		if evs := rt.cfg.Faults.forUnit(workerUnitID(w)); len(evs) > 0 {
			ws[w].faults = &faultQueue{events: evs}
		}
	}

	var disp dispatcher
	switch rt.cfg.Scheduler {
	case "dmda":
		// dmda is model-driven: without a caller-provided store it still
		// self-calibrates within the run (the engine records every execution
		// into Models below), so give it a private one rather than running
		// the whole graph on the cold/fallback paths.
		if rt.cfg.Models == nil {
			rt.cfg.Models = perfmodel.NewStore()
		}
		costs := interconnectCosts(rt.cfg.Platform)
		disp = newDmdaDispatcher(archs, nodes, costs, rt.tasks, rt.cfg.Models)
	default:
		disp = newStealDispatcher(workers, len(rt.tasks))
	}

	// Dependency counters and the unresolved-task count are atomics: the
	// completion hot path touches no lock.
	remaining := make([]atomic.Int32, len(rt.tasks))
	for i, t := range rt.tasks {
		remaining[i].Store(int32(len(t.deps)))
	}

	var (
		mu            sync.Mutex // guards the failure slow path below
		firstErr      error
		watchdogTrips = 0
		alive         = workers
		recovering    = 0
		blacklisted   = map[string]bool{}
		timers        = map[*time.Timer]struct{}{} // outstanding requeue timers

		failed  atomic.Bool
		pending atomic.Int64 // tasks not yet finally resolved
	)
	pending.Store(int64(len(rt.tasks)))
	done := make(chan struct{})  // closed when every task is resolved
	abort := make(chan struct{}) // closed on the first fatal error
	if len(rt.tasks) == 0 {
		close(done)
	}
	fail := func(err error) { // caller holds mu
		if firstErr == nil {
			firstErr = err
			failed.Store(true)
			close(abort)
			// Stop outstanding retry timers: nothing may fire into a dead run.
			for tm := range timers {
				tm.Stop()
			}
			clear(timers)
		}
	}
	resolve := func() { // one task reached a final state
		if pending.Add(-1) == 0 && !failed.Load() {
			close(done)
		}
	}
	release := func(worker int, t *Task) { // successful completion on worker
		buf := ws[worker].ready[:0]
		for _, dep := range t.dependents {
			if remaining[dep.id].Add(-1) == 0 {
				buf = append(buf, dep)
			}
		}
		ws[worker].ready = buf
		if len(buf) > 0 {
			disp.pushBatch(worker, buf)
		}
	}
	requeue := func(t *Task, after time.Duration) { // caller holds mu
		if firstErr != nil {
			return // aborting: the retry would fire into a dead run
		}
		var tm *time.Timer
		tm = time.AfterFunc(after, func() {
			mu.Lock()
			delete(timers, tm)
			dead := firstErr != nil
			mu.Unlock()
			if !dead {
				disp.push(-1, t)
			}
		})
		timers[tm] = struct{}{}
	}

	// Causal-span preparation: resolve every task's parent ids once, up
	// front, so the recording hot path copies a shared slice header instead
	// of walking t.deps under load.
	tracing := rt.cfg.Trace != nil
	var parents [][]int
	shardCap := 0
	if tracing {
		// One flat backing array for all parent lists: a single allocation
		// instead of one tiny slice per task.
		total := 0
		for _, t := range rt.tasks {
			total += len(t.deps)
		}
		backing := make([]int, 0, total)
		parents = make([][]int, len(rt.tasks))
		for _, t := range rt.tasks {
			if len(t.deps) == 0 {
				continue
			}
			off := len(backing)
			for _, d := range t.deps {
				backing = append(backing, d.id)
			}
			parents[t.id] = backing[off:len(backing):len(backing)]
		}
		// Bound each shard to the run's size (x2 for retry/steal/failure
		// events) rather than the 64k default, so a worker can never buffer
		// more than the run could have produced.
		shardCap = 2*len(rt.tasks) + 64
		if shardCap > trace.DefaultShardCapacity {
			shardCap = trace.DefaultShardCapacity
		}
		rt.cfg.Trace.SetMeta("workers", strconv.Itoa(workers))
	}

	start := time.Now()

	// dmda placement decisions are observable: the dispatcher records one
	// Place event per routed task directly into the trace (pushes happen on
	// whichever goroutine completed the parent, so no worker shard applies;
	// the push path already pays O(workers) scoring, one mutexed append is
	// in proportion).
	if dd, ok := disp.(*dmdaDispatcher); ok && tracing {
		tr := rt.cfg.Trace
		dd.onPlace = func(w int, t *Task, reason string, xferNanos int64) {
			now := time.Since(start).Seconds()
			tr.Record(trace.Event{
				Kind: trace.Place, Unit: workerUnitID(w), Worker: w,
				TaskID: t.id, Label: taskLabel(t),
				Start: now, End: now, From: reason,
				Transfer: float64(xferNanos) / 1e9,
				Attempt:  t.Attempt(),
			})
		}
	}

	// Seed the dispatcher with the dependency-free tasks, as one batch.
	seeds := make([]*Task, 0, len(rt.tasks))
	for i, t := range rt.tasks {
		if remaining[i].Load() == 0 {
			seeds = append(seeds, t)
		}
	}
	if len(seeds) > 0 {
		disp.pushBatch(-1, seeds)
	}

	// Queue-depth sampler: a low-rate observer feeding the taskrt_queue_depth
	// gauges while the run is live. Depth reads are racy snapshots (atomic
	// deque indices, channel length) and never touch the dispatch hot path.
	samplerStop := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		gauges := make([]*metrics.Gauge, workers)
		for w := range gauges {
			gauges[w] = rtm.queueDepth.With(workerUnitID(w))
		}
		injector := rtm.queueDepth.With("injector")
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-samplerStop:
				for _, g := range gauges {
					g.Set(0)
				}
				injector.Set(0)
				return
			case <-tick.C:
				for w, g := range gauges {
					g.Set(float64(disp.depth(w)))
				}
				injector.Set(float64(disp.depth(-1)))
			}
		}
	}()

	var wgWorkers sync.WaitGroup
	wgWorkers.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wgWorkers.Done()
			st := &ws[worker]
			unitID := workerUnitID(worker)
			hist := rtm.taskSeconds.With(unitID)
			blGauge := rtm.blacklisted.With(unitID)
			blGauge.Set(0)
			// Spans buffer into a worker-owned shard (lock-free appends) and
			// merge into the Trace when the worker exits.
			var sh *trace.Shard
			if tracing {
				sh = rt.cfg.Trace.NewShard(shardCap)
				defer sh.Flush()
			}
			// rec buffers one causal span. t is nil for unit-level events
			// (blacklist/recover), which carry no task identity.
			rec := func(kind trace.Kind, t *Task, attempt int, s, e time.Time, from string) {
				if sh == nil {
					return
				}
				ev := trace.Event{
					Kind: kind, Unit: unitID, Worker: worker, TaskID: trace.NoTask,
					Start: s.Sub(start).Seconds(), End: e.Sub(start).Seconds(),
					Attempt: attempt, From: from,
				}
				if t != nil {
					ev.Label = taskLabel(t)
					ev.TaskID = t.id
					ev.ParentIDs = parents[t.id]
				}
				sh.Record(ev)
			}
			// failAttempt is the one failed-attempt path, shared by injected
			// faults, codelet errors and watchdog trips. It records the
			// failure, fails the run fast without fault tolerance, counts
			// the attempt (giving up at MaxAttempts), requeues the task with
			// backoff and, when condemned, blacklists this worker;
			// recoverAfter > 0 marks the blacklisting transient. It reports
			// whether the worker may keep taking tasks.
			failAttempt := func(t *Task, attempt int, t0, detected time.Time, cause error, watchdog, condemned bool, recoverAfter float64) bool {
				rec(trace.Failure, t, attempt, t0, detected, "")
				mu.Lock()
				if !ft {
					// Fail fast: the original no-recovery contract.
					fail(fmt.Errorf("taskrt: task %q (%s): %w", t.Codelet.Name, t.Label, cause))
					mu.Unlock()
					resolve()
					return false
				}
				if watchdog {
					watchdogTrips++
				}
				n, err := policy.CountFailure(t, unitID, cause)
				if err != nil {
					fail(err)
					mu.Unlock()
					resolve()
					return false
				}
				backoff := policy.backoffDuration(n)
				requeue(t, backoff)
				if condemned {
					// Other workers keep draining: this worker's deque
					// remains stealable.
					blacklisted[unitID] = true
					alive--
					if recoverAfter > 0 {
						recovering++
					}
					if alive == 0 && recovering == 0 && pending.Load() > 0 {
						fail(fmt.Errorf("taskrt: all %d workers blacklisted with %d task(s) pending", workers, pending.Load()))
					}
				}
				mu.Unlock()
				if condemned {
					blGauge.Set(1)
					disp.setOffline(worker, true)
					now := time.Now()
					rec(trace.Blacklist, nil, 0, now, now, "")
					if rt.cfg.Tracker != nil {
						_ = rt.cfg.Tracker.SetOffline(unitID) // best effort: tracker may not know worker ids
					}
				}
				rec(trace.Retry, t, n, detected, detected.Add(backoff), "")
				return !condemned
			}
			for {
				if !disp.acquire(done, abort) {
					return
				}
				t, victim := disp.take(worker, abort)
				if t == nil {
					if victim == takeRetry {
						continue // credit handed back; re-acquire
					}
					return // aborted mid-sweep
				}
				attempt := t.Attempt()
				if victim >= 0 {
					now := time.Now()
					rec(trace.Steal, t, attempt, now, now, workerUnitID(victim))
				}

				// Injected fault check: fires before the kernel runs, so
				// payloads stay untouched and the retry is safe. Worker-owned
				// state: no lock.
				st.startedOn++
				var inj *FaultEvent
				if ft && st.faults != nil {
					if f := st.faults.pending(); f != nil {
						if (f.AfterTasks > 0 && st.startedOn >= f.AfterTasks) ||
							(f.AtTime > 0 && time.Since(start).Seconds() >= f.AtTime) {
							st.faults.consume()
							inj = f
						}
					}
				}

				if inj != nil {
					t0 := time.Now()
					if inj.Hang {
						// A hung launch: the watchdog converts it into a
						// failure after the timeout.
						d := rt.taskTimeout(t, st.arch, policy)
						if d <= 0 {
							d = policy.backoffDuration(policy.MaxAttempts) // bounded stand-in
						}
						select {
						case <-time.After(d):
						case <-abort:
							return
						}
					}
					// The kernel never ran: release the dispatcher's
					// outstanding-work charge without skewing observed means.
					disp.finished(worker, t, 0, false)
					failAttempt(t, attempt, t0, time.Now(), errInjected, inj.Hang, true, inj.RecoverAfter)
					if inj.RecoverAfter <= 0 {
						return // permanently dead
					}
					select { // a run that gave up has closed abort
					case <-time.After(time.Duration(inj.RecoverAfter * float64(time.Second))):
					case <-abort:
						return
					}
					mu.Lock()
					delete(blacklisted, unitID)
					alive++
					recovering--
					mu.Unlock()
					blGauge.Set(0)
					disp.setOffline(worker, false)
					now := time.Now()
					rec(trace.Recover, nil, 0, now, now, "")
					if rt.cfg.Tracker != nil {
						_ = rt.cfg.Tracker.SetOnline(unitID)
					}
					continue
				}

				im := t.Codelet.ImplFor(st.arch)
				tc := &TaskContext{WorkerID: worker, Arch: st.arch, Task: t}
				for _, a := range t.Accesses {
					tc.Data = append(tc.Data, a.Handle.Payload)
				}
				t0 := time.Now()
				var err error
				wdog := false
				if timeout := rt.taskTimeout(t, st.arch, policy); ft && timeout > 0 {
					// Watchdog: run the kernel aside and abandon it past the
					// timeout (goroutines cannot be killed; the stuck kernel
					// is orphaned and its worker blacklisted).
					res := make(chan error, 1)
					go func() { res <- im.Func(tc) }()
					select {
					case err = <-res:
					case <-time.After(timeout):
						err = fmt.Errorf("taskrt: watchdog: task %q (%s) exceeded %v on %s",
							t.Codelet.Name, t.Label, timeout, unitID)
						wdog = true
					}
				} else {
					err = im.Func(tc)
				}
				d := time.Since(t0)
				disp.finished(worker, t, d, true)
				st.busy += d
				if err == nil {
					rec(trace.Task, t, attempt, t0, t0.Add(d), "")
					hist.Observe(d.Seconds())
					if rt.cfg.Models != nil && t.Flops > 0 && d > 0 {
						_ = rt.cfg.Models.Model(t.Codelet.Name, st.arch).Record(t.Flops, d.Seconds())
					}
					st.count++
					release(worker, t)
					resolve()
					continue
				}
				// A hung kernel condemns its worker: the unit cannot be
				// trusted (the orphaned goroutine may still hold it).
				if !failAttempt(t, attempt, t0, t0.Add(d), err, wdog, wdog, 0) {
					return
				}
			}
		}(w)
	}

	select {
	case <-done:
	case <-abort:
	}
	elapsed := time.Since(start)
	wgWorkers.Wait() // let in-flight attempts finish before reading stats
	close(samplerStop)
	samplerWG.Wait()

	mu.Lock()
	defer mu.Unlock()
	if firstErr != nil {
		return nil, firstErr
	}
	rep := &Report{
		Mode:            Real,
		Scheduler:       rt.cfg.Scheduler,
		Tasks:           len(rt.tasks),
		MakespanSeconds: elapsed.Seconds(),
		WatchdogTrips:   watchdogTrips,
	}
	rep.FailedAttempts, rep.RetriedTasks = FailureCounts(rt.tasks)
	for id := range blacklisted {
		rep.Blacklisted = append(rep.Blacklisted, id)
	}
	sort.Strings(rep.Blacklisted)
	for w := 0; w < workers; w++ {
		steals := disp.stolen(w)
		rep.Steals += steals
		rep.PerUnit = append(rep.PerUnit, UnitStats{
			ID:          workerUnitID(w),
			Arch:        ws[w].arch,
			Tasks:       ws[w].count,
			BusySeconds: ws[w].busy.Seconds(),
			Steals:      steals,
		})
	}
	return rep, nil
}

// workerMasters expands the platform masters into real-mode workers: masters
// in declaration order each contribute EffectiveQuantity workers, and an
// explicit Config.Workers override truncates the expansion or pads it with
// the first master. It returns each worker's master index, which is also its
// memory node and selects its architecture.
func workerMasters(pl *core.Platform, workers int) []int {
	nodes := make([]int, 0, workers)
	for mi, m := range pl.Masters {
		for i := 0; i < m.EffectiveQuantity() && len(nodes) < workers; i++ {
			nodes = append(nodes, mi)
		}
	}
	for len(nodes) < workers {
		nodes = append(nodes, 0)
	}
	return nodes
}

// interconnectCosts models the PDL-declared transfer cost between every pair
// of master memory nodes: core.Platform.RouteCost over the shortest declared
// route. Node pairs with no declared route cost zero — platforms that
// declare no interconnects get exactly the transfer-blind dmda behaviour
// they had before.
func interconnectCosts(pl *core.Platform) [][]xferCost {
	costs := make([][]xferCost, len(pl.Masters))
	for i := range costs {
		costs[i] = make([]xferCost, len(pl.Masters))
		for j := range costs[i] {
			if lat, perByte, err := pl.RouteCost(pl.Masters[i].ID, pl.Masters[j].ID); err == nil {
				costs[i][j] = xferCost{latNanos: lat * 1e9, nanosPerByte: perByte * 1e9}
			}
		}
	}
	return costs
}

// taskTimeout derives the real-mode watchdog timeout for a task: perfmodel
// estimate × WatchdogFactor when history exists, else the absolute
// RetryPolicy.TaskTimeout (0 = no watchdog).
func (rt *Runtime) taskTimeout(t *Task, arch string, policy RetryPolicy) time.Duration {
	if rt.cfg.Models != nil && t.Flops > 0 {
		if est, ok := rt.cfg.Models.Model(t.Codelet.Name, arch).Estimate(t.Flops); ok {
			return time.Duration(est * policy.WatchdogFactor * float64(time.Second))
		}
	}
	if policy.TaskTimeout > 0 {
		return time.Duration(policy.TaskTimeout * float64(time.Second))
	}
	return 0
}
