package taskrt

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// FaultEvent is one injected processing-unit failure. Exactly one trigger
// must be set: AtTime (the unit dies at that virtual/wall time) or
// AfterTasks (the unit dies on its Nth task attempt, 1-based).
//
// Unit names differ per engine: the simulated engine uses expanded simhw
// unit ids ("dev0", "host.3"); the real engine uses worker ids ("worker0").
// Events naming unknown units are inert.
type FaultEvent struct {
	// Unit identifies the failing processing unit.
	Unit string
	// AtTime, when > 0, fails the unit at this time: virtual seconds in Sim
	// mode, wall-clock seconds since Run start in Real mode. In Sim mode the
	// failure manifests on the first task whose execution on the unit would
	// reach past AtTime; in Real mode it manifests on the first task the
	// worker picks up after AtTime has elapsed.
	AtTime float64
	// AfterTasks, when > 0, fails the unit on its Nth task attempt
	// (1-based). In Sim mode the kernel crashes halfway through; in Real
	// mode the attempt fails at launch, before the kernel touches data.
	AfterTasks int
	// Hang makes the failure manifest as a hung kernel instead of a crash:
	// detection is delayed until the watchdog timeout (perfmodel estimate ×
	// RetryPolicy.WatchdogFactor) expires, so hangs cost more than crashes
	// but can never deadlock Run.
	Hang bool
	// RecoverAfter, when > 0, brings the unit back online this many seconds
	// after failure detection (a transient fault). Zero means the unit is
	// blacklisted for the rest of the run.
	RecoverAfter float64
	// Delay, when > 0, turns the event into a slowdown injection instead of
	// a failure: the unit stays correct but every kernel takes Delay extra
	// seconds — the gray failure a straggler detector exists to catch. Only
	// the cluster worker (whose Unit is the node name) applies delays; the
	// in-process engines ignore them. Triggers are optional gates here: an
	// untriggered delay is active from the start, AtTime activates it after
	// that many wall-clock seconds, AfterTasks from the Nth execution on.
	Delay float64
}

// FaultPlan is a deterministic schedule of injected failures. For a fixed
// plan (and runtime seed) a simulated execution is bit-for-bit reproducible,
// which is what makes fault-tolerance behaviour testable.
type FaultPlan struct {
	// Seed identifies the plan; RandomFaultPlan derives its events from it.
	Seed int64
	// Events are the injected failures. Multiple events may target the same
	// unit (e.g. a transient hang followed by a permanent crash); they fire
	// in slice order.
	Events []FaultEvent
}

// Validate checks that every event names a unit and has exactly one trigger
// (failure events) or at most one (delay events, whose trigger is an
// optional activation gate).
func (p *FaultPlan) Validate() error {
	for i := range p.Events {
		f := &p.Events[i]
		if f.Unit == "" {
			return fmt.Errorf("taskrt: fault event %d has no unit", i)
		}
		byTime, byTasks := f.AtTime > 0, f.AfterTasks > 0
		if f.Delay > 0 {
			if byTime && byTasks {
				return fmt.Errorf("taskrt: delay event %d (unit %q) may gate on at most one of AtTime/AfterTasks", i, f.Unit)
			}
		} else if byTime == byTasks {
			return fmt.Errorf("taskrt: fault event %d (unit %q) needs exactly one of AtTime/AfterTasks", i, f.Unit)
		}
		if f.AtTime < 0 || f.AfterTasks < 0 || f.RecoverAfter < 0 || f.Delay < 0 {
			return fmt.Errorf("taskrt: fault event %d (unit %q) has negative timing", i, f.Unit)
		}
	}
	return nil
}

// forUnit returns the plan's failure events for one unit, in slice order.
// Delay events are excluded: the in-process engines' fault queues fire
// crashes and hangs, and must not misread a gated slowdown as one.
func (p *FaultPlan) forUnit(unit string) []FaultEvent {
	if p == nil {
		return nil
	}
	var out []FaultEvent
	for _, f := range p.Events {
		if f.Unit == unit && f.Delay <= 0 {
			out = append(out, f)
		}
	}
	return out
}

// DelaysForUnit returns the plan's slowdown injections for one unit, in
// slice order — the cluster worker's view of the plan (its unit is the node
// name).
func (p *FaultPlan) DelaysForUnit(unit string) []FaultEvent {
	if p == nil {
		return nil
	}
	var out []FaultEvent
	for _, f := range p.Events {
		if f.Unit == unit && f.Delay > 0 {
			out = append(out, f)
		}
	}
	return out
}

// RandomFaultPlan generates a seeded pseudo-random plan over the given
// units: each unit receives up to two events mixing time and task-count
// triggers, hangs and transient recoveries, with all times drawn from
// (0, horizon]. The same (seed, units, horizon) always yields the same plan
// — the deterministic input the property-based fault-tolerance tests need.
func RandomFaultPlan(seed int64, units []string, horizon float64) *FaultPlan {
	if horizon <= 0 {
		horizon = 1
	}
	rng := rand.New(rand.NewSource(seed))
	plan := &FaultPlan{Seed: seed}
	for _, u := range units {
		n := rng.Intn(3) // 0, 1 or 2 events for this unit
		for i := 0; i < n; i++ {
			f := FaultEvent{Unit: u, Hang: rng.Float64() < 0.2}
			if rng.Float64() < 0.5 {
				f.AtTime = rng.Float64() * horizon
				if f.AtTime <= 0 {
					f.AtTime = horizon / 2
				}
			} else {
				f.AfterTasks = 1 + rng.Intn(4)
			}
			if rng.Float64() < 0.3 {
				f.RecoverAfter = rng.Float64() * horizon
				if f.RecoverAfter <= 0 {
					f.RecoverAfter = horizon / 4
				}
			}
			plan.Events = append(plan.Events, f)
		}
	}
	return plan
}

// RetryPolicy tunes failure recovery. The zero value takes defaults; any
// non-zero field activates fault tolerance even without a FaultPlan (so real
// codelet errors are retried instead of aborting the run).
type RetryPolicy struct {
	// MaxAttempts caps how often one task may fail before Run gives up
	// (default 4).
	MaxAttempts int
	// BackoffBase is the first retry delay in seconds (default 1ms); the
	// delay doubles per failed attempt of the same task.
	BackoffBase float64
	// BackoffCap bounds the exponential backoff in seconds (default 100ms).
	BackoffCap float64
	// WatchdogFactor scales the per-codelet execution-time estimate into a
	// hang-detection timeout (default 8). The estimate comes from the
	// configured perfmodel store when it has samples, else from the
	// simulator's own cost model (Sim mode only).
	WatchdogFactor float64
	// TaskTimeout is an absolute watchdog timeout in seconds used in Real
	// mode when no perfmodel estimate is available (0 disables the
	// fallback watchdog).
	TaskTimeout float64
}

// Defaults for the zero-valued RetryPolicy fields.
const (
	DefaultMaxAttempts    = 4
	DefaultBackoffBase    = 1e-3
	DefaultBackoffCap     = 0.1
	DefaultWatchdogFactor = 8.0
)

// withDefaults fills zero fields.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultMaxAttempts
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = DefaultBackoffBase
	}
	if p.BackoffCap <= 0 {
		p.BackoffCap = DefaultBackoffCap
	}
	if p.WatchdogFactor <= 0 {
		p.WatchdogFactor = DefaultWatchdogFactor
	}
	return p
}

// Backoff is the one capped exponential retry delay: base × 2^(n−1) before
// retry n (n counts failures so far; n < 1 counts as 1), never above limit.
// Any unit works — RetryPolicy passes seconds, the cluster master
// nanoseconds.
func Backoff(base, limit float64, n int) float64 {
	if n < 1 {
		n = 1
	}
	d := base * math.Pow(2, float64(n-1))
	if d > limit {
		d = limit
	}
	return d
}

// backoff returns the delay in seconds before retry attempt n.
func (p RetryPolicy) backoff(n int) float64 {
	return Backoff(p.BackoffBase, p.BackoffCap, n)
}

// backoffDuration is backoff as a wall-clock duration (Real mode).
func (p RetryPolicy) backoffDuration(n int) time.Duration {
	return time.Duration(p.backoff(n) * float64(time.Second))
}

// CountFailure counts one failed attempt of t, last run on unit, and
// returns the attempt number. Once t has failed MaxAttempts times it also
// returns the error that ends the run, wrapping cause. Task.attempt is the
// only attempt count, shared by the sim and real engines and the cluster
// master: the caller owns t while it handles the failure.
func (p RetryPolicy) CountFailure(t *Task, unit string, cause error) (int, error) {
	n := int(t.attempt.Add(1))
	if n < p.MaxAttempts {
		return n, nil
	}
	return n, fmt.Errorf("taskrt: task %q (%s) failed %d attempts, last on %s: %w",
		t.Codelet.Name, t.Label, n, unit, cause)
}

// Attempt is the number of failed attempts counted on t so far, which is
// also the index of its next execution (0 = first).
func (t *Task) Attempt() int { return int(t.attempt.Load()) }

// FailureCounts reports the failed attempts over tasks and the number of
// tasks that failed at least once. Every failed attempt increments exactly
// one task's count, so the sum is the run's total.
func FailureCounts(tasks []*Task) (failedAttempts, retriedTasks int) {
	for _, t := range tasks {
		if n := t.Attempt(); n > 0 {
			failedAttempts += n
			retriedTasks++
		}
	}
	return failedAttempts, retriedTasks
}

// ftEnabled reports whether the fault-tolerance machinery is active: an
// injection plan, a dynamic tracker, or an explicit retry policy all switch
// it on. Without any of them the engines keep their fail-fast behaviour.
func (rt *Runtime) ftEnabled() bool {
	return rt.cfg.Faults != nil || rt.cfg.Tracker != nil || rt.cfg.Retry != (RetryPolicy{})
}

// faultQueue is the per-unit runtime view of pending injected events.
type faultQueue struct {
	events []FaultEvent
	next   int
}

// pending returns the next unconsumed event, or nil.
func (q *faultQueue) pending() *FaultEvent {
	if q == nil || q.next >= len(q.events) {
		return nil
	}
	return &q.events[q.next]
}

// consume marks the current event as fired.
func (q *faultQueue) consume() { q.next++ }
