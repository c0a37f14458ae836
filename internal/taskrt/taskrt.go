// Package taskrt is a StarPU-like task runtime for heterogeneous platforms:
// the scheduling and data-management substrate the paper's evaluation
// (Section IV-D) targets. Applications register codelets with one
// implementation per architecture, submit tasks whose data accesses carry
// explicit modes (read / write / readwrite, matching the paper's task
// annotations), and the runtime derives inter-task dependencies, moves data
// between distinct memory spaces and maps tasks onto processing units.
//
// Two execution engines share the same task-graph front end:
//
//   - the real engine runs implementation functions on goroutine workers and
//     reports wall-clock times — used for CPU-only configurations on the
//     actual host; and
//   - the simulated engine executes the graph in virtual time on a
//     calibrated simhw.Machine built from a PDL description — the
//     substitution for the paper's GPU testbed.
//
// Schedulers are pluggable: eager (StarPU's default greedy central queue),
// dmda (deque model data aware: minimise estimated completion including
// transfer costs), heft (dmda with largest-work-first ordering) and random.
package taskrt

import (
	"fmt"
	"strconv"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/perfmodel"
	"repro/internal/trace"
)

// AccessMode declares how a task uses a data handle, mirroring the paper's
// parameter access specifiers (A:readwrite, B:read).
type AccessMode int

const (
	// Read declares a read-only access.
	Read AccessMode = iota
	// Write declares a write-only access (previous contents unused).
	Write
	// ReadWrite declares an in-place update.
	ReadWrite
)

// String returns the annotation spelling of the mode.
func (m AccessMode) String() string {
	switch m {
	case Read:
		return "read"
	case Write:
		return "write"
	case ReadWrite:
		return "readwrite"
	default:
		return fmt.Sprintf("AccessMode(%d)", int(m))
	}
}

// ParseAccessMode parses the annotation spelling ("read", "write",
// "readwrite", and the abbreviations r/w/rw).
func ParseAccessMode(s string) (AccessMode, error) {
	switch s {
	case "read", "r", "in":
		return Read, nil
	case "write", "w", "out":
		return Write, nil
	case "readwrite", "rw", "inout":
		return ReadWrite, nil
	}
	return 0, fmt.Errorf("taskrt: unknown access mode %q", s)
}

// Reads reports whether the mode observes previous contents.
func (m AccessMode) Reads() bool { return m == Read || m == ReadWrite }

// Writes reports whether the mode produces new contents.
func (m AccessMode) Writes() bool { return m == Write || m == ReadWrite }

// Mode selects the execution engine.
type Mode int

const (
	// Real executes implementation functions on goroutine workers.
	Real Mode = iota
	// Sim executes the graph in virtual time on the calibrated machine.
	Sim
)

func (m Mode) String() string {
	if m == Real {
		return "real"
	}
	return "sim"
}

// Config configures a Runtime.
type Config struct {
	// Platform describes the machine. In Sim mode it parameterises the
	// hardware simulator; in Real mode its x86 capacity bounds the worker
	// count.
	Platform *core.Platform
	// Mode selects the engine (default Real).
	Mode Mode
	// Scheduler names the scheduling policy: "eager", "dmda", "heft", "ws"
	// (work stealing) or "random". Empty defaults to "ws" in Real mode
	// (per-worker deques with stealing) and "eager" in Sim mode. The Real
	// engine implements "ws" and "dmda" (model-predicted earliest finish
	// time placement; see dispatch.go) and runs "eager", "heft" and
	// "random" as "ws"; the Sim engine implements all five.
	Scheduler string
	// Workers overrides the Real-mode worker count (default: the platform's
	// x86 unit count).
	Workers int
	// Seed seeds the random scheduler (default 1).
	Seed int64
	// Models, when non-nil, receives execution-time observations in Real
	// mode (history-based performance models à la StarPU) and feeds the
	// "dmda" scheduler's placement predictions. When nil with Scheduler
	// "dmda", the Real engine creates a private store so the policy
	// self-calibrates within the run.
	Models *perfmodel.Store
	// Trace, when non-nil, receives one event per task execution and (in
	// Sim mode) per data transfer, plus failure/retry/blacklist/recover
	// events when fault tolerance is active.
	Trace *trace.Trace
	// Faults, when non-nil, injects deterministic unit failures (see
	// FaultPlan) and activates the fault-tolerance machinery: failed tasks
	// are retried with capped exponential backoff, falling back to a
	// different implementation variant when their unit class is gone, and
	// failed units are blacklisted.
	Faults *FaultPlan
	// Retry tunes failure recovery; the zero value takes defaults. Setting
	// any field activates fault tolerance even without a FaultPlan, so real
	// codelet errors are retried instead of aborting the run.
	Retry RetryPolicy
	// Tracker, when non-nil, mirrors in-flight blacklisting into the dynamic
	// platform descriptor: unit failures emit SetOffline and recoveries emit
	// SetOnline. In Sim mode, units the tracker already reports offline are
	// also skipped by the schedulers from the start; the Real engine never
	// reads OfflineUnits. Engine unit ids that the tracker does not know
	// (expanded instances like "host.3", real-mode worker ids) are
	// blacklisted locally only.
	Tracker *dynamic.Tracker
}

// Run lifecycle states (Runtime.state).
const (
	stateIdle int32 = iota // accepting submissions
	stateRunning
	stateDone
)

// Runtime accepts task submissions and executes them with Run.
type Runtime struct {
	cfg     Config
	handles []*Handle
	tasks   []*Task
	nextID  int
	lastW   map[*Handle]*Task
	readers map[*Handle][]*Task
	state   atomic.Int32 // stateIdle → stateRunning → stateDone
}

// New creates a runtime. The platform must be a valid machine-model
// instance.
func New(cfg Config) (*Runtime, error) {
	if cfg.Platform == nil {
		return nil, fmt.Errorf("taskrt: nil platform")
	}
	if err := cfg.Platform.Validate(); err != nil {
		return nil, err
	}
	switch cfg.Scheduler {
	case "", "eager", "dmda", "heft", "random", "ws":
	default:
		return nil, fmt.Errorf("taskrt: unknown scheduler %q", cfg.Scheduler)
	}
	if cfg.Scheduler == "" {
		if cfg.Mode == Real {
			cfg.Scheduler = "ws"
		} else {
			cfg.Scheduler = "eager"
		}
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, err
		}
	}
	return &Runtime{
		cfg:     cfg,
		lastW:   map[*Handle]*Task{},
		readers: map[*Handle][]*Task{},
	}, nil
}

// Submit registers a task for execution and derives its dependencies from
// the data-access history: readers depend on the last writer of each handle;
// writers additionally depend on all readers since that write (anti/output
// dependencies), exactly the implicit data-driven ordering StarPU applies.
func (rt *Runtime) Submit(t *Task) error {
	if err := rt.submittable(); err != nil {
		return err
	}
	return rt.submitOne(t)
}

// SubmitBatch registers tasks in order with one lifecycle check for the
// whole batch — the submission-side companion of the dispatcher's batched
// push path. Dependency derivation is identical to calling Submit in a
// loop: tasks later in the batch may depend on earlier ones (through shared
// handles or After). On error the failing task is reported by its batch
// index; tasks before it remain registered, exactly as sequential Submit
// calls would leave them.
func (rt *Runtime) SubmitBatch(tasks []*Task) error {
	if err := rt.submittable(); err != nil {
		return err
	}
	for i, t := range tasks {
		if err := rt.submitOne(t); err != nil {
			return fmt.Errorf("batch task %d: %w", i, err)
		}
	}
	return nil
}

// submittable checks the run lifecycle allows submissions.
func (rt *Runtime) submittable() error {
	switch rt.state.Load() {
	case stateRunning:
		return fmt.Errorf("taskrt: Submit while Run is in progress; submit all tasks before Run")
	case stateDone:
		return fmt.Errorf("taskrt: Submit after Run; a runtime is single-shot, create a new one")
	}
	return nil
}

// submitOne validates and registers one task (lifecycle already checked).
func (rt *Runtime) submitOne(t *Task) error {
	if t.Codelet == nil {
		return fmt.Errorf("taskrt: task without codelet")
	}
	if len(t.Codelet.Impls) == 0 {
		return fmt.Errorf("taskrt: codelet %q has no implementations", t.Codelet.Name)
	}
	for i, a := range t.Accesses {
		if a.Handle == nil {
			return fmt.Errorf("taskrt: task %q accesses nil handle", t.Codelet.Name)
		}
		// Tasks touch a handful of handles: a linear scan beats allocating a
		// set on every submission.
		for _, b := range t.Accesses[:i] {
			if b.Handle == a.Handle {
				return fmt.Errorf("taskrt: task %q accesses handle %q twice", t.Codelet.Name, a.Handle.Name)
			}
		}
	}
	t.id = rt.nextID
	rt.nextID++

	addDep := func(dep *Task) {
		if dep == nil || dep == t {
			return
		}
		for _, d := range t.deps {
			if d == dep {
				return
			}
		}
		t.deps = append(t.deps, dep)
		dep.dependents = append(dep.dependents, t)
	}
	for _, dep := range t.After {
		if dep == nil {
			return fmt.Errorf("taskrt: task %q has nil explicit dependency", t.Codelet.Name)
		}
		found := false
		for _, prior := range rt.tasks {
			if prior == dep {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("taskrt: task %q depends on a task not yet submitted", t.Codelet.Name)
		}
		addDep(dep)
	}
	for _, a := range t.Accesses {
		h := a.Handle
		if a.Mode.Reads() || a.Mode == Write {
			// Even pure writes must wait for the previous writer (output
			// dependency) and for readers (anti dependency).
			addDep(rt.lastW[h])
		}
		if a.Mode.Writes() {
			for _, r := range rt.readers[h] {
				addDep(r)
			}
			rt.readers[h] = nil
			rt.lastW[h] = t
		} else {
			rt.readers[h] = append(rt.readers[h], t)
		}
	}
	rt.tasks = append(rt.tasks, t)
	return nil
}

// Tasks returns the number of submitted tasks.
func (rt *Runtime) Tasks() int { return len(rt.tasks) }

// Graph hands the submitted task graph to an external engine: it returns
// every task (in submission order, dependencies derived) together with every
// registered handle, and consumes the runtime — the same single-shot
// lifecycle Run enforces, so a graph can be executed either locally (Run) or
// by an external engine (the cluster master), never both. Further Submit or
// Run calls fail with the usual lifecycle errors.
func (rt *Runtime) Graph() (tasks []*Task, handles []*Handle, err error) {
	if !rt.state.CompareAndSwap(stateIdle, stateDone) {
		return nil, nil, fmt.Errorf("taskrt: Graph after Run or Graph; a runtime is single-shot, create a new one")
	}
	return rt.tasks, rt.handles, nil
}

// Run executes every submitted task and returns the execution report. A
// runtime is single-shot: Run may be called exactly once, and submissions
// are rejected from the moment it starts. Calling Run again — concurrently
// or after completion — returns a descriptive error instead of rerunning.
func (rt *Runtime) Run() (*Report, error) {
	if !rt.state.CompareAndSwap(stateIdle, stateRunning) {
		if rt.state.Load() == stateRunning {
			return nil, fmt.Errorf("taskrt: Run called twice; a Run is already in progress")
		}
		return nil, fmt.Errorf("taskrt: Run called twice; the runtime already ran, create a new one")
	}
	defer rt.state.Store(stateDone)
	var (
		rep *Report
		err error
	)
	switch rt.cfg.Mode {
	case Sim:
		rep, err = rt.runSim()
	case Real:
		rep, err = rt.runReal()
	default:
		return nil, fmt.Errorf("taskrt: unknown mode %v", rt.cfg.Mode)
	}
	if err != nil {
		return nil, err
	}
	recordReport(rep)
	if tr := rt.cfg.Trace; tr != nil {
		tr.SetMeta("mode", rt.cfg.Mode.String())
		tr.SetMeta("scheduler", rt.cfg.Scheduler)
		tr.SetMeta("tasks", strconv.Itoa(rep.Tasks))
		// The most recent traced run backs pdlserved's /debug/trace.
		trace.Publish(tr)
	}
	return rep, nil
}
