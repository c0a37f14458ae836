package taskrt

import (
	"fmt"
	"sync/atomic"
)

// TaskContext is handed to real-mode implementation functions.
type TaskContext struct {
	// WorkerID identifies the executing worker.
	WorkerID int
	// Arch is the architecture tag of the chosen implementation.
	Arch string
	// Data holds the payloads of the task's accesses, in access order.
	Data []any
	// Task is the executing task (labels, flops, accesses).
	Task *Task
}

// Payload returns the i-th access payload.
func (tc *TaskContext) Payload(i int) any { return tc.Data[i] }

// Impl is one architecture-specific implementation of a codelet, analogous
// to StarPU's cpu_func/cuda_func fields and to the paper's task
// implementation variants.
type Impl struct {
	// Arch is the PDL ARCHITECTURE tag of units that can run this
	// implementation ("x86", "gpu", "spe", ...).
	Arch string
	// Func is the real-mode kernel. It may be nil for implementations that
	// exist only as simulated variants (e.g. a gpu kernel on a machine
	// without GPUs); such implementations are skipped by the real engine.
	Func func(*TaskContext) error
	// SpeedFactor optionally scales the architecture's calibrated rate for
	// this codelet (1.0 when zero): some kernels reach a different fraction
	// of peak than DGEMM.
	SpeedFactor float64
}

// Codelet is a multi-variant computational kernel: the runtime-facing
// equivalent of a Cascabel task interface with its implementation variants.
type Codelet struct {
	Name  string
	Impls []Impl
}

// NewCodelet builds a codelet from implementations.
func NewCodelet(name string, impls ...Impl) (*Codelet, error) {
	if name == "" {
		return nil, fmt.Errorf("taskrt: codelet without name")
	}
	if len(impls) == 0 {
		return nil, fmt.Errorf("taskrt: codelet %q needs at least one implementation", name)
	}
	seen := map[string]bool{}
	for _, im := range impls {
		if im.Arch == "" {
			return nil, fmt.Errorf("taskrt: codelet %q has implementation without arch", name)
		}
		if seen[im.Arch] {
			return nil, fmt.Errorf("taskrt: codelet %q has duplicate implementation for %q", name, im.Arch)
		}
		seen[im.Arch] = true
	}
	return &Codelet{Name: name, Impls: impls}, nil
}

// ImplFor returns the implementation for an architecture tag, or nil.
func (c *Codelet) ImplFor(arch string) *Impl {
	for i := range c.Impls {
		if c.Impls[i].Arch == arch {
			return &c.Impls[i]
		}
	}
	return nil
}

// Archs returns the architecture tags the codelet supports.
func (c *Codelet) Archs() []string {
	out := make([]string, len(c.Impls))
	for i, im := range c.Impls {
		out[i] = im.Arch
	}
	return out
}

// Handle names a datum managed by the runtime: its size drives transfer
// costs in sim mode, its payload is what real-mode kernels operate on, and
// its home node is where the datum initially lives.
type Handle struct {
	id      int
	Name    string
	Bytes   int64
	Payload any
	home    int

	// resident is a bitmask of the memory nodes (platform master indices)
	// currently holding a valid copy, maintained by the data-aware dmda
	// dispatcher. Zero is the unset state and is read as 1<<home. A write
	// collapses the mask to the writer's node; a placement sets the chosen
	// node's bit ahead of dequeue (the prefetch hint).
	resident atomic.Uint64
}

// ID returns the registration-order id of the handle, stable for the life
// of the runtime — the key external engines (the cluster master) use to name
// the datum on the wire.
func (h *Handle) ID() int { return h.id }

// residentMask returns the effective residency bitmask (home when unset).
func (h *Handle) residentMask() uint64 {
	if m := h.resident.Load(); m != 0 {
		return m
	}
	return 1 << uint(h.home%maxNodes)
}

// markResident sets node's residency bit, reporting whether it was newly
// set — i.e. whether this placement implies a transfer worth prefetching.
func (h *Handle) markResident(node int) bool {
	bit := uint64(1) << uint(node)
	for {
		old := h.resident.Load()
		cur := old
		if cur == 0 {
			cur = 1 << uint(h.home%maxNodes)
		}
		next := cur | bit
		if next == cur && old != 0 {
			return false
		}
		if h.resident.CompareAndSwap(old, next) {
			return cur&bit == 0
		}
	}
}

// setResidentOnly collapses residency to a single node (after a write).
func (h *Handle) setResidentOnly(node int) {
	h.resident.Store(1 << uint(node))
}

// NewHandle registers a datum with the runtime. bytes must be non-negative;
// home is the memory node where the datum initially resides (0 = host RAM).
func (rt *Runtime) NewHandle(name string, bytes int64, payload any) *Handle {
	h := &Handle{id: len(rt.handles), Name: name, Bytes: bytes, Payload: payload}
	rt.handles = append(rt.handles, h)
	return h
}

// Access pairs a handle with its access mode.
type Access struct {
	Handle *Handle
	Mode   AccessMode
}

// R is shorthand for a read access.
func R(h *Handle) Access { return Access{Handle: h, Mode: Read} }

// W is shorthand for a write access.
func W(h *Handle) Access { return Access{Handle: h, Mode: Write} }

// RW is shorthand for a readwrite access.
func RW(h *Handle) Access { return Access{Handle: h, Mode: ReadWrite} }

// Task is one unit of work: a codelet invocation over concrete handles.
type Task struct {
	Codelet  *Codelet
	Accesses []Access
	// Flops is the work size used by cost models (e.g. 2·m·n·k for GEMM
	// tiles). Zero-flop tasks only pay launch overhead in sim mode.
	Flops float64
	// Priority orders tasks within some schedulers (higher first).
	Priority int
	// Label annotates traces.
	Label string
	// Where restricts simulated placement to the named PU ids (an entry
	// also matches its quantity-expanded instances, e.g. "host" matches
	// "host.3"). Empty means any compatible unit. This realises the paper's
	// execution groups: "denoting sub-parts of a heterogeneous platform
	// where specific tasks are intended to execute" (Section IV-B). The
	// real engine's anonymous worker pool ignores it.
	Where []string
	// After adds explicit control dependencies (StarPU's tag dependencies)
	// on top of the implicit data-driven ones. Listed tasks must already be
	// submitted to the same runtime.
	After []*Task

	id         int
	deps       []*Task
	dependents []*Task
	// attempt counts failed attempts so far, the engines' only count:
	// CountFailure increments it, the next execution reads it (Attempt) to
	// stamp its trace spans, and FailureCounts sums it into the Report.
	attempt atomic.Int32
	// estNanos is the execution+transfer prediction the dmda dispatcher
	// charged to a worker's backlog when it placed this task; released by
	// finished. Guarded by the owning queue's hand-off, never concurrent.
	estNanos int64
	// pred caches the dmda perfmodel lookups for this task's codelet,
	// assigned once at dispatcher construction so placement is map-free.
	pred *predEntry
}

// Deps returns the tasks this task waits for (for tests and tooling).
func (t *Task) Deps() []*Task { return t.deps }

// Dependents returns the tasks waiting on this task (the reverse dependency
// edges), for external engines executing a Graph().
func (t *Task) Dependents() []*Task { return t.dependents }

// ID returns the submission-order id.
func (t *Task) ID() int { return t.id }
