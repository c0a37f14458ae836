// Package core implements the hierarchical machine model underlying the
// Platform Description Language (PDL) of Sandrieser, Benkner and Pllana,
// "Explicit Platform Descriptions for Heterogeneous Many-Core Architectures"
// (IPDPS Workshops 2011).
//
// The model describes a heterogeneous system as a tree of processing units
// (PUs) connected by explicit logical control relationships: a Master PU is a
// feature-rich, general-purpose unit at the top of the hierarchy that may
// start program execution; a Worker is a specialized leaf resource that
// carries out delegated tasks; a Hybrid acts as both, sitting at inner nodes.
// Memory regions and interconnects describe the data side of the machine:
// where data may live and along which links it can move.
//
// All PDL entities carry extensible key/value Properties grouped in
// Descriptors, so both abstract architectural patterns ("an x86 Master with a
// gpu Worker") and fully concrete platforms (clock rates, memory sizes,
// driver versions) are expressed with the same vocabulary.
//
// The package enforces the structural invariants of the machine model (see
// Validate) and provides traversal, lookup and construction helpers used by
// the XML codec (internal/pdlxml), the query API (internal/query), the
// pattern matcher (internal/pattern) and the Cascabel translator.
package core

import "fmt"

// Class identifies the control role of a processing unit in the hierarchy.
type Class int

const (
	// Master marks a general-purpose PU at the top level of the hierarchy.
	// Masters are possible starting points for program execution and may
	// control Workers and Hybrids. Multiple Masters may coexist in one
	// platform.
	Master Class = iota
	// Hybrid marks an inner-node PU that is controlled by a Master or
	// another Hybrid and itself controls further Hybrids or Workers.
	Hybrid
	// Worker marks a specialized leaf PU that only executes delegated
	// tasks and controls no other unit.
	Worker
)

// String returns the PDL element name of the class.
func (c Class) String() string {
	switch c {
	case Master:
		return "Master"
	case Hybrid:
		return "Hybrid"
	case Worker:
		return "Worker"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// ParseClass converts a PDL element name into a Class.
func ParseClass(s string) (Class, error) {
	switch s {
	case "Master":
		return Master, nil
	case "Hybrid":
		return Hybrid, nil
	case "Worker":
		return Worker, nil
	}
	return 0, fmt.Errorf("core: unknown PU class %q", s)
}

// Well-known property names shared across the toolchain. The PDL property
// space is open; these constants only name the keys the paper's examples and
// this reproduction rely on.
const (
	PropArchitecture = "ARCHITECTURE"    // e.g. "x86", "gpu", "spe"
	PropDeviceName   = "DEVICE_NAME"     // marketing name, e.g. "GeForce GTX 480"
	PropVendor       = "VENDOR"          // e.g. "Intel", "Nvidia"
	PropCores        = "CORES"           // physical cores of the unit
	PropClockMHz     = "CLOCK_FREQUENCY" // unit MHz
	PropMemSize      = "GLOBAL_MEM_SIZE" // unit kB
	PropLocalMem     = "LOCAL_MEM_SIZE"  // unit kB
	PropComputeUnits = "MAX_COMPUTE_UNITS"
	PropWorkItemDims = "MAX_WORK_ITEM_DIMENSIONS"
	PropGFlopsDP     = "PEAK_GFLOPS_DP" // calibration hook for simhw
	PropRuntime      = "RUNTIME"        // e.g. "OpenCL", "Cuda", "CellSDK"
	PropBandwidth    = "BANDWIDTH"      // interconnect rate, unit GB/s
	PropLatency      = "LATENCY"        // interconnect latency, unit us
)

// Well-known interconnect types used in descriptors and the simulator.
const (
	ICTypeRDMA   = "rDMA"
	ICTypePCIe   = "PCIe"
	ICTypeQPI    = "QPI"
	ICTypeShared = "shared" // same-die shared memory path
	ICTypeEIB    = "EIB"    // Cell element interconnect bus
)
