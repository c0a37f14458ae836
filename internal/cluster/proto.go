// Package cluster executes taskrt task graphs across processes: a Master
// consumes a fully-submitted (unrun) Runtime's graph and dispatches codelet
// invocations over HTTP to Workers, which execute them against locally
// registered implementations.
//
// This extends the paper's platform-description-driven scheduling to the
// distributed level: each worker node is described by its own PDL document
// (registered with pdlserved alongside a worker lease), the master's
// placement uses per-(codelet, arch) perfmodels plus declared-interconnect
// transfer modelling — the same earliest-finish-time shape as the in-process
// dmda dispatcher, promoted to node granularity — and the fault-tolerance
// layer (retry, blacklist, rejoin) is likewise lifted from worker
// goroutines to whole nodes.
//
// Ownership model: the master owns data truth. Canonical payloads live in
// the submitted Runtime's handles; workers hold version-tagged caches. A
// task's writes take effect only when its result is applied on the master,
// under a first-writer-wins done-check, which makes resubmission after node
// failure exactly-once: a late result from a presumed-dead node either
// applies first (the resubmitted copy is dropped) or is dropped itself.
package cluster

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/blas"
	"repro/internal/trace"
)

// HTTP surface of a worker.
const (
	PathExecute = "/v1/execute"
	PathInfo    = "/v1/info"
	PathHealthz = "/healthz"
	// PathTrace serves the worker's span buffer as JSONL (node + epoch
	// metadata included). `?drain=1` atomically hands over and clears the
	// buffer — the pull-side counterpart of the spans piggybacked on execute
	// responses, for collectors that want history without running tasks.
	PathTrace = "/v1/trace"
	// PathMetrics serves the worker's Prometheus exposition; pdlserved's
	// fleet scraper federates the taskrt_worker_* families it finds here.
	PathMetrics = "/metrics"

	// ContentTypeGob marks the execute request/response encoding. gob is
	// chosen over JSON for the data plane: payloads are dense float64
	// matrices, and gob moves them as raw bytes instead of decimal text.
	ContentTypeGob = "application/x-gob"
)

// ExecRequest is one codelet invocation shipped to a worker.
type ExecRequest struct {
	TaskID  int
	Attempt int
	Codelet string
	Label   string
	Flops   float64
	// Parents are the task's dependency ids, forwarded so worker-side trace
	// spans carry the causal edges pdltrace needs to reconstruct a
	// cluster-wide critical path after merging.
	Parents  []int
	Accesses []AccessSpec
}

// AccessSpec is one data access of the invocation. When Inline is nil the
// worker must already cache (HandleID, Version); responding NeedData makes
// the master re-inline — a cache miss, never a fault.
type AccessSpec struct {
	HandleID int
	Name     string
	Bytes    int64
	Mode     int // taskrt.AccessMode numeric value
	Version  uint64
	Inline   []byte
}

// Written is one produced payload: the new contents of a written handle at
// Version = request Version + 1 (writers are serialised by the task graph,
// so the successor version is deterministic).
type Written struct {
	HandleID int
	Version  uint64
	Payload  []byte
}

// ExecResponse reports one invocation's outcome.
type ExecResponse struct {
	TaskID  int
	Attempt int
	OK      bool
	Error   string
	// NeedData lists handle ids referenced by version but absent from the
	// worker's cache; the master re-inlines and redispatches.
	NeedData    []int
	Written     []Written
	ExecSeconds float64
	Arch        string
	Unit        string // executing lane, for merged traces ("worker0", ...)

	// Spans are the trace events this invocation recorded on the worker
	// (execution span, and any it can cheaply piggyback), with times as
	// offsets from the worker's epoch. Shipping them on the response gives
	// the master a live, complete span stream without a second round-trip.
	Spans []trace.Event
	// EpochMicros is the worker process's start time (µs since the Unix
	// epoch): the time base of the span offsets, which trace.Merge uses to
	// align per-node timelines into one.
	EpochMicros int64
}

// InfoResponse describes a worker to masters (GET /v1/info, JSON).
type InfoResponse struct {
	Name     string   `json:"name"`
	Archs    []string `json:"archs"`
	Workers  int      `json:"workers"`
	Codelets []string `json:"codelets"`
}

// RegisterPayloadType registers a concrete payload type for the gob-based
// payload codec, as encoding/gob requires for interface-typed values.
// *blas.Matrix, []float64, []byte and the scalar types are pre-registered.
func RegisterPayloadType(v any) { gob.Register(v) }

func init() {
	RegisterPayloadType(&blas.Matrix{})
	RegisterPayloadType([]float64(nil))
	RegisterPayloadType([]byte(nil))
	RegisterPayloadType([]int(nil))
	RegisterPayloadType(float64(0))
	RegisterPayloadType(int(0))
	RegisterPayloadType("")
}

// payloadBox wraps the interface value so gob carries the concrete type.
type payloadBox struct{ V any }

// EncodePayload serialises a handle payload for the wire. Matrix views are
// compacted first: a Sub() view aliases the parent's backing array from its
// origin to the end, and encoding that raw would ship the whole parent.
func EncodePayload(v any) ([]byte, error) {
	if m, ok := v.(*blas.Matrix); ok && (m.Stride != m.Cols || len(m.Data) != m.Rows*m.Cols) {
		v = m.Clone()
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(payloadBox{V: v}); err != nil {
		return nil, fmt.Errorf("cluster: encoding payload: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodePayload reverses EncodePayload. The bytes come off the network, so
// a matrix must arrive in the dense form EncodePayload sends (Stride == Cols,
// Rows×Cols elements): Clone, ApplyPayload and the kernels index rows
// without bounds checks of their own.
func DecodePayload(data []byte) (any, error) {
	var box payloadBox
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&box); err != nil {
		return nil, fmt.Errorf("cluster: decoding payload: %w", err)
	}
	if m, ok := box.V.(*blas.Matrix); ok && !dense(m) {
		return nil, fmt.Errorf("cluster: decoding payload: %dx%d matrix with stride %d and %d elements is not dense",
			m.Rows, m.Cols, m.Stride, len(m.Data))
	}
	return box.V, nil
}

// dense reports whether m holds exactly Rows×Cols elements at Stride ==
// Cols, forming the product only once it cannot overflow.
func dense(m *blas.Matrix) bool {
	return m.Rows >= 0 && m.Cols >= 0 && m.Stride == m.Cols &&
		(m.Cols == 0 || m.Rows <= len(m.Data)/m.Cols) && len(m.Data) == m.Rows*m.Cols
}

// ApplyPayload merges a received payload into an existing one, returning
// the value to store. Matrices and slices copy element-wise into dst so
// aliasing is preserved — the master's canonical payloads are often Sub()
// views into one parent matrix, and replacing the view would detach the
// tile from the matrix it verifies against. Shape mismatches and unknown
// types fall back to replacement (dst nil means the handle had no local
// payload yet).
func ApplyPayload(dst, src any) (any, error) {
	switch d := dst.(type) {
	case nil:
		return src, nil
	case *blas.Matrix:
		s, ok := src.(*blas.Matrix)
		if !ok {
			return nil, fmt.Errorf("cluster: applying %T over *blas.Matrix", src)
		}
		if s.Rows != d.Rows || s.Cols != d.Cols {
			return nil, fmt.Errorf("cluster: applying %dx%d matrix over %dx%d", s.Rows, s.Cols, d.Rows, d.Cols)
		}
		for i := 0; i < d.Rows; i++ {
			copy(d.Data[i*d.Stride:i*d.Stride+d.Cols], s.Data[i*s.Stride:i*s.Stride+s.Cols])
		}
		return d, nil
	case []float64:
		s, ok := src.([]float64)
		if !ok || len(s) != len(d) {
			return src, nil
		}
		copy(d, s)
		return d, nil
	case []byte:
		s, ok := src.([]byte)
		if !ok || len(s) != len(d) {
			return src, nil
		}
		copy(d, s)
		return d, nil
	default:
		return src, nil
	}
}

// encodeGob/decodeGob move the execute request/response bodies.
func encodeGob(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeGob(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}
