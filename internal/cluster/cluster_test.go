package cluster

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/taskrt"
	"repro/internal/trace"
)

// --- payload codec ---

func TestPayloadCodecCompactsViews(t *testing.T) {
	parent := blas.NewMatrix(8, 8)
	parent.FillRandom(1)
	view := parent.Sub(2, 2, 4, 4)

	data, err := EncodePayload(view)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePayload(data)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := got.(*blas.Matrix)
	if !ok {
		t.Fatalf("decoded %T, want *blas.Matrix", got)
	}
	if m.Rows != 4 || m.Cols != 4 || m.Stride != 4 || len(m.Data) != 16 {
		t.Fatalf("view not compacted: %dx%d stride %d len %d", m.Rows, m.Cols, m.Stride, len(m.Data))
	}
	if d := blas.MaxDiff(view, m); d != 0 {
		t.Fatalf("compaction changed values (maxdiff %g)", d)
	}

	// A compact matrix ships as-is.
	compact := blas.NewMatrix(3, 3)
	if data, err = EncodePayload(compact); err != nil {
		t.Fatal(err)
	}
	if got, err = DecodePayload(data); err != nil {
		t.Fatal(err)
	}
	if m = got.(*blas.Matrix); m.Rows != 3 || m.Stride != 3 {
		t.Fatalf("compact matrix mangled: %+v", m)
	}
}

func TestApplyPayloadPreservesAliasing(t *testing.T) {
	parent := blas.NewMatrix(8, 8)
	view := parent.Sub(4, 4, 4, 4)
	src := blas.NewMatrix(4, 4)
	src.FillRandom(7)

	applied, err := ApplyPayload(view, src)
	if err != nil {
		t.Fatal(err)
	}
	if applied != any(view) {
		t.Fatal("apply over a matrix must mutate in place, not replace")
	}
	// The write must be visible through the parent.
	if parent.Data[4*8+4] != src.Data[0] {
		t.Fatal("apply did not write through the view into the parent")
	}
	// Elements outside the view stay zero.
	if parent.Data[0] != 0 {
		t.Fatal("apply leaked outside the view")
	}

	if _, err := ApplyPayload(view, blas.NewMatrix(2, 2)); err == nil {
		t.Fatal("shape mismatch must error")
	}
	if _, err := ApplyPayload(view, []float64{1}); err == nil {
		t.Fatal("type mismatch over a matrix must error")
	}

	// nil destination: replacement.
	if got, _ := ApplyPayload(nil, src); got != any(src) {
		t.Fatal("nil dst must adopt src")
	}
	// Slice copy in place.
	d := []float64{0, 0}
	if got, _ := ApplyPayload(d, []float64{3, 4}); got == nil || d[1] != 4 {
		t.Fatal("float64 slice apply must copy in place")
	}
}

// --- worker protocol ---

func gemmTestCodelet(t testing.TB, delay time.Duration) *taskrt.Codelet {
	t.Helper()
	cl, err := taskrt.NewCodelet("dgemm",
		taskrt.Impl{Arch: "x86", Func: func(tc *taskrt.TaskContext) error {
			if delay > 0 {
				time.Sleep(delay)
			}
			a := tc.Payload(0).(*blas.Matrix)
			b := tc.Payload(1).(*blas.Matrix)
			c := tc.Payload(2).(*blas.Matrix)
			return blas.GemmPacked(a, b, c, 0)
		}})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func postExec(t *testing.T, url string, req *ExecRequest) *ExecResponse {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(req); err != nil {
		t.Fatal(err)
	}
	httpResp, err := http.Post(url+PathExecute, ContentTypeGob, &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("execute returned %d", httpResp.StatusCode)
	}
	var resp ExecResponse
	if err := gob.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	return &resp
}

func TestWorkerExecuteCacheAndNeedData(t *testing.T) {
	w, err := NewWorker(WorkerConfig{
		Name: "w1", Archs: []string{"x86"},
		Codelets: []*taskrt.Codelet{gemmTestCodelet(t, 0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	a, b, c := blas.NewMatrix(4, 4), blas.NewMatrix(4, 4), blas.NewMatrix(4, 4)
	a.FillRandom(1)
	b.FillRandom(2)
	enc := func(m *blas.Matrix) []byte {
		data, err := EncodePayload(m)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	accesses := func(inline bool, cVer uint64) []AccessSpec {
		specs := []AccessSpec{
			{HandleID: 0, Name: "A", Mode: int(taskrt.Read)},
			{HandleID: 1, Name: "B", Mode: int(taskrt.Read)},
			{HandleID: 2, Name: "C", Mode: int(taskrt.ReadWrite), Version: cVer},
		}
		if inline {
			specs[0].Inline, specs[1].Inline, specs[2].Inline = enc(a), enc(b), enc(c)
		}
		return specs
	}

	// Reference without prior inline: a cache miss, not a fault.
	resp := postExec(t, srv.URL, &ExecRequest{TaskID: 0, Codelet: "dgemm", Accesses: accesses(false, 0)})
	if resp.OK || len(resp.NeedData) != 3 {
		t.Fatalf("cold cache must bounce all refs, got OK=%v NeedData=%v", resp.OK, resp.NeedData)
	}

	// Inline everything: executes, writes come back at version+1.
	resp = postExec(t, srv.URL, &ExecRequest{TaskID: 0, Codelet: "dgemm", Accesses: accesses(true, 0)})
	if !resp.OK {
		t.Fatalf("inline execute failed: %s", resp.Error)
	}
	if len(resp.Written) != 1 || resp.Written[0].HandleID != 2 || resp.Written[0].Version != 1 {
		t.Fatalf("written = %+v, want handle 2 at version 1", resp.Written)
	}

	// Same handles by reference at the cached versions: executes again,
	// accumulating on the worker-cached C (now at version 1).
	resp = postExec(t, srv.URL, &ExecRequest{TaskID: 1, Codelet: "dgemm", Accesses: accesses(false, 1)})
	if !resp.OK {
		t.Fatalf("cached execute failed: %s (NeedData=%v)", resp.Error, resp.NeedData)
	}
	if resp.Written[0].Version != 2 {
		t.Fatalf("second write version = %d, want 2", resp.Written[0].Version)
	}
	got, err := DecodePayload(resp.Written[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	// Two accumulations of A·B over a zero C.
	ref := blas.NewMatrix(4, 4)
	blas.GemmNaive(a, b, ref)
	blas.GemmNaive(a, b, ref)
	if d := blas.MaxDiff(ref, got.(*blas.Matrix)); d > 1e-12 {
		t.Fatalf("cached accumulation wrong (maxdiff %g)", d)
	}

	// Unknown codelet: in-band error, not NeedData.
	resp = postExec(t, srv.URL, &ExecRequest{TaskID: 2, Codelet: "fft"})
	if resp.OK || resp.Error == "" {
		t.Fatalf("unknown codelet must fail in-band, got %+v", resp)
	}
}

// A worker that serves non-tracing masters (or whose collector died)
// accumulates spans for the GET /v1/trace pull path on every execution; the
// TraceCap bound must hold the buffer at the cap with oldest-drop, export
// the drop count as a monotonic counter, and keep the drain path serving
// the newest spans.
func TestWorkerTraceSpanBufferBounded(t *testing.T) {
	cl, err := taskrt.NewCodelet("nop",
		taskrt.Impl{Arch: "x86", Func: func(*taskrt.TaskContext) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	const cap = 8
	w, err := NewWorker(WorkerConfig{
		Name: "w", Archs: []string{"x86"},
		Codelets: []*taskrt.Codelet{cl},
		TraceCap: cap,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	const execs = 40
	for i := 0; i < execs; i++ {
		if resp := postExec(t, srv.URL, &ExecRequest{TaskID: i, Codelet: "nop"}); !resp.OK {
			t.Fatalf("exec %d failed: %s", i, resp.Error)
		}
	}
	if got := w.Trace().Len(); got > cap {
		t.Fatalf("span buffer holds %d spans past cap %d", got, cap)
	}
	if got := w.Trace().DroppedTotal(); got != execs-cap {
		t.Fatalf("DroppedTotal = %d, want %d", got, execs-cap)
	}

	// The drop counter is federable worker telemetry.
	mres, err := http.Get(srv.URL + PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	metricsBody, err := io.ReadAll(mres.Body)
	mres.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("taskrt_worker_trace_dropped_spans_total %d", execs-cap)
	if !strings.Contains(string(metricsBody), want) {
		t.Fatalf("metrics lack %q:\n%s", want, metricsBody)
	}

	// Drain still works and serves the newest spans, oldest-dropped.
	tres, err := http.Get(srv.URL + PathTrace + "?drain=1")
	if err != nil {
		t.Fatal(err)
	}
	drained, err := trace.ReadJSONL(tres.Body)
	tres.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	events := drained.OfKind(trace.Task)
	if len(events) != cap {
		t.Fatalf("drained %d spans, want %d", len(events), cap)
	}
	for _, e := range events {
		if e.TaskID < execs-cap {
			t.Fatalf("drained span for task %d: an old span survived oldest-drop", e.TaskID)
		}
	}

	// Recording continues after the drain, with no further drops while the
	// buffer stays under the cap.
	for i := 0; i < 3; i++ {
		if resp := postExec(t, srv.URL, &ExecRequest{TaskID: 100 + i, Codelet: "nop"}); !resp.OK {
			t.Fatalf("post-drain exec failed: %s", resp.Error)
		}
	}
	if got := w.Trace().Len(); got != 3 {
		t.Fatalf("post-drain buffer holds %d spans, want 3", got)
	}
	if got := w.Trace().DroppedTotal(); got != execs-cap {
		t.Fatalf("DroppedTotal moved to %d while under the cap", got)
	}
}

func TestWorkerFailedKernelDropsWrittenCache(t *testing.T) {
	// A kernel that mutates its write-mode payload in place and then fails
	// must not leave the corrupted object cache-resident at its pre-write
	// version: the retry would silently consume it as pristine input.
	var fail atomic.Bool
	cl, err := taskrt.NewCodelet("poke",
		taskrt.Impl{Arch: "x86", Func: func(tc *taskrt.TaskContext) error {
			c := tc.Payload(0).(*blas.Matrix)
			c.Data[0]++
			if fail.Load() {
				return fmt.Errorf("injected failure after mutation")
			}
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(WorkerConfig{Name: "w", Archs: []string{"x86"}, Codelets: []*taskrt.Codelet{cl}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	c := blas.NewMatrix(2, 2)
	enc, err := EncodePayload(c)
	if err != nil {
		t.Fatal(err)
	}
	access := func(inline []byte, ver uint64) []AccessSpec {
		return []AccessSpec{{HandleID: 0, Name: "C", Mode: int(taskrt.ReadWrite), Version: ver, Inline: inline}}
	}

	// Seed the cache: inline execute succeeds, C cached at version 1.
	resp := postExec(t, srv.URL, &ExecRequest{TaskID: 0, Codelet: "poke", Accesses: access(enc, 0)})
	if !resp.OK || resp.Written[0].Version != 1 {
		t.Fatalf("seed execute: %+v", resp)
	}

	// Cache-resident execute mutates C then fails in-band.
	fail.Store(true)
	resp = postExec(t, srv.URL, &ExecRequest{TaskID: 1, Codelet: "poke", Accesses: access(nil, 1)})
	if resp.OK || resp.Error == "" {
		t.Fatalf("injected failure not surfaced: %+v", resp)
	}

	// The corrupted entry must be gone: a reference at the pre-write version
	// bounces as NeedData instead of executing on poisoned data.
	fail.Store(false)
	resp = postExec(t, srv.URL, &ExecRequest{TaskID: 1, Codelet: "poke", Accesses: access(nil, 1)})
	if resp.OK || len(resp.NeedData) != 1 || resp.NeedData[0] != 0 {
		t.Fatalf("corrupted cache entry survived the failed kernel: %+v", resp)
	}

	// Re-inlining canonical bytes recovers: one mutation per success.
	canonical := blas.NewMatrix(2, 2)
	canonical.Data[0] = 1
	if enc, err = EncodePayload(canonical); err != nil {
		t.Fatal(err)
	}
	resp = postExec(t, srv.URL, &ExecRequest{TaskID: 1, Codelet: "poke", Accesses: access(enc, 1)})
	if !resp.OK {
		t.Fatalf("retry with canonical inline failed: %s", resp.Error)
	}
	got, err := DecodePayload(resp.Written[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	if v := got.(*blas.Matrix).Data[0]; v != 2 {
		t.Fatalf("retry result = %g, want 2 (exactly one mutation per successful attempt)", v)
	}
}

// --- end-to-end cluster runs ---

func clusterPlatform(t testing.TB) *core.Platform {
	t.Helper()
	pl, err := core.NewBuilder("cpu").
		Master("host", core.Arch("x86"), core.Qty(2)).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// submitTiledGemm builds the C += A·B tile graph (n divisible by tile) and
// returns the operands for verification.
func submitTiledGemm(t testing.TB, rt *taskrt.Runtime, cl *taskrt.Codelet, n, tile int) (a, b, c *blas.Matrix) {
	t.Helper()
	a, b, c = blas.NewMatrix(n, n), blas.NewMatrix(n, n), blas.NewMatrix(n, n)
	a.FillRandom(11)
	b.FillRandom(12)
	nt := n / tile
	handle := func(name string, m *blas.Matrix, i, j int) *taskrt.Handle {
		return rt.NewHandle(fmt.Sprintf("%s[%d,%d]", name, i, j),
			int64(tile)*int64(tile)*8, m.Sub(i*tile, j*tile, tile, tile))
	}
	hA := make([]*taskrt.Handle, nt*nt)
	hB := make([]*taskrt.Handle, nt*nt)
	hC := make([]*taskrt.Handle, nt*nt)
	for i := 0; i < nt; i++ {
		for j := 0; j < nt; j++ {
			hA[i*nt+j] = handle("A", a, i, j)
			hB[i*nt+j] = handle("B", b, i, j)
			hC[i*nt+j] = handle("C", c, i, j)
		}
	}
	var graph []*taskrt.Task
	for i := 0; i < nt; i++ {
		for j := 0; j < nt; j++ {
			for k := 0; k < nt; k++ {
				graph = append(graph, &taskrt.Task{
					Codelet: cl,
					Accesses: []taskrt.Access{
						taskrt.R(hA[i*nt+k]), taskrt.R(hB[k*nt+j]), taskrt.RW(hC[i*nt+j]),
					},
					Flops: blas.FlopsGEMM(tile, tile, tile),
					Label: fmt.Sprintf("C[%d,%d]+=A[%d,%d]*B[%d,%d]", i, j, i, k, k, j),
				})
			}
		}
	}
	if err := rt.SubmitBatch(graph); err != nil {
		t.Fatal(err)
	}
	return a, b, c
}

func verifyGemm(t testing.TB, a, b, c *blas.Matrix) {
	t.Helper()
	ref := blas.NewMatrix(a.Rows, b.Cols)
	if err := blas.GemmBlocked(a, b, ref, 0); err != nil {
		t.Fatal(err)
	}
	if d := blas.MaxDiff(ref, c); d > 1e-8 {
		t.Fatalf("cluster result wrong (maxdiff %g)", d)
	}
}

func startWorker(t testing.TB, name string, cl *taskrt.Codelet, opts WorkerConfig) (*Worker, *httptest.Server) {
	t.Helper()
	opts.Name = name
	opts.Archs = []string{"x86"}
	opts.Codelets = []*taskrt.Codelet{cl}
	w, err := NewWorker(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(srv.Close)
	return w, srv
}

func fastMaster(t testing.TB, nodes []NodeConfig, mut func(*Config)) *Master {
	t.Helper()
	cfg := Config{
		Nodes:          nodes,
		HeartbeatEvery: 10 * time.Millisecond,
		// The generous timeout matters under -race: a healthy /healthz can
		// take tens of milliseconds there, and false timeouts declare live
		// nodes dead. Tripped proxies fail with an immediate 503, so death
		// detection in the failure tests stays at misses×cadence.
		HeartbeatTimeout: 250 * time.Millisecond,
		HeartbeatMisses:  3,
		BackoffBase:      5 * time.Millisecond,
		BackoffCap:       50 * time.Millisecond,
		AllDeadTimeout:   5 * time.Second,
		Logf:             t.Logf,
	}
	if mut != nil {
		mut(&cfg)
	}
	m, err := NewMaster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestClusterGEMMTwoNodes(t *testing.T) {
	cl := gemmTestCodelet(t, 0)
	tr := trace.New()
	_, srv1 := startWorker(t, "w1", cl, WorkerConfig{Slots: 2})
	_, srv2 := startWorker(t, "w2", cl, WorkerConfig{Slots: 2})

	rt, err := taskrt.New(taskrt.Config{Platform: clusterPlatform(t)})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := submitTiledGemm(t, rt, cl, 64, 16)

	m := fastMaster(t, []NodeConfig{
		{Name: "w1", Addr: srv1.URL},
		{Name: "w2", Addr: srv2.URL},
	}, func(cfg *Config) { cfg.Trace = tr })
	rep, err := m.Run(rt)
	if err != nil {
		t.Fatal(err)
	}
	verifyGemm(t, a, b, c)

	if rep.Tasks != 64 {
		t.Fatalf("report tasks = %d, want 64", rep.Tasks)
	}
	total := 0
	for _, n := range rep.PerNode {
		total += n.Tasks
		if n.Dead {
			t.Fatalf("node %s reported dead in a healthy run", n.Name)
		}
	}
	if total != rep.Tasks {
		t.Fatalf("per-node tasks sum to %d, want %d (exactly-once violated)", total, rep.Tasks)
	}
	if rep.TransferBytes == 0 {
		t.Fatal("no transfer bytes accounted: inlining not recorded")
	}
	if len(tr.OfKind(trace.Place)) != 64+rep.PerNode[0].NeedData+rep.PerNode[1].NeedData {
		// One Place per dispatch; NeedData bounces redispatch.
		t.Fatalf("place events = %d for %d tasks", len(tr.OfKind(trace.Place)), rep.Tasks)
	}
	if rep.String() == "" {
		t.Fatal("empty report text")
	}
}

func TestClusterNeedDataSelfHeals(t *testing.T) {
	cl := gemmTestCodelet(t, 0)
	// A 1-entry cache guarantees evictions between tasks: the master's
	// residency beliefs go stale and every stale reference must bounce back
	// as NeedData and re-inline, never failing the run.
	_, srv := startWorker(t, "tiny", cl, WorkerConfig{Slots: 1, CacheEntries: 1})

	rt, err := taskrt.New(taskrt.Config{Platform: clusterPlatform(t)})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := submitTiledGemm(t, rt, cl, 32, 16)

	m := fastMaster(t, []NodeConfig{{Name: "tiny", Addr: srv.URL}}, nil)
	rep, err := m.Run(rt)
	if err != nil {
		t.Fatal(err)
	}
	verifyGemm(t, a, b, c)
	if rep.PerNode[0].NeedData == 0 {
		t.Fatal("1-entry cache run must have bounced at least one dispatch")
	}
	if rep.FailedAttempts != 0 {
		t.Fatalf("NeedData must not consume attempts, got %d failures", rep.FailedAttempts)
	}
}

// flakyProxy wraps a worker handler with a controllable failure mode. Once
// tripped, control endpoints return 503; execute requests either hang until
// release (simulating a wedged node) or delay then serve (simulating a
// slow node whose late results race the resubmitted copies).
type flakyProxy struct {
	inner    http.Handler
	mu       sync.Mutex
	executes int
	tripAt   int  // trip when the Nth execute arrives (0: only manual)
	execOnly bool // tripped: fail only executes, keep control endpoints healthy
	tripped  bool
	hang     chan struct{} // non-nil: tripped executes block here
	delay    time.Duration // tripped executes sleep, then serve for real
}

func (f *flakyProxy) setTripped(v bool) {
	f.mu.Lock()
	f.tripped = v
	f.mu.Unlock()
}

func (f *flakyProxy) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	isExec := r.Method == http.MethodPost && r.URL.Path == PathExecute
	f.mu.Lock()
	if isExec {
		f.executes++
		// One-shot: re-arming would immediately re-trip a recovered node.
		if f.tripAt > 0 && f.executes >= f.tripAt {
			f.tripped = true
			f.tripAt = 0
		}
	}
	tripped := f.tripped
	f.mu.Unlock()
	if !tripped || (f.execOnly && !isExec) {
		f.inner.ServeHTTP(rw, r)
		return
	}
	if isExec {
		if f.hang != nil {
			<-f.hang
		} else if f.delay > 0 {
			time.Sleep(f.delay)
			f.inner.ServeHTTP(rw, r)
			return
		}
	}
	http.Error(rw, `{"error":"node down"}`, http.StatusServiceUnavailable)
}

func TestClusterWorkerDeathResubmits(t *testing.T) {
	cl := gemmTestCodelet(t, time.Millisecond)
	_, srv1 := startWorker(t, "ok", cl, WorkerConfig{Slots: 2})

	w2, err := NewWorker(WorkerConfig{
		Name: "doomed", Archs: []string{"x86"}, Slots: 2,
		Codelets: []*taskrt.Codelet{cl},
	})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	proxy := &flakyProxy{inner: w2.Handler(), tripAt: 3, hang: release}
	srv2 := httptest.NewServer(proxy)
	t.Cleanup(func() { close(release); srv2.Close() })

	rt, err := taskrt.New(taskrt.Config{Platform: clusterPlatform(t)})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := submitTiledGemm(t, rt, cl, 64, 16)

	m := fastMaster(t, []NodeConfig{
		{Name: "ok", Addr: srv1.URL},
		{Name: "doomed", Addr: srv2.URL},
	}, nil)
	rep, err := m.Run(rt)
	if err != nil {
		t.Fatal(err)
	}
	verifyGemm(t, a, b, c)

	if len(rep.DeadNodes) != 1 || rep.DeadNodes[0] != "doomed" {
		t.Fatalf("dead nodes = %v, want [doomed]", rep.DeadNodes)
	}
	if rep.Resubmissions == 0 {
		t.Fatal("tasks wedged on the dead node must have been resubmitted")
	}
	var okTasks, doomedTasks int
	for _, n := range rep.PerNode {
		switch n.Name {
		case "ok":
			okTasks = n.Tasks
		case "doomed":
			doomedTasks = n.Tasks
		}
	}
	if okTasks+doomedTasks != rep.Tasks {
		t.Fatalf("task split %d+%d != %d", okTasks, doomedTasks, rep.Tasks)
	}
	if okTasks < 60 {
		t.Fatalf("survivor ran %d tasks, expected to carry the run", okTasks)
	}
}

func TestClusterLateResultsExactlyOnce(t *testing.T) {
	cl := gemmTestCodelet(t, time.Millisecond)
	_, srv1 := startWorker(t, "ok", cl, WorkerConfig{Slots: 2})

	w2, err := NewWorker(WorkerConfig{
		Name: "slow", Archs: []string{"x86"}, Slots: 2,
		Codelets: []*taskrt.Codelet{cl},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Once tripped, "slow" stops heartbeating (503) but still finishes its
	// execute requests after a delay long past death detection, so its late
	// successes race the resubmitted copies: first-writer-wins must keep
	// each accumulation applied exactly once, or verification fails.
	proxy := &flakyProxy{inner: w2.Handler(), tripAt: 3, delay: 120 * time.Millisecond}
	srv2 := httptest.NewServer(proxy)
	t.Cleanup(srv2.Close)

	rt, err := taskrt.New(taskrt.Config{Platform: clusterPlatform(t)})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := submitTiledGemm(t, rt, cl, 64, 16)

	m := fastMaster(t, []NodeConfig{
		{Name: "ok", Addr: srv1.URL},
		{Name: "slow", Addr: srv2.URL},
	}, nil)
	rep, err := m.Run(rt)
	if err != nil {
		t.Fatal(err)
	}
	verifyGemm(t, a, b, c)
	total := 0
	for _, n := range rep.PerNode {
		total += n.Tasks
	}
	if total != rep.Tasks {
		t.Fatalf("per-node tasks sum to %d, want %d", total, rep.Tasks)
	}
}

func TestClusterNodeRejoinIsCleared(t *testing.T) {
	cl := gemmTestCodelet(t, 3*time.Millisecond)
	_, srv1 := startWorker(t, "steady", cl, WorkerConfig{Slots: 1})

	w2, err := NewWorker(WorkerConfig{
		Name: "bouncy", Archs: []string{"x86"}, Slots: 1,
		Codelets: []*taskrt.Codelet{cl},
	})
	if err != nil {
		t.Fatal(err)
	}
	proxy := &flakyProxy{inner: w2.Handler(), tripAt: 3}
	srv2 := httptest.NewServer(proxy)
	t.Cleanup(srv2.Close)
	// The node recovers mid-run: the master must clear its node-granularity
	// blacklist (and its residency beliefs) and hand it work again.
	recover := time.AfterFunc(60*time.Millisecond, func() { proxy.setTripped(false) })
	defer recover.Stop()

	rt, err := taskrt.New(taskrt.Config{Platform: clusterPlatform(t)})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := submitTiledGemm(t, rt, cl, 64, 16)

	m := fastMaster(t, []NodeConfig{
		{Name: "steady", Addr: srv1.URL},
		{Name: "bouncy", Addr: srv2.URL},
	}, nil)
	rep, err := m.Run(rt)
	if err != nil {
		t.Fatal(err)
	}
	verifyGemm(t, a, b, c)

	var bouncy NodeStats
	for _, n := range rep.PerNode {
		if n.Name == "bouncy" {
			bouncy = n
		}
	}
	if bouncy.Dead {
		t.Fatal("recovered node still blacklisted at end of run")
	}
	if bouncy.Tasks <= 2 {
		t.Fatalf("recovered node ran %d tasks, want more than its pre-death 2", bouncy.Tasks)
	}
}

func TestClusterRetryAfterMutatingFailure(t *testing.T) {
	// A kernel accumulates into a cache-resident C tile, then fails. The
	// retry must see canonical data (re-inlined by the master), not the
	// half-written resident copy: a double accumulation would corrupt the
	// numerical result without any error surfacing.
	var injected atomic.Bool
	cl, err := taskrt.NewCodelet("dgemm",
		taskrt.Impl{Arch: "x86", Func: func(tc *taskrt.TaskContext) error {
			a := tc.Payload(0).(*blas.Matrix)
			b := tc.Payload(1).(*blas.Matrix)
			c := tc.Payload(2).(*blas.Matrix)
			// Dirty C means a prior task of the chain accumulated into it,
			// so on a single node it is cache-resident — the case where a
			// post-mutation failure could poison the cache.
			dirty := false
			for _, v := range c.Data {
				if v != 0 {
					dirty = true
					break
				}
			}
			if err := blas.GemmPacked(a, b, c, 0); err != nil {
				return err
			}
			if dirty && injected.CompareAndSwap(false, true) {
				return fmt.Errorf("injected failure after mutating C")
			}
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	_, srv := startWorker(t, "solo", cl, WorkerConfig{Slots: 2})

	rt, err := taskrt.New(taskrt.Config{Platform: clusterPlatform(t)})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := submitTiledGemm(t, rt, cl, 32, 16)

	m := fastMaster(t, []NodeConfig{{Name: "solo", Addr: srv.URL}}, nil)
	rep, err := m.Run(rt)
	if err != nil {
		t.Fatal(err)
	}
	if !injected.Load() {
		t.Fatal("failure injection never fired; test exercised nothing")
	}
	if rep.FailedAttempts != 1 || rep.RetriedTasks != 1 {
		t.Fatalf("failures=%d retried=%d, want 1/1", rep.FailedAttempts, rep.RetriedTasks)
	}
	verifyGemm(t, a, b, c)
}

func TestClusterSuspectDeclaredNodeRejoins(t *testing.T) {
	// Transport errors on the data plane take a node down ahead of the
	// heartbeat's verdict while /healthz keeps answering. The heartbeat
	// goroutine must converge to the loop's view and re-announce the node,
	// or a single-node cluster aborts despite its node being healthy.
	cl := gemmTestCodelet(t, time.Millisecond)
	w, err := NewWorker(WorkerConfig{
		Name: "shaky", Archs: []string{"x86"}, Slots: 1,
		Codelets: []*taskrt.Codelet{cl},
	})
	if err != nil {
		t.Fatal(err)
	}
	proxy := &flakyProxy{inner: w.Handler(), tripAt: 1, execOnly: true}
	srv := httptest.NewServer(proxy)
	t.Cleanup(srv.Close)
	untrip := time.AfterFunc(60*time.Millisecond, func() { proxy.setTripped(false) })
	defer untrip.Stop()

	rt, err := taskrt.New(taskrt.Config{Platform: clusterPlatform(t)})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := submitTiledGemm(t, rt, cl, 32, 16)

	m := fastMaster(t, []NodeConfig{{Name: "shaky", Addr: srv.URL}}, func(cfg *Config) {
		cfg.AllDeadTimeout = 2 * time.Second
	})
	rep, err := m.Run(rt)
	if err != nil {
		t.Fatalf("suspect-declared node never rejoined: %v", err)
	}
	verifyGemm(t, a, b, c)
	if rep.PerNode[0].Dead {
		t.Fatal("healthy node still blacklisted at end of run")
	}
	if rep.FailedAttempts != 0 {
		t.Fatalf("transport errors consumed %d attempts, want 0", rep.FailedAttempts)
	}
}

// A codelet that always fails exhausts MaxAttempts (default 5), and the run
// ends with the give-up error naming the last node and the kernel's error.
func TestClusterGivesUpAfterMaxAttempts(t *testing.T) {
	cl, err := taskrt.NewCodelet("broken",
		taskrt.Impl{Arch: "x86", Func: func(*taskrt.TaskContext) error { return fmt.Errorf("kernel always fails") }})
	if err != nil {
		t.Fatal(err)
	}
	_, srv := startWorker(t, "solo", cl, WorkerConfig{})
	rt, err := taskrt.New(taskrt.Config{Platform: clusterPlatform(t)})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.NewHandle("C", 32, blas.NewMatrix(2, 2))
	if err := rt.SubmitBatch([]*taskrt.Task{{Codelet: cl, Accesses: []taskrt.Access{taskrt.RW(h)}}}); err != nil {
		t.Fatal(err)
	}
	m := fastMaster(t, []NodeConfig{{Name: "solo", Addr: srv.URL}}, nil)
	_, err = m.Run(rt)
	if err == nil {
		t.Fatal("a task that always fails must end the run")
	}
	for _, want := range []string{"failed 5 attempts, last on solo", "kernel always fails"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("run error %q does not contain %q", err, want)
		}
	}
}

// The retry of a failed execution runs as attempt 1: the worker stamps the
// request's attempt into its spans, so the merged trace shows the failed
// try at attempt 0 and the successful one at attempt 1.
func TestClusterRetrySpanCarriesAttempt(t *testing.T) {
	var failed atomic.Bool
	cl, err := taskrt.NewCodelet("once",
		taskrt.Impl{Arch: "x86", Func: func(*taskrt.TaskContext) error {
			if failed.CompareAndSwap(false, true) {
				return fmt.Errorf("first try fails")
			}
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	_, srv := startWorker(t, "solo", cl, WorkerConfig{})
	rt, err := taskrt.New(taskrt.Config{Platform: clusterPlatform(t)})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.NewHandle("C", 32, blas.NewMatrix(2, 2))
	task := &taskrt.Task{Codelet: cl, Accesses: []taskrt.Access{taskrt.RW(h)}, Label: "once"}
	if err := rt.SubmitBatch([]*taskrt.Task{task}); err != nil {
		t.Fatal(err)
	}
	m := fastMaster(t, []NodeConfig{{Name: "solo", Addr: srv.URL}}, func(cfg *Config) { cfg.Trace = trace.New() })
	rep, err := m.Run(rt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FailedAttempts != 1 || rep.RetriedTasks != 1 {
		t.Fatalf("failures=%d retried=%d, want 1/1", rep.FailedAttempts, rep.RetriedTasks)
	}
	attempts := map[trace.Kind][]int{}
	for _, e := range rep.Trace.Events() {
		if e.Node == "solo" && e.TaskID == task.ID() && (e.Kind == trace.Task || e.Kind == trace.Failure) {
			attempts[e.Kind] = append(attempts[e.Kind], e.Attempt)
		}
	}
	if got := attempts[trace.Failure]; len(got) != 1 || got[0] != 0 {
		t.Fatalf("failed worker spans carry attempts %v, want [0]", got)
	}
	if got := attempts[trace.Task]; len(got) != 1 || got[0] != 1 {
		t.Fatalf("successful worker spans carry attempts %v, want [1]", got)
	}
}

// The loop alone decides liveness from the heartbeat's probe outcomes: a
// good probe brings a node up, HeartbeatMisses consecutive failures take a
// live node down, failures while down count nothing, and rejoining clears
// the node's residency beliefs.
func TestProbeDrivesLiveness(t *testing.T) {
	const misses = 3
	m, err := NewMaster(Config{Nodes: []NodeConfig{{Name: "probed", Addr: "http://unused"}}, HeartbeatMisses: misses})
	if err != nil {
		t.Fatal(err)
	}
	n := &nodeState{cfg: m.cfg.Nodes[0], has: map[int]uint64{}}
	st := &runState{m: m, nodes: []*nodeState{n}, inflight: map[int]*inflightRec{}}
	counted := cm.hbMisses.With(n.cfg.Name)
	before := counted.Value()
	down := fmt.Errorf("probe failed")
	info := InfoResponse{Name: "probed", Archs: []string{"x86"}, Workers: 2}

	st.probe(n, info, nil)
	if !n.alive || n.credits != 4 {
		t.Fatalf("after a good probe: alive=%v credits=%d, want up with 4 credits", n.alive, n.credits)
	}
	n.has[7] = 1
	for i := 1; i < misses; i++ {
		st.probe(n, InfoResponse{}, down)
	}
	if !n.alive || n.misses != misses-1 {
		t.Fatalf("after %d misses: alive=%v misses=%d, want still up", misses-1, n.alive, n.misses)
	}
	st.probe(n, InfoResponse{}, down)
	if n.alive || n.misses != 0 || n.credits != 0 {
		t.Fatalf("after %d misses: alive=%v misses=%d credits=%d, want down with counts reset", misses, n.alive, n.misses, n.credits)
	}
	for i := 0; i < 2*misses; i++ {
		st.probe(n, InfoResponse{}, down)
	}
	if n.alive || n.misses != 0 {
		t.Fatalf("failed probes of a down node: alive=%v misses=%d, want down and uncounted", n.alive, n.misses)
	}
	if got := counted.Value() - before; got != misses {
		t.Fatalf("heartbeat miss counter rose by %g, want %d (misses while down are not counted)", got, misses)
	}
	st.probe(n, info, nil)
	if !n.alive || n.credits != 4 || len(n.has) != 0 {
		t.Fatalf("after rejoin: alive=%v credits=%d residency=%v, want up, full credit, no residency", n.alive, n.credits, n.has)
	}
}

// Dispatch charges a node exec + transfer; the result must release the
// whole charge, so a finished task leaves nothing in the node's backlog.
func TestDispatchReleasesWholeCharge(t *testing.T) {
	noop, err := taskrt.NewCodelet("noop",
		taskrt.Impl{Arch: "x86", Func: func(*taskrt.TaskContext) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	_, srv := startWorker(t, "lan", noop, WorkerConfig{})
	m, err := NewMaster(Config{Nodes: []NodeConfig{{Name: "lan", Addr: srv.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := taskrt.New(taskrt.Config{Platform: clusterPlatform(t)})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.NewHandle("C", 1<<20, blas.NewMatrix(2, 2))
	if err := rt.SubmitBatch([]*taskrt.Task{{Codelet: noop, Accesses: []taskrt.Access{taskrt.RW(h)}}}); err != nil {
		t.Fatal(err)
	}
	tasks, handles, err := rt.Graph()
	if err != nil {
		t.Fatal(err)
	}
	n := &nodeState{cfg: m.cfg.Nodes[0], alive: true, credits: 1, has: map[int]uint64{}}
	n.latNanos, n.nanosPerByte = m.routeCost("")
	st := &runState{
		m: m, tasks: tasks, handles: handles,
		ver:   make([]uint64, len(handles)),
		indeg: map[int]int{},
		done:  map[int]bool{}, inflight: map[int]*inflightRec{},
		events: make(chan event, 4), stop: make(chan struct{}),
		start: time.Now(),
		nodes: []*nodeState{n},
	}
	defer close(st.stop)

	c, node, ok := st.choose(tasks[0])
	if !ok || node != n || c.Transfer <= 0 {
		t.Fatalf("placement = %+v on %v, want node lan with the operand priced to inline", c, node)
	}
	st.dispatch(tasks[0], c, node)
	if n.backlog != c.Exec+c.Transfer {
		t.Fatalf("dispatch charged %g ns, want exec %g + transfer %g", n.backlog, c.Exec, c.Transfer)
	}
	ev := <-st.events
	if ev.err != nil || ev.resp == nil || !ev.resp.OK {
		t.Fatalf("execute round-trip: err=%v resp=%+v", ev.err, ev.resp)
	}
	if done, err := st.handleResult(ev); !done || err != nil {
		t.Fatalf("applying the success: done=%v err=%v", done, err)
	}
	if n.backlog != 0 || n.credits != 1 {
		t.Fatalf("after the task finished: backlog=%g ns credits=%d, want 0 and 1", n.backlog, n.credits)
	}
}

func TestHandleResultInBandOutcomesClearSuspects(t *testing.T) {
	// Any completed execute round-trip proves transport is healthy: both
	// the NeedData bounce and the in-band failure must reset the node's
	// consecutive-transport-suspect counter, and the in-band failure must
	// also drop residency for the handles the failed kernel may have
	// mutated (the worker dropped its cache entries for them).
	m, err := NewMaster(Config{Nodes: []NodeConfig{{Name: "n", Addr: "http://unused"}}})
	if err != nil {
		t.Fatal(err)
	}
	noop, err := taskrt.NewCodelet("noop",
		taskrt.Impl{Arch: "x86", Func: func(*taskrt.TaskContext) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := taskrt.New(taskrt.Config{Platform: clusterPlatform(t)})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.NewHandle("C", 32, blas.NewMatrix(2, 2))
	if err := rt.SubmitBatch([]*taskrt.Task{{Codelet: noop, Accesses: []taskrt.Access{taskrt.RW(h)}}}); err != nil {
		t.Fatal(err)
	}
	tasks, handles, err := rt.Graph()
	if err != nil {
		t.Fatal(err)
	}
	n := &nodeState{cfg: NodeConfig{Name: "n"}, alive: true, has: map[int]uint64{}}
	st := &runState{
		m: m, tasks: tasks, handles: handles,
		ver:   make([]uint64, len(handles)),
		indeg: map[int]int{},
		done:  map[int]bool{}, inflight: map[int]*inflightRec{},
		events: make(chan event, 4), stop: make(chan struct{}),
		start: time.Now(),
		nodes: []*nodeState{n},
	}
	defer close(st.stop)
	task := tasks[0]
	specs := []AccessSpec{{HandleID: h.ID(), Name: "C", Mode: int(taskrt.ReadWrite), Version: 0}}

	// NeedData bounce: suspects reset, stale residency dropped.
	n.suspects, n.has[h.ID()] = 1, 0
	rec := &inflightRec{task: task, node: n, specs: specs}
	st.inflight[task.ID()] = rec
	if done, err := st.handleResult(event{kind: evResult, rec: rec,
		resp: &ExecResponse{TaskID: task.ID(), NeedData: []int{h.ID()}}}); done || err != nil {
		t.Fatalf("NeedData handling: done=%v err=%v", done, err)
	}
	if n.suspects != 0 {
		t.Fatalf("NeedData round-trip left suspects=%d, want 0", n.suspects)
	}
	if _, resident := n.has[h.ID()]; resident {
		t.Fatal("NeedData must drop the stale residency belief")
	}

	// In-band failure: suspects reset, written-handle residency dropped.
	st.ready = nil
	n.suspects, n.has[h.ID()] = 1, 1
	rec = &inflightRec{task: task, node: n, specs: specs}
	st.inflight[task.ID()] = rec
	if done, err := st.handleResult(event{kind: evResult, rec: rec,
		resp: &ExecResponse{TaskID: task.ID(), Error: "kernel exploded"}}); done || err != nil {
		t.Fatalf("in-band failure handling: done=%v err=%v", done, err)
	}
	if n.suspects != 0 {
		t.Fatalf("in-band failure left suspects=%d, want 0", n.suspects)
	}
	if _, resident := n.has[h.ID()]; resident {
		t.Fatal("in-band failure must drop residency of written handles (worker dropped its copy)")
	}
}

func TestMasterValidation(t *testing.T) {
	if _, err := NewMaster(Config{}); err == nil {
		t.Fatal("no nodes must fail")
	}
	if _, err := NewMaster(Config{Nodes: []NodeConfig{{Name: "a"}}}); err == nil {
		t.Fatal("missing addr must fail")
	}
	if _, err := NewMaster(Config{Nodes: []NodeConfig{
		{Name: "a", Addr: "http://x"}, {Name: "a", Addr: "http://y"},
	}}); err == nil {
		t.Fatal("duplicate node name must fail")
	}
}

func TestMasterNoRunnableCodelet(t *testing.T) {
	// A worker that advertises no runnable codelet for the submitted work:
	// the master must fail fast instead of hanging.
	other, err := taskrt.NewCodelet("other",
		taskrt.Impl{Arch: "x86", Func: func(*taskrt.TaskContext) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	_, srv := startWorker(t, "w", other, WorkerConfig{})

	cl := gemmTestCodelet(t, 0)
	rt, err := taskrt.New(taskrt.Config{Platform: clusterPlatform(t)})
	if err != nil {
		t.Fatal(err)
	}
	submitTiledGemm(t, rt, cl, 16, 16)

	m := fastMaster(t, []NodeConfig{{Name: "w", Addr: srv.URL}}, nil)
	if _, err := m.Run(rt); err == nil {
		t.Fatal("unrunnable codelet must error, not hang")
	}
}

// TestClusterMergedTraceSpans verifies the distributed trace propagation
// path end to end in-process: worker-side kernel spans ride back on execute
// responses, the master stitches them (with the master's own placement
// instants) into one epoch-aligned timeline, and every span keeps its
// causal identity.
func TestClusterMergedTraceSpans(t *testing.T) {
	cl := gemmTestCodelet(t, 0)
	tr := trace.New()
	_, srv1 := startWorker(t, "w1", cl, WorkerConfig{Slots: 2})
	_, srv2 := startWorker(t, "w2", cl, WorkerConfig{Slots: 2})

	rt, err := taskrt.New(taskrt.Config{Platform: clusterPlatform(t)})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := submitTiledGemm(t, rt, cl, 64, 16)

	m := fastMaster(t, []NodeConfig{
		{Name: "w1", Addr: srv1.URL},
		{Name: "w2", Addr: srv2.URL},
	}, func(cfg *Config) { cfg.Trace = tr })
	rep, err := m.Run(rt)
	if err != nil {
		t.Fatal(err)
	}
	verifyGemm(t, a, b, c)

	if rep.Trace == nil {
		t.Fatal("report carries no merged trace")
	}
	spans := map[string]int{}
	taskIDs := map[int]bool{}
	for _, e := range rep.Trace.Events() {
		if e.Kind != trace.Task || e.Worker == 0 && e.Node == "" {
			continue
		}
		if e.Node != "w1" && e.Node != "w2" {
			t.Fatalf("kernel span with unexpected node %q", e.Node)
		}
		if e.Label == "" {
			t.Fatalf("kernel span lost causal identity: %+v", e)
		}
		if e.End < e.Start {
			t.Fatalf("kernel span with negative duration: %+v", e)
		}
		spans[e.Node]++
		taskIDs[e.TaskID] = true
	}
	for _, node := range []string{"w1", "w2"} {
		if spans[node] == 0 {
			t.Fatalf("merged trace has no kernel spans from %s (got %v)", node, spans)
		}
	}
	if spans["w1"]+spans["w2"] < rep.Tasks {
		t.Fatalf("merged trace has %d kernel spans for %d tasks", spans["w1"]+spans["w2"], rep.Tasks)
	}
	if len(taskIDs) != rep.Tasks {
		t.Fatalf("kernel spans cover %d distinct task ids, want %d", len(taskIDs), rep.Tasks)
	}
	if len(tr.OfKind(trace.Place)) == 0 {
		t.Fatal("master placement instants missing from the run trace")
	}
	// The merged trace is also published for /debug/trace.
	if trace.Published() == nil {
		t.Fatal("run finished without publishing the merged trace")
	}
}

// TestStragglerDetection injects a gray failure — one node that stays
// correct but runs every kernel ~40x slower than the perfmodel estimate —
// and asserts the master's detector flags it: straggler counters in the
// report, a Straggler trace instant naming the node, and placement
// back-pressure that drains work toward the healthy node.
func TestStragglerDetection(t *testing.T) {
	cl := gemmTestCodelet(t, time.Millisecond)
	tr := trace.New()
	_, fastSrv := startWorker(t, "strag-fast", cl, WorkerConfig{Slots: 2})
	_, slowSrv := startWorker(t, "strag-slow", cl, WorkerConfig{
		Slots: 2,
		Faults: &taskrt.FaultPlan{Events: []taskrt.FaultEvent{
			{Unit: "strag-slow", Delay: 0.04},
		}},
	})

	rt, err := taskrt.New(taskrt.Config{Platform: clusterPlatform(t)})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := submitTiledGemm(t, rt, cl, 64, 16)

	// Seed the model the placement will use, so the very first executions
	// compare against a realistic estimate instead of running cold.
	models := perfmodel.NewStore()
	if err := models.Model("dgemm", "x86").Record(blas.FlopsGEMM(16, 16, 16), 1.2e-3); err != nil {
		t.Fatal(err)
	}

	m := fastMaster(t, []NodeConfig{
		{Name: "strag-fast", Addr: fastSrv.URL},
		{Name: "strag-slow", Addr: slowSrv.URL},
	}, func(cfg *Config) {
		cfg.Trace = tr
		cfg.Models = models
		cfg.Straggler = StragglerConfig{Multiple: 6, MinSamples: 1, Alpha: 0.5}
	})
	rep, err := m.Run(rt)
	if err != nil {
		t.Fatal(err)
	}
	verifyGemm(t, a, b, c) // slow, not wrong: results must stay correct

	if rep.Stragglers == 0 {
		t.Fatal("no stragglers flagged despite a 40ms injected delay vs a ~1ms estimate")
	}
	var fast, slow NodeStats
	for _, n := range rep.PerNode {
		switch n.Name {
		case "strag-fast":
			fast = n
		case "strag-slow":
			slow = n
		}
	}
	if slow.Stragglers == 0 {
		t.Fatalf("slow node not flagged: %+v", rep.PerNode)
	}
	if slow.Slowdown <= 1 {
		t.Fatalf("slow node slowdown score = %.2f, want > 1", slow.Slowdown)
	}
	if fast.Tasks <= slow.Tasks {
		t.Fatalf("placement did not drain toward the healthy node: fast=%d slow=%d tasks",
			fast.Tasks, slow.Tasks)
	}
	events := tr.OfKind(trace.Straggler)
	if len(events) == 0 {
		t.Fatal("no Straggler trace instants recorded")
	}
	for _, e := range events {
		if e.Node != "strag-slow" {
			t.Fatalf("straggler instant flagged node %q, want strag-slow", e.Node)
		}
		if e.From == "" {
			t.Fatal("straggler instant carries no reason")
		}
	}
}

// --- placement, link pricing, retry backoff ---

// Cold nodes bid the pool-wide observed mean, and the scan start rotates
// across decisions so equal bids spread instead of piling onto node 0.
func TestChooseColdNodesSpreadAndBidPoolMean(t *testing.T) {
	m, err := NewMaster(Config{Nodes: []NodeConfig{{Name: "a", Addr: "http://a"}, {Name: "b", Addr: "http://b"}}})
	if err != nil {
		t.Fatal(err)
	}
	st := &runState{m: m}
	for _, nc := range m.cfg.Nodes {
		st.nodes = append(st.nodes, &nodeState{cfg: nc, alive: true, credits: 4, has: map[int]uint64{}})
	}
	task := &taskrt.Task{Codelet: gemmTestCodelet(t, 0)}

	// No history anywhere: equal zero bids, so consecutive decisions
	// alternate nodes rather than both landing on the first.
	c1, n1, ok1 := st.choose(task)
	_, n2, ok2 := st.choose(task)
	if !ok1 || !ok2 || n1 == n2 {
		t.Fatalf("cold placements %v, %v landed on the same node", n1.cfg.Name, n2.cfg.Name)
	}
	if c1.Source != taskrt.PlaceCold || c1.Exec != 0 {
		t.Fatalf("cold pool placement = %q %g ns, want cold 0", c1.Source, c1.Exec)
	}

	// Node a has history (5 ms mean) and a 10 ms backlog; cold node b bids
	// the pool mean, 5 ms — not an absolute constant.
	a, b := st.nodes[0], st.nodes[1]
	a.obsCount, a.obsMean, a.backlog = 1, 5e6, 10e6
	for i := 0; i < 2; i++ {
		c, n, ok := st.choose(task)
		if !ok || n != b || c.Source != taskrt.PlaceCold || c.Exec != 5e6 {
			t.Fatalf("placement %d = %s %q %g ns, want b cold 5e6", i, n.cfg.Name, c.Source, c.Exec)
		}
	}
}

// A node with a declared route prices it link by link (missing properties
// at core's default pair); only a node without a declared route is a LAN
// hop.
func TestMasterRouteCost(t *testing.T) {
	pl, err := core.NewBuilder("lan").
		Master("head", core.Arch("x86")).
		Master("n1", core.Arch("x86")).
		Master("n2", core.Arch("x86")).
		Master("n3", core.Arch("x86")).
		Link(core.ICTypeRDMA, "head", "n1", core.Bandwidth(2), core.Latency(50)).
		Link(core.ICTypeRDMA, "head", "n2").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaster(Config{Nodes: []NodeConfig{{Name: "a", Addr: "http://a"}}, Platform: pl, MasterPU: "head"})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		pu                     string
		latNanos, nanosPerByte float64
	}{
		{"n1", 50e3, 1e9 / (2 << 30)},
		{"n2", 10e3, 1e9 / (5 << 30)},
		{"n3", 200e3, 1e9 / (1 << 30)},
		{"", 200e3, 1e9 / (1 << 30)},
	} {
		lat, perByte := m.routeCost(c.pu)
		if math.Abs(lat-c.latNanos) > 1e-6 || math.Abs(perByte-c.nanosPerByte) > 1e-12 {
			t.Errorf("routeCost(%q) = %g ns + %g ns/B, want %g + %g", c.pu, lat, perByte, c.latNanos, c.nanosPerByte)
		}
	}
}

// The first retry waits BackoffBase, later ones double, capped.
func TestMasterRetryDelay(t *testing.T) {
	m, err := NewMaster(Config{Nodes: []NodeConfig{{Name: "a", Addr: "http://a"}},
		BackoffBase: 10 * time.Millisecond, BackoffCap: 35 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for attempts, want := range []time.Duration{10, 10, 20, 35, 35} {
		if got := m.retryDelay(attempts); got != want*time.Millisecond {
			t.Errorf("retryDelay(%d) = %v, want %v", attempts, got, want*time.Millisecond)
		}
	}
	if got := m.retryDelay(1 << 20); got != 35*time.Millisecond {
		t.Errorf("retryDelay(huge) = %v, want the cap", got)
	}
}
