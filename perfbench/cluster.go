package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blas"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/taskrt"
)

// spanHeader carries the id of the benchmark's RPC span to the worker
// middleware, so the worker-side span names its cause.
const spanHeader = "X-Perfbench-Span"

// workerTraceCap bounds each worker's buffer of execution spans. A worker
// flushes its trace shard after every execution, and the next Record then
// allocates a fresh 1024-event chunk for a single event, so the default cap
// of 64k events can pin several GB. 256 events keep that under 50 MB per
// worker, still visible in rss_peak_mb.
const workerTraceCap = 256

// gemmProblem is one seeded C += A·B input with its reference result.
type gemmProblem struct {
	n, tile    int
	a, b, c, r *blas.Matrix
}

func newGemmProblem(n, tile int, seed int64) (*gemmProblem, error) {
	p := &gemmProblem{n: n, tile: tile, a: blas.NewMatrix(n, n), b: blas.NewMatrix(n, n), c: blas.NewMatrix(n, n)}
	p.a.FillRandom(seed)
	p.b.FillRandom(seed + 1)
	p.c.FillRandom(seed + 2)
	p.r = p.c.Clone()
	return p, blas.GemmPacked(p.a, p.b, p.r, blas.DefaultBlock)
}

// rpcRec is one /v1/execute round trip seen by the master's HTTP client.
type rpcRec struct {
	start, end       int64
	reqBytes, respBy int64
}

// handlerRec is one /v1/execute request seen by a worker's middleware;
// task is the index of the task whose kernel ran inside it (-1: none, e.g.
// a request bounced for missing cached data).
type handlerRec struct {
	start, end int64
	task       int
}

// clusterPass collects one traced pass's records. Its recorder is what
// the worker codelets write kernel records into.
type clusterPass struct {
	rec      recorder
	mu       sync.Mutex
	rpcs     []rpcRec
	handlers []handlerRec
	ran      sync.Map // goroutine id → task index, kernel → middleware
	group    int64
}

// clusterBench runs distributed tiled DGEMM through cluster.Master against
// two in-process loopback workers with one slot each.
type clusterBench struct {
	platform *core.Platform
	nodes    []cluster.NodeConfig
	servers  []*http.Server
	serving  sync.WaitGroup
	client   *http.Client
	big      *gemmProblem
	small    *gemmProblem
	cur      atomic.Pointer[clusterPass] // traced pass in progress, or nil
	traced   []clusterStats
	refGf    float64
}

// clusterStats is one traced pass: engine records plus protocol records.
type clusterStats struct {
	engine    passStats
	rpcs      []rpcRec
	handlers  []handlerRec
	resubmits int
}

func setupClusterGemm(seed int64) (bench, error) {
	pl, err := core.NewBuilder("cluster-master").Master("host", core.Arch("x86"), core.Qty(1)).Build()
	if err != nil {
		return nil, err
	}
	c := &clusterBench{platform: pl}
	if c.big, err = newGemmProblem(1024, 128, seed); err != nil {
		return nil, err
	}
	if c.small, err = newGemmProblem(128, 128, seed+3); err != nil {
		return nil, err
	}
	rec := func() *recorder {
		if p := c.cur.Load(); p != nil {
			return &p.rec
		}
		return nil
	}
	nodes := min(2, runtime.NumCPU())
	for i := 0; i < nodes; i++ {
		name := fmt.Sprintf("node%d", i)
		body := codeletFunc("dgemm", false, i, rec)
		cl, err := taskrt.NewCodelet("dgemm", taskrt.Impl{Arch: "x86", Func: func(tc *taskrt.TaskContext) error {
			err := body(tc)
			if p := c.cur.Load(); p != nil && err == nil {
				if idx, perr := strconv.Atoi(tc.Task.Label[1:]); perr == nil {
					p.ran.Store(goid(), idx)
				}
			}
			return err
		}})
		if err != nil {
			return nil, err
		}
		// workerTraceCap bounds the worker's span buffer; see its comment.
		w, err := cluster.NewWorker(cluster.WorkerConfig{Name: name, Codelets: []*taskrt.Codelet{cl}, Archs: []string{"x86"}, Slots: 1, TraceCap: workerTraceCap})
		if err != nil {
			c.close()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		srv := &http.Server{Handler: c.middleware(w.Handler())}
		c.serving.Add(1)
		go func() {
			defer c.serving.Done()
			srv.Serve(ln) // returns once close shuts the server
		}()
		c.servers = append(c.servers, srv)
		c.nodes = append(c.nodes, cluster.NodeConfig{Name: name, Addr: "http://" + ln.Addr().String()})
	}
	c.client = &http.Client{Transport: &timingTransport{base: http.DefaultTransport.(*http.Transport).Clone(), c: c}}
	return c, nil
}

// middleware times every /v1/execute request a worker serves during a
// traced pass and learns, through the goroutine id, which kernel ran in it.
func (c *clusterBench) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p := c.cur.Load()
		if p == nil || r.URL.Path != cluster.PathExecute {
			next.ServeHTTP(w, r)
			return
		}
		tr := p.rec.tr
		g := goid()
		start := tr.now()
		next.ServeHTTP(w, r)
		end := tr.now()
		task := -1
		if v, ok := p.ran.LoadAndDelete(g); ok {
			task = v.(int)
		}
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		tr.add(span{Parent: parent, Group: p.group, Name: "cluster.worker.execute", Lane: r.Host, Start: start, End: end})
		p.mu.Lock()
		p.handlers = append(p.handlers, handlerRec{start: start, end: end, task: task})
		p.mu.Unlock()
	})
}

// timingTransport is the master's data-plane transport: during a traced
// pass it times each /v1/execute round trip, counting request and response
// bytes, and tags the request with its span id.
type timingTransport struct {
	base *http.Transport
	c    *clusterBench
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	p := t.c.cur.Load()
	if p == nil || req.URL.Path != cluster.PathExecute {
		return t.base.RoundTrip(req)
	}
	tr := p.rec.tr
	id := tr.id()
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	var body *countingReader
	if req.Body != nil {
		body = &countingReader{r: req.Body}
		req.Body = body
	}
	start := tr.now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingReader{r: resp.Body, onClose: func(n int64) {
		end := tr.now()
		var sent int64
		if body != nil {
			sent = body.n.Load()
		}
		tr.add(span{ID: id, Parent: p.group, Group: p.group, Name: "cluster.rpc.execute", Start: start, End: end})
		p.mu.Lock()
		p.rpcs = append(p.rpcs, rpcRec{start: start, end: end, reqBytes: sent, respBy: n})
		p.mu.Unlock()
	}}
	return resp, nil
}

// countingReader counts the bytes read through it and reports the count
// once on Close.
type countingReader struct {
	r       io.ReadCloser
	n       atomic.Int64
	once    sync.Once
	onClose func(n int64)
}

func (c *countingReader) Read(b []byte) (int, error) {
	k, err := c.r.Read(b)
	c.n.Add(int64(k))
	return k, err
}

func (c *countingReader) Close() error {
	err := c.r.Close()
	if c.onClose != nil {
		c.once.Do(func() { c.onClose(c.n.Load()) })
	}
	return err
}

func (c *clusterBench) pass(tr *tracer) (float64, error) { return c.solve(c.big, tr) }

// job runs one single-tile GEMM through a fresh master. With one task every
// operand travels inline, so the masters of two concurrent requests never
// read each other's handles from the workers' caches (handle ids restart at
// 0 in every runtime).
func (c *clusterBench) job(_ int64, _ *tracer) error {
	_, err := c.solve(c.small, nil)
	return err
}

// solve multiplies through the cluster and checks C against the local
// reference. The solve time runs from the first Submit to Run returning.
func (c *clusterBench) solve(p *gemmProblem, tr *tracer) (float64, error) {
	rt, err := taskrt.New(taskrt.Config{Platform: c.platform})
	if err != nil {
		return 0, err
	}
	cm := p.c.Clone()
	atA, T, err := tileHandles(rt, "A", p.a, p.n, p.tile)
	if err != nil {
		return 0, err
	}
	atB, _, _ := tileHandles(rt, "B", p.b, p.n, p.tile)
	atC, _, _ := tileHandles(rt, "C", cm, p.n, p.tile)
	// The master only names the codelet; its body runs on the workers.
	cl, err := taskrt.NewCodelet("dgemm", taskrt.Impl{Arch: "x86", Func: codeletFunc("dgemm", false, -1, func() *recorder { return nil })})
	if err != nil {
		return 0, err
	}
	g := newDAG()
	for i := 0; i < T; i++ {
		for j := 0; j < T; j++ {
			for k := 0; k < T; k++ {
				g.add(cl, blas.FlopsGEMM(p.tile, p.tile, p.tile), 0, taskrt.R(atA(i, k)), taskrt.R(atB(k, j)), taskrt.RW(atC(i, j)))
			}
		}
	}
	m, err := cluster.NewMaster(cluster.Config{Nodes: c.nodes, HTTP: c.client, HeartbeatEvery: 100 * time.Millisecond, PublishEvery: -1})
	if err != nil {
		return 0, err
	}
	var cp *clusterPass
	if tr != nil {
		cp = &clusterPass{rec: recorder{tr: tr, recs: make([]taskRec, len(g.tasks))}, group: tr.id()}
		c.cur.Store(cp)
		defer c.cur.Store(nil)
	}
	t0 := tr.now()
	start := time.Now()
	if err := rt.SubmitBatch(g.tasks); err != nil {
		return 0, err
	}
	submitted := time.Now()
	rep, err := m.Run(rt)
	wall := time.Since(start).Seconds()
	if err != nil {
		return 0, err
	}
	if d := blas.MaxDiff(cm, p.r); !(d < 1e-8) {
		return 0, fmt.Errorf("distributed C n=%d differs from GemmPacked by %g", p.n, d)
	}
	if cp == nil {
		return wall, nil
	}
	c.cur.Store(nil)
	tr.add(span{ID: cp.group, Group: cp.group, Name: "cluster.pass", Start: t0, End: tr.now()})
	for i, r := range cp.rec.recs {
		tr.add(span{Parent: cp.group, Group: cp.group, Name: "blas." + g.meta[i].Kernel, Lane: fmt.Sprint("node", r.Worker), Start: r.Start, End: r.KernelEnd})
	}
	st := clusterStats{
		engine: passStats{Wall: wall, Submit: submitted.Sub(start).Seconds(), Workers: len(c.nodes),
			Tasks: g.meta, Recs: cp.rec.recs},
		rpcs: cp.rpcs, handlers: cp.handlers, resubmits: rep.Resubmissions,
	}
	if err := st.engine.checkAccounting(); err != nil {
		return 0, err
	}
	if len(c.traced) < maxTracedPasses {
		c.traced = append(c.traced, st)
	}
	return wall, nil
}

func (c *clusterBench) layers(m metrics) {
	var engine []passStats
	var rpcMs, handleMs, overheadMs, kernelMs, reqMB, respMB, ship, util, count []float64
	resubmits := 0
	for _, st := range c.traced {
		engine = append(engine, st.engine)
		var req, resp int64
		for _, r := range st.rpcs {
			rpcMs = append(rpcMs, float64(r.end-r.start)/1e6)
			req += r.reqBytes
			resp += r.respBy
		}
		count = append(count, float64(len(st.rpcs)))
		reqMB = append(reqMB, float64(req)/1e6)
		respMB = append(respMB, float64(resp)/1e6)
		ship = append(ship, shipRatio(req, resp, c.big.n))
		busy := 0.0
		for _, r := range st.engine.Recs {
			k := float64(r.KernelEnd-r.Start) / 1e6
			kernelMs = append(kernelMs, k)
			busy += k / 1e3
		}
		util = append(util, busy/(float64(st.engine.Workers)*st.engine.Wall))
		for _, h := range st.handlers {
			d := float64(h.end-h.start) / 1e6
			handleMs = append(handleMs, d)
			if h.task >= 0 {
				r := st.engine.Recs[h.task]
				overheadMs = append(overheadMs, d-float64(r.End-r.Start)/1e6)
			}
		}
		resubmits += st.resubmits
	}
	if c.refGf == 0 {
		c.refGf = refGemmGflops(c.big.tile, 1, 200*time.Millisecond)
	}
	engineLayers(engine, c.refGf, m)
	m.set("cluster.rpc_count", median(count), "count")
	m.set("cluster.rpc_ms.p50", quantile(rpcMs, 0.5), "ms")
	m.set("cluster.rpc_ms.p99", quantile(rpcMs, 0.99), "ms")
	m.set("cluster.req_mb", median(reqMB), "MB")
	m.set("cluster.resp_mb", median(respMB), "MB")
	m.set("cluster.ship_ratio", median(ship), "ratio")
	m.set("cluster.worker_handle_ms.p50", quantile(handleMs, 0.5), "ms")
	m.set("cluster.worker_overhead_ms.p50", quantile(overheadMs, 0.5), "ms")
	m.set("cluster.kernel_ms.p50", quantile(kernelMs, 0.5), "ms")
	m.set("cluster.node_util", median(util), "ratio")
	m.set("cluster.resubmits", float64(resubmits), "count")
}

func (c *clusterBench) close() {
	for _, s := range c.servers {
		s.Close()
	}
	c.serving.Wait()
	c.servers = nil
	if c.client != nil {
		c.client.CloseIdleConnections()
	}
}
