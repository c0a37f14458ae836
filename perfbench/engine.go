package main

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/blas"
	"repro/internal/partition"
	"repro/internal/taskrt"
)

// slowRate is the extra-work rate of the "x86slow" architecture: after the
// real kernel, a slow worker sleeps flops/slowRate seconds.
const slowRate = 5e7

// dagTask is the benchmark's own view of one task of a DAG it built.
type dagTask struct {
	Kernel string
	Flops  float64
	Preds  []int
}

// taskRec is one traced task execution, in tracer time (ns). Start to
// KernelEnd is the blas kernel; KernelEnd to End is the emulated slow-down
// of an x86slow worker (empty on a fast one).
type taskRec struct {
	Start, KernelEnd, End int64
	Worker                int
	Fast                  bool
	Done                  bool
}

// dag builds a task graph over tile handles and derives each task's
// predecessors with the runtime's own rule: a reader follows the last
// writer of each handle; a writer also follows every reader since then.
type dag struct {
	tasks   []*taskrt.Task
	meta    []dagTask
	lastW   map[*taskrt.Handle]int
	readers map[*taskrt.Handle][]int
}

func newDAG() *dag {
	return &dag{lastW: map[*taskrt.Handle]int{}, readers: map[*taskrt.Handle][]int{}}
}

func (g *dag) add(cl *taskrt.Codelet, flops float64, prio int, acc ...taskrt.Access) {
	i := len(g.tasks)
	seen := map[int]bool{}
	var preds []int
	dep := func(p int) {
		if !seen[p] {
			seen[p] = true
			preds = append(preds, p)
		}
	}
	for _, a := range acc {
		if w, ok := g.lastW[a.Handle]; ok {
			dep(w)
		}
		if a.Mode.Writes() {
			for _, r := range g.readers[a.Handle] {
				dep(r)
			}
		}
	}
	for _, a := range acc {
		if a.Mode.Writes() {
			g.lastW[a.Handle] = i
			delete(g.readers, a.Handle)
		} else {
			g.readers[a.Handle] = append(g.readers[a.Handle], i)
		}
	}
	sort.Ints(preds)
	g.tasks = append(g.tasks, &taskrt.Task{
		Codelet: cl, Accesses: acc, Flops: flops, Priority: prio,
		Label: "t" + strconv.Itoa(i),
	})
	g.meta = append(g.meta, dagTask{Kernel: cl.Name, Flops: flops, Preds: preds})
}

// tileHandles registers one handle per tile of m (n×n, tile×tile).
func tileHandles(rt *taskrt.Runtime, name string, m *blas.Matrix, n, tile int) (func(i, j int) *taskrt.Handle, int, error) {
	tiles, err := partition.Grid2D(n, n, tile, tile)
	if err != nil {
		return nil, 0, err
	}
	_, cols := partition.GridDims(n, n, tile, tile)
	hs := make([]*taskrt.Handle, len(tiles))
	for k, t := range tiles {
		hs[k] = rt.NewHandle(fmt.Sprintf("%s[%d,%d]", name, t.I, t.J), int64(t.M)*int64(t.N)*8, m.Sub(t.Row, t.Col, t.M, t.N))
	}
	return func(i, j int) *taskrt.Handle { return hs[i*cols+j] }, cols, nil
}

// kernels maps a codelet name to the blas kernel it runs, taking the task
// payloads in access order (the last one is written).
var kernels = map[string]func(p []any) error{
	"potrf":    func(p []any) error { return blas.Potrf(mat(p, 0)) },
	"getrf":    func(p []any) error { return blas.Getrf(mat(p, 0)) },
	"trsm_rlt": func(p []any) error { return blas.TrsmRLT(mat(p, 0), mat(p, 1)) },
	"syrk_nt":  func(p []any) error { return blas.SyrkNT(mat(p, 0), mat(p, 1)) },
	"trsm_llu": func(p []any) error { return blas.TrsmLLUnit(mat(p, 0), mat(p, 1)) },
	"trsm_ru":  func(p []any) error { return blas.TrsmRU(mat(p, 0), mat(p, 1)) },
	"gemm_nt":  func(p []any) error { return blas.GemmNT(mat(p, 0), mat(p, 1), mat(p, 2)) },
	"gemm_sub": func(p []any) error { return blas.GemmSub(mat(p, 0), mat(p, 1), mat(p, 2)) },
	"dgemm":    func(p []any) error { return blas.GemmPacked(mat(p, 0), mat(p, 1), mat(p, 2), blas.DefaultBlock) },
}

// kernelOrder fixes the order of the blas.gflops.* metrics.
var kernelOrder = []string{"potrf", "trsm_rlt", "syrk_nt", "gemm_nt", "getrf", "trsm_llu", "trsm_ru", "gemm_sub", "dgemm"}

func mat(p []any, i int) *blas.Matrix {
	m, _ := p[i].(*blas.Matrix)
	return m // a nil matrix makes the kernel fail its shape check
}

// recorder receives the task records of one pass. The codelet wrappers
// find their task by label ("t<index>"), so the same wrapper serves the
// in-process runtime and a cluster worker that only sees the label.
type recorder struct {
	tr   *tracer
	recs []taskRec
}

// codeletFunc wraps a blas kernel as a codelet body; slow adds the x86slow
// emulation after the kernel. rec returns the pass recorder (nil, or one
// with a nil tracer, when untraced). lane names the executing worker in the
// records; a negative lane takes the runtime's worker id.
func codeletFunc(kernel string, slow bool, lane int, rec func() *recorder) func(*taskrt.TaskContext) error {
	run := kernels[kernel]
	return func(tc *taskrt.TaskContext) error {
		r := rec()
		var tr *tracer
		if r != nil {
			tr = r.tr
		}
		t0 := tr.now()
		if err := run(tc.Data); err != nil {
			return err
		}
		t1 := tr.now()
		if slow {
			time.Sleep(time.Duration(tc.Task.Flops / slowRate * float64(time.Second)))
		}
		if tr != nil {
			i, err := strconv.Atoi(tc.Task.Label[1:])
			if err != nil || i < 0 || i >= len(r.recs) {
				return fmt.Errorf("perfbench: task label %q outside the traced pass", tc.Task.Label)
			}
			w := lane
			if w < 0 {
				w = tc.WorkerID
			}
			r.recs[i] = taskRec{Start: t0, KernelEnd: t1, End: tr.now(), Worker: w, Fast: !slow, Done: true}
		}
		return nil
	}
}

// maxTracedPasses bounds how many traced passes a run keeps for the
// per-layer metrics, so fine-grained DAGs stay small in memory.
const maxTracedPasses = 8

// passStats is what one traced engine pass contributes to the per-layer
// metrics.
type passStats struct {
	Wall, Submit float64 // seconds: Submit→Run return, and SubmitBatch alone
	Workers      int
	Tasks        []dagTask
	Recs         []taskRec
	Steals       int
}

// checkAccounting verifies that a pass's worker time is fully accounted
// for: every task ran exactly once on a known worker, no worker ran two
// tasks at once, and each worker's busy time fits in the pass wall time, so
// busy plus non-busy time sums to workers × wall with no negative part.
func (p *passStats) checkAccounting() error {
	byWorker := map[int][]taskRec{}
	for i, r := range p.Recs {
		if !r.Done {
			return fmt.Errorf("perfbench: task %d has no execution record", i)
		}
		if r.Worker < 0 || r.Worker >= p.Workers {
			return fmt.Errorf("perfbench: task %d ran on worker %d of %d", i, r.Worker, p.Workers)
		}
		byWorker[r.Worker] = append(byWorker[r.Worker], r)
	}
	for w := 0; w < p.Workers; w++ {
		rs := byWorker[w]
		sort.Slice(rs, func(a, b int) bool { return rs[a].Start < rs[b].Start })
		busy := 0.0
		for k, r := range rs {
			if k > 0 && r.Start < rs[k-1].End {
				return fmt.Errorf("perfbench: worker %d runs two tasks at once", w)
			}
			busy += float64(r.End-r.Start) / 1e9
		}
		if busy > p.Wall*1.001 {
			return fmt.Errorf("perfbench: worker %d busy %.6fs in a %.6fs pass", w, busy, p.Wall)
		}
	}
	return nil
}

// engineLayers derives the blas and taskrt per-layer metrics from traced
// passes. refGflops is the same-run single-thread GemmPacked rate.
func engineLayers(passes []passStats, refGflops float64, m metrics) {
	kernFlops := map[string]float64{}
	kernSecs := map[string]float64{}
	var kernelS, submitUs, overheadUs, idle, critS, critRatio, steals, fastShare, lags []float64
	var sumKernel, sumSlow, sumOutside, sumSlots float64
	for _, p := range passes {
		n := float64(len(p.Recs))
		var kTotal, body, fast float64
		dur := make([]float64, len(p.Recs))
		preds := make([][]int, len(p.Recs))
		for i, r := range p.Recs {
			k := float64(r.KernelEnd-r.Start) / 1e9
			kernFlops[p.Tasks[i].Kernel] += p.Tasks[i].Flops
			kernSecs[p.Tasks[i].Kernel] += k
			kTotal += k
			dur[i] = float64(r.End-r.Start) / 1e9
			body += dur[i]
			if r.Fast {
				fast++
			}
			preds[i] = p.Tasks[i].Preds
			var ready int64 = -1
			for _, q := range p.Tasks[i].Preds {
				ready = max(ready, p.Recs[q].End)
			}
			if ready >= 0 {
				lags = append(lags, float64(r.Start-ready)/1e3)
			}
		}
		slots := float64(p.Workers) * p.Wall
		sumKernel += kTotal
		sumSlow += body - kTotal
		sumOutside += slots - body
		sumSlots += slots
		cp, _ := criticalPath(dur, preds)
		kernelS = append(kernelS, kTotal)
		submitUs = append(submitUs, p.Submit/n*1e6)
		overheadUs = append(overheadUs, (slots-body)/n*1e6)
		idle = append(idle, (slots-body)/slots)
		critS = append(critS, cp)
		critRatio = append(critRatio, p.Wall/cp)
		steals = append(steals, float64(p.Steals))
		fastShare = append(fastShare, fast/n)
	}
	fmt.Printf("worker time over %d traced passes: kernel %.4fs + slow-down %.4fs + outside tasks %.4fs = %.4fs = workers × pass wall time\n",
		len(passes), sumKernel, sumSlow, sumOutside, sumSlots)
	var allFlops, allSecs float64
	for _, k := range kernelOrder {
		gf := 0.0
		if kernSecs[k] > 0 {
			gf = kernFlops[k] / kernSecs[k] / 1e9
		}
		m.set("blas.gflops."+k, gf, "GF/s")
		allFlops += kernFlops[k]
		allSecs += kernSecs[k]
	}
	m.set("blas.kernel_s", median(kernelS), "s")
	m.set("blas.ref_gflops", refGflops, "GF/s")
	if allSecs > 0 && refGflops > 0 {
		m.set("blas.peak_frac", allFlops/allSecs/1e9/refGflops, "ratio")
	}
	m.set("taskrt.submit_us_per_task", median(submitUs), "us")
	m.set("taskrt.overhead_us_per_task", median(overheadUs), "us")
	m.set("taskrt.idle_frac", median(idle), "ratio")
	m.set("taskrt.ready_lag_us.p50", quantile(lags, 0.5), "us")
	m.set("taskrt.ready_lag_us.p99", quantile(lags, 0.99), "us")
	m.set("taskrt.critpath_s", median(critS), "s")
	m.set("taskrt.critpath_ratio", median(critRatio), "ratio")
	m.set("taskrt.steals", median(steals), "count")
	m.set("taskrt.fast_share", median(fastShare), "ratio")
}

// refGemmGflops times single-thread GemmPacked on tile×tile operands for
// about d and returns the median rate in GF/s.
func refGemmGflops(tile int, seed int64, d time.Duration) float64 {
	a, b, c := blas.NewMatrix(tile, tile), blas.NewMatrix(tile, tile), blas.NewMatrix(tile, tile)
	a.FillRandom(seed)
	b.FillRandom(seed + 1)
	flops := blas.FlopsGEMM(tile, tile, tile)
	var rates []float64
	for start := time.Now(); time.Since(start) < d || len(rates) < 5; {
		t0 := time.Now()
		if err := blas.GemmPacked(a, b, c, blas.DefaultBlock); err != nil {
			return 0
		}
		rates = append(rates, flops/time.Since(t0).Seconds()/1e9)
	}
	return median(rates)
}
