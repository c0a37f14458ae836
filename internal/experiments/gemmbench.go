package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/discover"
	"repro/internal/perfmodel"
	"repro/internal/taskrt"
	"repro/internal/trace"
)

// Ext-I: the measurable bench pipeline for the hot-path overhaul. Two
// instruments in one harness:
//
//   - kernel throughput: GFLOP/s of the GEMM kernel ladder (naive, blocked,
//     packed, packed-parallel) at one problem size, so the packed
//     micro-kernel's win over the scalar blocked baseline is a number, not a
//     claim; and
//   - dispatch overhead: wall time per task for a graph of trivial tasks
//     under the "ws" work-stealing dispatcher versus the model-driven "dmda"
//     dispatcher, with steal counts — isolating scheduler cost from kernel
//     cost (the tasks do no work).
//
// Results serialise to BENCH_gemm.json via WriteJSON so before/after runs
// diff mechanically.

// KernelPoint is one kernel measurement.
type KernelPoint struct {
	Kernel     string  `json:"kernel"`
	N          int     `json:"n"`
	Block      int     `json:"block"`
	Workers    int     `json:"workers,omitempty"`    // parallel kernels only
	GOMAXPROCS int     `json:"gomaxprocs,omitempty"` // scaling-matrix points only
	Seconds    float64 `json:"seconds"`              // best of reps
	GFlops     float64 `json:"gflops"`
}

// DispatchPoint is one scheduler-overhead measurement: a graph of `Tasks`
// independent no-op tasks executed on `Workers` real workers. Seconds and
// MicrosPerTask time Run only — the dispatch cost proper; submission cost is
// its own column so the batched submission path has an A/B number too.
type DispatchPoint struct {
	Scheduler           string  `json:"scheduler"`
	Workers             int     `json:"workers"`
	Tasks               int     `json:"tasks"`
	Seconds             float64 `json:"seconds"` // best-of-reps Run makespan
	MicrosPerTask       float64 `json:"us_per_task"`
	SubmitMicrosPerTask float64 `json:"submit_us_per_task,omitempty"`
	Steals              int     `json:"steals"`
}

// HeteroPoint is one heterogeneous-dispatch measurement: `Tasks` independent
// simulated kernels on one fast worker plus `SlowWorkers` workers of an
// architecture heteroSlowdown× slower — the setting where model-driven
// placement (dmda) should beat blind work-stealing (ws).
type HeteroPoint struct {
	Scheduler   string  `json:"scheduler"`
	FastWorkers int     `json:"fast_workers"`
	SlowWorkers int     `json:"slow_workers"`
	Tasks       int     `json:"tasks"`
	Seconds     float64 `json:"seconds"`    // best-of-reps makespan
	FastShare   float64 `json:"fast_share"` // fraction of tasks the fast worker executed
	Steals      int     `json:"steals"`
}

// HeteroTransferPoint is one transfer-heavy heterogeneous measurement:
// chains of dependent tasks, each chain updating its own multi-megabyte
// handle, on a two-node platform (fast master + slow master joined by a
// bandwidth/latency-annotated interconnect). The harness charges real sleep
// time whenever a chain's data crosses the interconnect, so a scheduler that
// ignores locality pays its migrations in wall clock.
type HeteroTransferPoint struct {
	Scheduler      string  `json:"scheduler"`
	Chains         int     `json:"chains"`
	Length         int     `json:"length"` // tasks per chain
	BytesPerHandle int64   `json:"bytes_per_handle"`
	Seconds        float64 `json:"seconds"`    // best-of-reps makespan
	FastShare      float64 `json:"fast_share"` // fraction executed on the fast node
	CrossNode      int     `json:"cross_node"` // executions that moved their chain's data
	Steals         int     `json:"steals"`
}

// GemmBenchData is the serialised form of one Ext-I run.
type GemmBenchData struct {
	Experiment     string                `json:"experiment"`  // "gemm-bench"
	MicroKernel    string                `json:"microkernel"` // "avx2" or "go"
	GOMAXPROCS     int                   `json:"gomaxprocs"`
	Kernels        []KernelPoint         `json:"kernels"`
	KernelMatrix   []KernelPoint         `json:"kernel_matrix,omitempty"` // workers×n scaling sweep
	Dispatch       []DispatchPoint       `json:"dispatch"`
	Hetero         []HeteroPoint         `json:"hetero,omitempty"`
	HeteroTransfer []HeteroTransferPoint `json:"hetero_transfer,omitempty"`
}

// bestOf runs f reps times and returns the fastest wall time. Minimum (not
// mean) because scheduling noise only ever adds time.
func bestOf(reps int, f func() error) (time.Duration, error) {
	best := time.Duration(0)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if d := time.Since(t0); best == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// GemmKernelBench measures the kernel ladder at one size. The naive kernel
// is skipped above n=512: at ~1 GFLOP/s it would dominate the harness
// runtime without adding information.
func GemmKernelBench(n, block, workers, reps int) ([]KernelPoint, error) {
	if reps < 1 {
		reps = 3
	}
	a, b := blas.NewMatrix(n, n), blas.NewMatrix(n, n)
	a.FillRandom(1)
	b.FillRandom(2)
	c := blas.NewMatrix(n, n)
	flops := blas.FlopsGEMM(n, n, n)
	type entry struct {
		name    string
		workers int
		run     func() error
	}
	entries := []entry{
		{"blocked", 0, func() error { return blas.GemmBlocked(a, b, c, block) }},
		{"packed", 0, func() error { return blas.GemmPacked(a, b, c, block) }},
		{"packed-parallel", workers, func() error { return blas.GemmPackedParallel(a, b, c, block, workers) }},
	}
	if n <= 512 {
		entries = append([]entry{{"naive", 0, func() error { return blas.GemmNaive(a, b, c) }}}, entries...)
	}
	var out []KernelPoint
	for _, e := range entries {
		d, err := bestOf(reps, func() error {
			c.Zero()
			return e.run()
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: gemm bench %s: %w", e.name, err)
		}
		out = append(out, KernelPoint{
			Kernel: e.name, N: n, Block: block, Workers: e.workers,
			Seconds: d.Seconds(), GFlops: flops / d.Seconds() / 1e9,
		})
	}
	return out, nil
}

// DispatchBench measures real-engine dispatch overhead: a fork graph of one
// no-op root with tasks-1 no-op dependents on `workers` workers under each
// scheduler. Task bodies are empty, so the timed Run makespan is almost
// entirely queue traffic — push, wake, take, steal. Platform discovery, task
// construction and submission happen outside the timed region (submission is
// timed separately into SubmitMicrosPerTask). The fork shape makes the
// work-stealing path observable: completing the root releases every
// dependent onto one worker's deque in a single batch, and the other workers
// must steal to participate.
//
// Scheduler-name suffixes select harness variants, so variants appear as A/B
// rows in one table: "+trace" (e.g. "ws+trace") runs the point with causal
// tracing enabled; "+batch" (e.g. "ws+batch") submits through SubmitBatch
// instead of a Submit loop.
func DispatchBench(tasks, workers, reps int, scheds ...string) ([]DispatchPoint, error) {
	if reps < 1 {
		reps = 3
	}
	if len(scheds) == 0 {
		scheds = []string{"ws", "dmda"}
	}
	noop, err := taskrt.NewCodelet("noop", taskrt.Impl{
		Arch: "x86",
		Func: func(*taskrt.TaskContext) error { return nil },
	})
	if err != nil {
		return nil, err
	}
	var out []DispatchPoint
	for _, name := range scheds {
		sched := name
		var traced, batched bool
		for {
			if s, ok := strings.CutSuffix(sched, "+trace"); ok {
				traced, sched = true, s
				continue
			}
			if s, ok := strings.CutSuffix(sched, "+batch"); ok {
				batched, sched = true, s
				continue
			}
			break
		}
		var steals int
		var bestRun, bestSubmit time.Duration
		for r := 0; r < reps; r++ {
			pl, err := discover.Platform("this-host")
			if err != nil {
				return nil, err
			}
			cfg := taskrt.Config{
				Platform: pl, Mode: taskrt.Real, Scheduler: sched, Workers: workers,
			}
			if traced {
				cfg.Trace = trace.New()
			}
			rt, err := taskrt.New(cfg)
			if err != nil {
				return nil, err
			}
			graph := make([]*taskrt.Task, 0, tasks)
			root := &taskrt.Task{Codelet: noop, Label: "root"}
			graph = append(graph, root)
			for i := 1; i < tasks; i++ {
				graph = append(graph, &taskrt.Task{
					Codelet: noop,
					Label:   fmt.Sprintf("noop%d", i),
					After:   []*taskrt.Task{root},
				})
			}
			t0 := time.Now()
			if batched {
				err = rt.SubmitBatch(graph)
			} else {
				for _, t := range graph {
					if err = rt.Submit(t); err != nil {
						break
					}
				}
			}
			submit := time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("experiments: dispatch bench %s: %w", name, err)
			}
			t1 := time.Now()
			rep, err := rt.Run()
			runD := time.Since(t1)
			if err != nil {
				return nil, fmt.Errorf("experiments: dispatch bench %s: %w", name, err)
			}
			if bestRun == 0 || runD < bestRun {
				bestRun, steals = runD, rep.Steals
			}
			if bestSubmit == 0 || submit < bestSubmit {
				bestSubmit = submit
			}
		}
		out = append(out, DispatchPoint{
			Scheduler: name, Workers: workers, Tasks: tasks,
			Seconds:             bestRun.Seconds(),
			MicrosPerTask:       bestRun.Seconds() / float64(tasks) * 1e6,
			SubmitMicrosPerTask: bestSubmit.Seconds() / float64(tasks) * 1e6,
			Steals:              steals,
		})
	}
	return out, nil
}

// heteroSlowdown is the speed ratio between the fast and slow simulated
// architectures in HeteroDispatchBench.
const heteroSlowdown = 20.0

// HeteroDispatchBench measures scheduler makespan on a skewed heterogeneous
// pool: one fast "x86" worker plus slowWorkers workers of an "x86slow"
// architecture that runs every kernel heteroSlowdown× slower (simulated by
// sleeping in proportion to task flops, so the measurement is pure placement
// quality, not kernel throughput). Performance models for both architectures
// are pre-warmed, so dmda places from history immediately; ws routes blindly
// and pays for every task a slow worker grabs near the end of the run.
func HeteroDispatchBench(tasks, slowWorkers, reps int, scheds ...string) ([]HeteroPoint, error) {
	if reps < 1 {
		reps = 3
	}
	if len(scheds) == 0 {
		scheds = []string{"ws", "dmda"}
	}
	// 2 ms on the fast arch, 40 ms on the slow one: big enough that Go's
	// sleep granularity (~1 ms under load) does not flatten the 20× ratio.
	const flops = 2e9
	kernel := func(scale float64) func(*taskrt.TaskContext) error {
		return func(tc *taskrt.TaskContext) error {
			time.Sleep(time.Duration(tc.Task.Flops / 1e12 * scale * float64(time.Second)))
			return nil
		}
	}
	cl, err := taskrt.NewCodelet("hetero",
		taskrt.Impl{Arch: "x86", Func: kernel(1)},
		taskrt.Impl{Arch: "x86slow", Func: kernel(heteroSlowdown)})
	if err != nil {
		return nil, err
	}
	pl, err := core.NewBuilder("hetero").
		Master("fast", core.Arch("x86"), core.Qty(1)).
		Master("slow", core.Arch("x86slow"), core.Qty(slowWorkers)).
		Build()
	if err != nil {
		return nil, err
	}
	var out []HeteroPoint
	for _, sched := range scheds {
		var fastShare float64
		var steals int
		run := func() error {
			models := perfmodel.NewStore()
			for _, sz := range []float64{1e8, 2e8, 4e8} {
				if err := models.Model("hetero", "x86").Record(sz, sz/1e12); err != nil {
					return err
				}
				if err := models.Model("hetero", "x86slow").Record(sz, sz/1e12*heteroSlowdown); err != nil {
					return err
				}
			}
			rt, err := taskrt.New(taskrt.Config{
				Platform: pl, Mode: taskrt.Real, Scheduler: sched,
				Workers: 1 + slowWorkers, Models: models,
			})
			if err != nil {
				return err
			}
			for i := 0; i < tasks; i++ {
				if err := rt.Submit(&taskrt.Task{Codelet: cl, Flops: flops}); err != nil {
					return err
				}
			}
			rep, err := rt.Run()
			if err != nil {
				return err
			}
			steals = rep.Steals
			if u, ok := rep.UnitByID("worker0"); ok && tasks > 0 {
				fastShare = float64(u.Tasks) / float64(tasks)
			}
			return nil
		}
		d, err := bestOf(reps, run)
		if err != nil {
			return nil, fmt.Errorf("experiments: hetero dispatch bench %s: %w", sched, err)
		}
		out = append(out, HeteroPoint{
			Scheduler: sched, FastWorkers: 1, SlowWorkers: slowWorkers,
			Tasks: tasks, Seconds: d.Seconds(), FastShare: fastShare, Steals: steals,
		})
	}
	return out, nil
}

// KernelScalingMatrix sweeps the packed-parallel kernel over a workers×n
// grid, setting GOMAXPROCS to the worker count for each point — the
// multi-core scaling record the single-setting kernel ladder cannot show
// (the historical harness ran everything at whatever GOMAXPROCS it
// inherited, which on constrained hosts silently measured 1-core numbers).
// GOMAXPROCS is restored before returning.
func KernelScalingMatrix(ns, workerSets []int, reps int) ([]KernelPoint, error) {
	if reps < 1 {
		reps = 1
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var out []KernelPoint
	for _, n := range ns {
		a, b := blas.NewMatrix(n, n), blas.NewMatrix(n, n)
		a.FillRandom(1)
		b.FillRandom(2)
		c := blas.NewMatrix(n, n)
		flops := blas.FlopsGEMM(n, n, n)
		for _, w := range workerSets {
			runtime.GOMAXPROCS(w)
			d, err := bestOf(reps, func() error {
				c.Zero()
				return blas.GemmPackedParallel(a, b, c, blas.DefaultBlock, w)
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: kernel matrix n=%d w=%d: %w", n, w, err)
			}
			out = append(out, KernelPoint{
				Kernel: "packed-parallel", N: n, Block: blas.DefaultBlock,
				Workers: w, GOMAXPROCS: w,
				Seconds: d.Seconds(), GFlops: flops / d.Seconds() / 1e9,
			})
		}
	}
	return out, nil
}

// TransferHeteroBench measures placement quality when data movement costs
// real time: `chains` independent chains of `length` dependent tasks, each
// chain read-modify-writing its own bytesPerHandle-sized handle, on a
// two-node platform — one fast x86 master and slowWorkers x86slow workers
// (transferSlowdown× slower), joined by a PCIe link with declared bandwidth
// and latency. The kernel sleeps its compute time plus, whenever the
// executing node differs from the node that last wrote the chain's handle, a
// transfer time derived from the same declared link the engine's
// interconnect model reads — so a scheduler that migrates chains pays in
// wall clock exactly what the model predicted. Data-aware dmda anchors
// chains to data-resident nodes and splits load by modelled speed; ws
// steals blindly and re-pays the interconnect on every migration.
func TransferHeteroBench(chains, length, slowWorkers, reps int, scheds ...string) ([]HeteroTransferPoint, error) {
	if reps < 1 {
		reps = 2
	}
	if len(scheds) == 0 {
		scheds = []string{"ws", "dmda"}
	}
	const (
		bytesPerHandle   = int64(4 << 20)
		flops            = 2e9 // 2 ms on the fast arch at the 1e12 scale
		transferSlowdown = 3.0
		linkGBps         = 0.5 // 4 MiB / 0.5 GB/s ≈ 8 ms per migration
		linkLatMicros    = 200.0
	)
	pl, err := core.NewBuilder("hetero-xfer").
		Master("fast", core.Arch("x86"), core.Qty(1)).
		Master("slow", core.Arch("x86slow"), core.Qty(slowWorkers)).
		Link(core.ICTypePCIe, "fast", "slow", core.Bandwidth(linkGBps), core.Latency(linkLatMicros)).
		Build()
	if err != nil {
		return nil, err
	}
	// Wall-clock transfer cost mirrors the engine's interconnect model over
	// the same declared route, so the modelled charge and the paid price
	// agree by construction.
	lat, perByte, err := pl.RouteCost("fast", "slow")
	if err != nil {
		return nil, fmt.Errorf("experiments: transfer hetero: %w", err)
	}
	xfer := time.Duration((lat + float64(bytesPerHandle)*perByte) * float64(time.Second))

	var out []HeteroTransferPoint
	for _, sched := range scheds {
		var fastShare float64
		var steals, crossNode int
		run := func() error {
			var cross, fastTasks atomic.Int64
			// lastNode[c] is the node that last wrote chain c's handle; data
			// starts on node 0 (the fast master — host RAM), matching the
			// engine's handle-home default.
			lastNode := make([]atomic.Int32, chains)
			kernel := func(node int32, scale float64) func(*taskrt.TaskContext) error {
				return func(tc *taskrt.TaskContext) error {
					ci := tc.Payload(0).(int)
					d := time.Duration(tc.Task.Flops / 1e12 * scale * float64(time.Second))
					if lastNode[ci].Swap(node) != node {
						d += xfer
						cross.Add(1)
					}
					if node == 0 {
						fastTasks.Add(1)
					}
					time.Sleep(d)
					return nil
				}
			}
			cl, err := taskrt.NewCodelet("chain",
				taskrt.Impl{Arch: "x86", Func: kernel(0, 1)},
				taskrt.Impl{Arch: "x86slow", Func: kernel(1, transferSlowdown)})
			if err != nil {
				return err
			}
			models := perfmodel.NewStore()
			for _, sz := range []float64{1e9, 2e9, 4e9} {
				if err := models.Model("chain", "x86").Record(sz, sz/1e12); err != nil {
					return err
				}
				if err := models.Model("chain", "x86slow").Record(sz, sz/1e12*transferSlowdown); err != nil {
					return err
				}
			}
			rt, err := taskrt.New(taskrt.Config{
				Platform: pl, Mode: taskrt.Real, Scheduler: sched,
				Workers: 1 + slowWorkers, Models: models,
			})
			if err != nil {
				return err
			}
			graph := make([]*taskrt.Task, 0, chains*length)
			for c := 0; c < chains; c++ {
				h := rt.NewHandle(fmt.Sprintf("chain%d", c), bytesPerHandle, c)
				for i := 0; i < length; i++ {
					graph = append(graph, &taskrt.Task{
						Codelet: cl, Flops: flops,
						Accesses: []taskrt.Access{taskrt.RW(h)},
					})
				}
			}
			if err := rt.SubmitBatch(graph); err != nil {
				return err
			}
			rep, err := rt.Run()
			if err != nil {
				return err
			}
			steals = rep.Steals
			crossNode = int(cross.Load())
			fastShare = float64(fastTasks.Load()) / float64(chains*length)
			return nil
		}
		d, err := bestOf(reps, run)
		if err != nil {
			return nil, fmt.Errorf("experiments: transfer hetero bench %s: %w", sched, err)
		}
		out = append(out, HeteroTransferPoint{
			Scheduler: sched, Chains: chains, Length: length,
			BytesPerHandle: bytesPerHandle,
			Seconds:        d.Seconds(), FastShare: fastShare,
			CrossNode: crossNode, Steals: steals,
		})
	}
	return out, nil
}

// GemmBench runs Ext-I: the kernel ladder at extent n plus the dispatch
// overhead A/B. workers <= 0 takes GOMAXPROCS; dispatch always uses at least
// 4 workers so stealing has victims even on small hosts. matrix additionally
// runs the workers×n kernel scaling sweep (minutes of extra kernel time, so
// it is opt-in).
func GemmBench(n, workers int, matrix bool) (*GemmBenchData, error) {
	if n <= 0 {
		n = 1024
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	kernels, err := GemmKernelBench(n, blas.DefaultBlock, workers, 3)
	if err != nil {
		return nil, err
	}
	dw := workers
	if dw < 4 {
		dw = 4
	}
	// "ws+trace" repeats the work-stealing point with causal tracing on, so
	// every BENCH_gemm.json carries the tracing-overhead A/B; "+batch" rows
	// repeat a scheduler with batched submission; "dmda" rows keep the
	// model-driven dispatcher as standing overhead rows.
	dispatch, err := DispatchBench(2000, dw, 3,
		"ws", "ws+batch", "ws+trace", "dmda", "dmda+batch")
	if err != nil {
		return nil, err
	}
	// Skewed-pool placement quality: ws versus dmda at realistic (ms-scale)
	// task granularity on one fast plus three slow workers.
	hetero, err := HeteroDispatchBench(120, 3, 3, "ws", "dmda")
	if err != nil {
		return nil, err
	}
	// Transfer-heavy placement quality: chains with multi-megabyte working
	// sets on a two-node platform, where migrations cost wall-clock time.
	heteroXfer, err := TransferHeteroBench(16, 8, 3, 2, "ws", "dmda")
	if err != nil {
		return nil, err
	}
	data := &GemmBenchData{
		Experiment:     "gemm-bench",
		MicroKernel:    blas.KernelISA(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		Kernels:        kernels,
		Dispatch:       dispatch,
		Hetero:         hetero,
		HeteroTransfer: heteroXfer,
	}
	if matrix {
		km, err := KernelScalingMatrix([]int{1024, 2048, 4096}, []int{2, 4, 8}, 1)
		if err != nil {
			return nil, err
		}
		data.KernelMatrix = km
	}
	return data, nil
}

// BenchCheckRow compares one fresh dispatch measurement against the
// committed baseline row it re-ran.
type BenchCheckRow struct {
	Scheduler  string  `json:"scheduler"`
	Tasks      int     `json:"tasks"`
	Workers    int     `json:"workers"`
	BaselineUS float64 `json:"baseline_us_per_task"`
	FreshUS    float64 `json:"fresh_us_per_task"`
	Ratio      float64 `json:"ratio"`
	Regressed  bool    `json:"regressed"`
}

// BenchCheck re-runs the dispatch benchmark for every scheduler row in a
// committed BENCH baseline file and flags rows whose fresh µs/task exceeds
// the baseline by more than tolerance (e.g. 0.15 = +15%). It is the
// regression tripwire behind `make bench-check`: deliberately noisy-tolerant
// (best-of-reps on both sides, generous threshold) so it reports real
// slowdowns, not scheduler jitter.
func BenchCheck(baselinePath string, reps int, tolerance float64) ([]BenchCheckRow, error) {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return nil, err
	}
	var base GemmBenchData
	if err := json.Unmarshal(raw, &base); err != nil {
		return nil, fmt.Errorf("experiments: bench-check: %s: %w", baselinePath, err)
	}
	if len(base.Dispatch) == 0 {
		return nil, fmt.Errorf("experiments: bench-check: %s has no dispatch rows", baselinePath)
	}
	var rows []BenchCheckRow
	for _, bp := range base.Dispatch {
		fresh, err := DispatchBench(bp.Tasks, bp.Workers, reps, bp.Scheduler)
		if err != nil {
			return nil, err
		}
		f := fresh[0]
		ratio := 0.0
		if bp.MicrosPerTask > 0 {
			ratio = f.MicrosPerTask / bp.MicrosPerTask
		}
		rows = append(rows, BenchCheckRow{
			Scheduler: bp.Scheduler, Tasks: bp.Tasks, Workers: bp.Workers,
			BaselineUS: bp.MicrosPerTask, FreshUS: f.MicrosPerTask,
			Ratio: ratio, Regressed: ratio > 1+tolerance,
		})
	}
	return rows, nil
}

// BenchCheckResult renders check rows as the usual experiment table and
// returns the list of regressed scheduler names.
func BenchCheckResult(rows []BenchCheckRow, tolerance float64) (*Result, []string) {
	res := &Result{
		Name:    fmt.Sprintf("bench-check: dispatch µs/task vs baseline (threshold +%.0f%%)", tolerance*100),
		Headers: []string{"scheduler", "config", "base us", "fresh us", "ratio", "verdict"},
	}
	var regressed []string
	for _, r := range rows {
		verdict := "ok"
		if r.Regressed {
			verdict = "REGRESSED"
			regressed = append(regressed, r.Scheduler)
		}
		res.AddRow(r.Scheduler,
			fmt.Sprintf("tasks=%d w=%d", r.Tasks, r.Workers),
			f2(r.BaselineUS), f2(r.FreshUS), f2(r.Ratio), verdict)
	}
	return res, regressed
}

// WriteJSON writes the run to path (the BENCH_gemm.json artefact).
func (g *GemmBenchData) WriteJSON(path string) error {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Result renders the run as the usual experiment table.
func (g *GemmBenchData) Result() *Result {
	res := &Result{
		Name:    fmt.Sprintf("Ext-I: GEMM kernel + dispatch overhead (microkernel=%s, GOMAXPROCS=%d)", g.MicroKernel, g.GOMAXPROCS),
		Headers: []string{"bench", "config", "wall[s]", "GFLOP/s", "us/task", "steals"},
	}
	var blocked, packed float64
	for _, k := range g.Kernels {
		cfg := fmt.Sprintf("n=%d b=%d", k.N, k.Block)
		if k.Workers > 0 {
			cfg += fmt.Sprintf(" w=%d", k.Workers)
		}
		res.AddRow("kernel/"+k.Kernel, cfg, f4(k.Seconds), f2(k.GFlops), "-", "-")
		switch k.Kernel {
		case "blocked":
			blocked = k.GFlops
		case "packed":
			packed = k.GFlops
		}
	}
	for _, k := range g.KernelMatrix {
		res.AddRow("matrix/"+k.Kernel,
			fmt.Sprintf("n=%d w=%d maxprocs=%d", k.N, k.Workers, k.GOMAXPROCS),
			f4(k.Seconds), f2(k.GFlops), "-", "-")
	}
	for _, d := range g.Dispatch {
		cfg := fmt.Sprintf("tasks=%d w=%d", d.Tasks, d.Workers)
		if d.SubmitMicrosPerTask > 0 {
			cfg += fmt.Sprintf(" submit=%.2fus", d.SubmitMicrosPerTask)
		}
		res.AddRow("dispatch/"+d.Scheduler, cfg,
			f4(d.Seconds), "-", f2(d.MicrosPerTask), fmt.Sprint(d.Steals))
	}
	for _, h := range g.Hetero {
		res.AddRow("hetero/"+h.Scheduler,
			fmt.Sprintf("tasks=%d w=%d+%dslow fastshare=%.2f", h.Tasks, h.FastWorkers, h.SlowWorkers, h.FastShare),
			f4(h.Seconds), "-", "-", fmt.Sprint(h.Steals))
	}
	for _, h := range g.HeteroTransfer {
		res.AddRow("hetero-xfer/"+h.Scheduler,
			fmt.Sprintf("chains=%dx%d %dMiB fastshare=%.2f cross=%d",
				h.Chains, h.Length, h.BytesPerHandle>>20, h.FastShare, h.CrossNode),
			f4(h.Seconds), "-", "-", fmt.Sprint(h.Steals))
	}
	if blocked > 0 && packed > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("packed/blocked kernel speedup: %.2fx", packed/blocked))
	}
	return res
}
