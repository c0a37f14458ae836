package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/taskrt"
)

// factorProblem is one seeded factorization input with its serial
// reference result, computed once in set-up.
type factorProblem struct {
	kind      string // "cholesky" or "lu"
	n, tile   int
	orig, ref *blas.Matrix
}

func newFactorProblem(kind string, n, tile int, seed int64) (*factorProblem, error) {
	m := blas.NewMatrix(n, n)
	m.FillRandom(seed)
	for i := 0; i < n; i++ {
		if kind == "cholesky" { // symmetric and diagonally dominant: SPD
			for j := 0; j < i; j++ {
				m.Set(j, i, m.At(i, j))
			}
		}
		m.Set(i, i, float64(n)) // dominant diagonal: stable LU without pivoting
	}
	ref := m.Clone()
	var err error
	if kind == "cholesky" {
		err = blas.Potrf(ref)
	} else {
		err = blas.Getrf(ref)
	}
	if err != nil {
		return nil, fmt.Errorf("serial %s reference: %w", kind, err)
	}
	return &factorProblem{kind: kind, n: n, tile: tile, orig: m, ref: ref}, nil
}

// factorBench runs tiled factorizations through taskrt.
type factorBench struct {
	platform  *core.Platform
	workers   int
	sched     string
	models    *perfmodel.Store
	passes    []*factorProblem // one solve pass runs each of these in turn
	jobs      []*factorProblem // one open-loop request runs each of these
	traced    []passStats
	refGflops float64
	tile      int
}

// setupFactorSkewed: Cholesky then LU, n=1024, tile 128, dmda on one x86
// worker plus three x86slow workers, with models warmed from this host.
func setupFactorSkewed(seed int64) (bench, error) {
	pl, err := core.NewBuilder("skewed").
		Master("fast", core.Arch("x86"), core.Qty(1)).
		Master("slow", core.Arch("x86slow"), core.Qty(3)).
		Build()
	if err != nil {
		return nil, err
	}
	f := &factorBench{platform: pl, workers: 4, sched: "dmda", tile: 128}
	for _, kind := range []string{"cholesky", "lu"} {
		p, err := newFactorProblem(kind, 1024, 128, seed)
		if err != nil {
			return nil, err
		}
		f.passes = append(f.passes, p)
	}
	job, err := newFactorProblem("cholesky", 256, 128, seed+1)
	if err != nil {
		return nil, err
	}
	f.jobs = []*factorProblem{job}
	if f.models, err = warmModels(128, seed); err != nil {
		return nil, err
	}
	return f, nil
}

// setupFactorFine: Cholesky, n=512, tile 8, default ws on up to 2 workers.
func setupFactorFine(seed int64) (bench, error) {
	w := min(2, runtime.NumCPU())
	pl, err := core.NewBuilder("smp").Master("host", core.Arch("x86"), core.Qty(w)).Build()
	if err != nil {
		return nil, err
	}
	f := &factorBench{platform: pl, workers: w, tile: 8}
	p, err := newFactorProblem("cholesky", 512, 8, seed)
	if err != nil {
		return nil, err
	}
	job, err := newFactorProblem("cholesky", 64, 8, seed+1)
	if err != nil {
		return nil, err
	}
	f.passes, f.jobs = []*factorProblem{p}, []*factorProblem{job}
	return f, nil
}

// warmModels calibrates the dmda models before any timed pass: each fast
// kernel is timed on one tile, and fast and slow rates are recorded at
// sizes bracketing the task flops.
func warmModels(tile int, seed int64) (*perfmodel.Store, error) {
	models := perfmodel.NewStore()
	spd, err := newFactorProblem("cholesky", tile, tile, seed+7)
	if err != nil {
		return nil, err
	}
	dd, err := newFactorProblem("lu", tile, tile, seed+8)
	if err != nil {
		return nil, err
	}
	panel := blas.NewMatrix(tile, tile)
	panel.FillRandom(seed + 9)
	cals := []struct {
		kernel string
		flops  float64
		args   func() []any
	}{
		{"potrf", blas.FlopsPOTRF(tile), func() []any { return []any{spd.orig.Clone()} }},
		{"trsm_rlt", blas.FlopsTRSM(tile, tile), func() []any { return []any{spd.ref, panel.Clone()} }},
		{"syrk_nt", blas.FlopsSYRK(tile, tile), func() []any { return []any{panel, spd.orig.Clone()} }},
		{"gemm_nt", blas.FlopsGEMM(tile, tile, tile), func() []any { return []any{panel, panel, spd.orig.Clone()} }},
		{"getrf", blas.FlopsGETRF(tile), func() []any { return []any{dd.orig.Clone()} }},
		{"trsm_llu", blas.FlopsTRSM(tile, tile), func() []any { return []any{dd.ref, panel.Clone()} }},
		{"trsm_ru", blas.FlopsTRSM(tile, tile), func() []any { return []any{dd.ref, panel.Clone()} }},
		{"gemm_sub", blas.FlopsGEMM(tile, tile, tile), func() []any { return []any{panel, panel, dd.orig.Clone()} }},
	}
	for _, c := range cals {
		// The median of a few timings keeps one slow call from steering
		// placement for the whole run.
		var secs []float64
		for rep := 0; rep < 5; rep++ {
			args := c.args()
			start := time.Now()
			if err := kernels[c.kernel](args); err != nil {
				return nil, err
			}
			secs = append(secs, time.Since(start).Seconds())
		}
		rate := c.flops / max(median(secs), 1e-6)
		for _, scale := range []float64{0.5, 1, 2} {
			sz := c.flops * scale
			if err := models.Model(c.kernel, "x86").Record(sz, sz/rate); err != nil {
				return nil, err
			}
			if err := models.Model(c.kernel, "x86slow").Record(sz, sz/rate+sz/slowRate); err != nil {
				return nil, err
			}
		}
	}
	return models, nil
}

func (f *factorBench) pass(tr *tracer) (float64, error) {
	total := 0.0
	for _, p := range f.passes {
		s, err := f.solve(p, tr)
		if err != nil {
			return 0, err
		}
		total += s
	}
	return total, nil
}

func (f *factorBench) job(_ int64, _ *tracer) error {
	for _, p := range f.jobs {
		if _, err := f.solve(p, nil); err != nil {
			return err
		}
	}
	return nil
}

// codelets returns the four codelets of a factorization kind, each with a
// fast x86 body and, on the skewed pool, a slowed x86slow body.
func (f *factorBench) codelets(kind string, rec func() *recorder) (diag, row, col, update *taskrt.Codelet) {
	names := []string{"potrf", "trsm_rlt", "syrk_nt", "gemm_nt"}
	if kind == "lu" {
		names = []string{"getrf", "trsm_llu", "trsm_ru", "gemm_sub"}
	}
	cls := make([]*taskrt.Codelet, 4)
	for i, name := range names {
		impls := []taskrt.Impl{{Arch: "x86", Func: codeletFunc(name, false, -1, rec)}}
		if f.sched == "dmda" {
			impls = append(impls, taskrt.Impl{Arch: "x86slow", Func: codeletFunc(name, true, -1, rec)})
		}
		cl, err := taskrt.NewCodelet(name, impls...)
		if err != nil {
			panic(err) // static definition
		}
		cls[i] = cl
	}
	return cls[0], cls[1], cls[2], cls[3]
}

// buildFactorDAG builds the right-looking tiled DAG of p over a fresh copy
// of its input, with panel-first priorities.
func (f *factorBench) buildFactorDAG(rt *taskrt.Runtime, p *factorProblem, m *blas.Matrix, rec func() *recorder) (*dag, error) {
	at, T, err := tileHandles(rt, "A", m, p.n, p.tile)
	if err != nil {
		return nil, err
	}
	g := newDAG()
	diag, row, col, update := f.codelets(p.kind, rec)
	nb := p.tile
	for k := 0; k < T; k++ {
		age := T - k
		if p.kind == "cholesky" {
			g.add(diag, blas.FlopsPOTRF(nb), 3*age+2, taskrt.RW(at(k, k)))
			for i := k + 1; i < T; i++ {
				g.add(row, blas.FlopsTRSM(nb, nb), 3*age+1, taskrt.R(at(k, k)), taskrt.RW(at(i, k)))
			}
			for i := k + 1; i < T; i++ {
				g.add(col, blas.FlopsSYRK(nb, nb), 3*age, taskrt.R(at(i, k)), taskrt.RW(at(i, i)))
				for j := k + 1; j < i; j++ {
					g.add(update, blas.FlopsGEMM(nb, nb, nb), 3*age, taskrt.R(at(i, k)), taskrt.R(at(j, k)), taskrt.RW(at(i, j)))
				}
			}
			continue
		}
		g.add(diag, blas.FlopsGETRF(nb), 3*age+2, taskrt.RW(at(k, k)))
		for j := k + 1; j < T; j++ {
			g.add(row, blas.FlopsTRSM(nb, nb), 3*age+1, taskrt.R(at(k, k)), taskrt.RW(at(k, j)))
		}
		for i := k + 1; i < T; i++ {
			g.add(col, blas.FlopsTRSM(nb, nb), 3*age+1, taskrt.R(at(k, k)), taskrt.RW(at(i, k)))
		}
		for i := k + 1; i < T; i++ {
			for j := k + 1; j < T; j++ {
				g.add(update, blas.FlopsGEMM(nb, nb, nb), 3*age, taskrt.R(at(i, k)), taskrt.R(at(k, j)), taskrt.RW(at(i, j)))
			}
		}
	}
	return g, nil
}

// solve factors a fresh copy of p's input and checks it against the serial
// reference. The solve time runs from the first Submit to Run returning.
func (f *factorBench) solve(p *factorProblem, tr *tracer) (float64, error) {
	if p.n%p.tile != 0 {
		return 0, fmt.Errorf("n=%d is not a multiple of tile %d", p.n, p.tile)
	}
	m := p.orig.Clone()
	rt, err := taskrt.New(taskrt.Config{Platform: f.platform, Scheduler: f.sched, Workers: f.workers, Models: f.models})
	if err != nil {
		return 0, err
	}
	var rec *recorder
	g, err := f.buildFactorDAG(rt, p, m, func() *recorder { return rec })
	if err != nil {
		return 0, err
	}
	if tr != nil {
		rec = &recorder{tr: tr, recs: make([]taskRec, len(g.tasks))}
	}
	pass := tr.id()
	t0 := tr.now()
	start := time.Now()
	if err := rt.SubmitBatch(g.tasks); err != nil {
		return 0, err
	}
	submitted := time.Now()
	rep, err := rt.Run()
	wall := time.Since(start).Seconds()
	if err != nil {
		return 0, err
	}
	if d := blas.MaxDiff(m, p.ref); !(d < 1e-9) {
		return 0, fmt.Errorf("tiled %s n=%d differs from the serial reference by %g", p.kind, p.n, d)
	}
	if tr == nil {
		return wall, nil
	}
	tr.add(span{ID: pass, Group: pass, Name: "taskrt.pass." + p.kind, Start: t0, End: tr.now()})
	for i, r := range rec.recs {
		tr.add(span{Parent: pass, Group: pass, Name: "blas." + g.meta[i].Kernel, Lane: fmt.Sprint("worker", r.Worker), Start: r.Start, End: r.KernelEnd})
	}
	st := passStats{Wall: wall, Submit: submitted.Sub(start).Seconds(), Workers: f.workers,
		Tasks: g.meta, Recs: rec.recs, Steals: rep.Steals}
	if err := st.checkAccounting(); err != nil {
		return 0, err
	}
	if len(f.traced) < maxTracedPasses {
		f.traced = append(f.traced, st)
	}
	return wall, nil
}

func (f *factorBench) layers(m metrics) {
	if f.refGflops == 0 {
		f.refGflops = refGemmGflops(f.tile, 1, 200*time.Millisecond)
	}
	engineLayers(f.traced, f.refGflops, m)
}

func (f *factorBench) close() {}
