// Command pdlbench runs the evaluation harnesses: the paper's Figure 5 and
// the ablation experiments Ext-A..Ext-E documented in DESIGN.md, printing
// the same rows the paper (or EXPERIMENTS.md) reports.
//
// Usage:
//
//	pdlbench -exp fig5 [-n 8192] [-tile 1024] [-sched dmda]
//	pdlbench -exp sched|tiles|bw|crossover|failover|stencil|realcpu
//	pdlbench -exp faults [-n 4096] [-tile 1024] [-seed 1]
//	pdlbench -exp gemm [-gemmn 1024] [-workers 0] [-matrix] [-out BENCH_gemm.json] [-trace out.json]
//	pdlbench -exp cholesky|lu|factor [-n 1024] [-tile 128] [-slow 3] [-reps 3] [-out BENCH_factor.json]
//	pdlbench -exp cluster [-n 512] [-tile 128] [-nodes URL,...] [-inprocess 2] [-trace out.json]
//	pdlbench -exp serve -server http://127.0.0.1:8080 [-conc 4,16] [-requests 400] [-out SERVE_bench.json]
//	pdlbench -exp check -baseline BENCH_gemm.json [-tol 0.15]
//	pdlbench -exp all
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pdlbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pdlbench", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		exp      = fs.String("exp", "fig5", "experiment: fig5, sched, tiles, bw, crossover, failover, stencil, realcpu, faults, gemm, cholesky, lu, factor, serve, cluster or all")
		n        = fs.Int("n", 8192, "matrix extent")
		tile     = fs.Int("tile", 1024, "tile extent")
		sched    = fs.String("sched", "dmda", "scheduler for fig5/tiles (sim: eager, ws, dmda, heft or random) and the gemm -trace real-engine run (ws or dmda)")
		realN    = fs.Int("realn", 768, "matrix extent for the real-mode experiment")
		seed     = fs.Int64("seed", 1, "fault-plan seed for the faults experiment")
		gemmN    = fs.Int("gemmn", 1024, "matrix extent for the gemm kernel bench")
		workers  = fs.Int("workers", 0, "worker count for the gemm bench (0 = GOMAXPROCS)")
		out      = fs.String("out", "", "write the gemm bench as JSON to this path (e.g. BENCH_gemm.json)")
		traceTo  = fs.String("trace", "", "gemm only: run a traced real-mode tiled DGEMM and write the Chrome trace here (open in Perfetto)")
		matrix   = fs.Bool("matrix", false, "gemm only: add the workers×n kernel scaling matrix (2/4/8 workers, n up to 4096)")
		procs    = fs.Int("gomaxprocs", 0, "set GOMAXPROCS explicitly for the harness (0 = NumCPU); recorded in the bench output")
		baseline = fs.String("baseline", "BENCH_gemm.json", "check only: committed bench baseline to compare against")
		tol      = fs.Float64("tol", 0.15, "check only: regression threshold as a fraction (0.15 = +15%)")
		slow     = fs.Int("slow", 3, "cholesky/lu/factor: slow-worker count of the skewed 1-fast+N-slow pool")
		reps     = fs.Int("reps", 3, "cholesky/lu/factor: repetitions per timed row (best kept)")
		servURL  = fs.String("server", "", "serve only: base URL of the live pdlserved instance to replay against")
		concCSV  = fs.String("conc", "4,16", "serve only: comma-separated concurrency levels")
		requests = fs.Int("requests", 400, "serve only: requests replayed per concurrency level")
		nodes    = fs.String("nodes", "", "cluster only: comma-separated pdlworkerd base URLs (empty = spawn loopback workers)")
		nproc    = fs.Int("inprocess", 2, "cluster only: loopback worker count when -nodes is empty")
		pprofOn  = fs.String("pprof", "", "serve /debug/pprof, /debug/trace and /metrics on this address while the harness runs ('' = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Pin GOMAXPROCS explicitly: inherited settings (cgroup shims, test
	// runners) silently skewed earlier bench captures. The effective value is
	// recorded in the gemm bench JSON either way.
	if *procs > 0 {
		runtime.GOMAXPROCS(*procs)
	} else {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	if *pprofOn != "" {
		// The master-side observability surface: the live merged cluster
		// trace (for -exp cluster), process metrics and pprof, so a long
		// harness run can be watched and profiled while it executes.
		ln, err := net.Listen("tcp", *pprofOn)
		if err != nil {
			return err
		}
		defer ln.Close()
		go http.Serve(ln, cluster.DebugHandler())
		fmt.Fprintf(stdout, "observability: http://%s (/debug/trace, /metrics, /debug/pprof/)\n", ln.Addr())
	}
	runOne := func(name string) error {
		var res *experiments.Result
		var err error
		switch name {
		case "fig5":
			res, err = experiments.Figure5(experiments.Fig5Config{N: *n, Tile: *tile, Scheduler: *sched})
		case "sched":
			res, err = experiments.SchedulerSweep(*n, *tile, nil)
		case "tiles":
			res, err = experiments.TileSweep(*n, nil, *sched)
		case "bw":
			res, err = experiments.BandwidthSweep(*n, *tile, nil)
		case "crossover":
			res, err = experiments.Crossover(nil, *tile)
		case "failover":
			res, err = experiments.DynamicFailover(*n, *tile)
		case "stencil":
			res, err = experiments.StencilSweep(1<<24, 64, 32)
		case "realcpu":
			res, err = experiments.RealCPUScaling(*realN, *realN/4, nil)
		case "faults":
			fn, ftile := *n, *tile
			if fn == 8192 && ftile == 1024 { // flag defaults target fig5; Ext-H's default is N=4096
				fn = 4096
			}
			res, err = experiments.FaultTolerance(fn, ftile, *seed)
		case "check":
			// Sub-microsecond dispatch costs are noisy on small or shared
			// hosts; best-of-7 keeps the ±15% threshold meaningful.
			rows, cerr := experiments.BenchCheck(*baseline, 7, *tol)
			if cerr != nil {
				return cerr
			}
			table, regressed := experiments.BenchCheckResult(rows, *tol)
			fmt.Fprintln(stdout, table.Table())
			if len(regressed) > 0 {
				return fmt.Errorf("bench-check: %d dispatch row(s) regressed beyond +%.0f%%: %v",
					len(regressed), *tol*100, regressed)
			}
			return nil
		case "cholesky", "lu", "factor":
			kinds := []string{name}
			if name == "factor" {
				kinds = []string{"cholesky", "lu"}
			}
			fn, ftile := *n, *tile
			if fn == 8192 && ftile == 1024 { // flag defaults target fig5; Ext-K's default is N=1024
				fn, ftile = 1024, 128
			}
			fw := *workers
			if fw <= 0 {
				fw = runtime.GOMAXPROCS(0)
			}
			data := &experiments.FactorBenchData{GoMaxProcs: runtime.GOMAXPROCS(0)}
			for _, kind := range kinds {
				res, rows, ferr := experiments.FactorExperiment(kind, fn, ftile, fw, *slow, *reps)
				if ferr != nil {
					return ferr
				}
				data.Rows = append(data.Rows, rows...)
				fmt.Fprintln(stdout, res.Table())
			}
			if *out != "" {
				if werr := data.WriteJSON(*out); werr != nil {
					return werr
				}
				fmt.Fprintf(stdout, "wrote %s\n", *out)
			}
			return nil
		case "serve":
			var conc []int
			for _, c := range strings.Split(*concCSV, ",") {
				if c = strings.TrimSpace(c); c != "" {
					v, cerr := strconv.Atoi(c)
					if cerr != nil {
						return fmt.Errorf("-conc: %q is not an integer", c)
					}
					conc = append(conc, v)
				}
			}
			var data *experiments.ServeBenchData
			res, data, err = experiments.ServeReplay(experiments.ServeConfig{
				Server: *servURL, Requests: *requests, Concurrency: conc,
			})
			if err == nil && *out != "" {
				if werr := data.WriteJSON(*out); werr != nil {
					return werr
				}
				fmt.Fprintf(stdout, "wrote %s\n", *out)
			}
		case "gemm":
			var data *experiments.GemmBenchData
			data, err = experiments.GemmBench(*gemmN, *workers, *matrix)
			if err == nil {
				res = data.Result()
				if *out != "" {
					if werr := data.WriteJSON(*out); werr != nil {
						return werr
					}
					fmt.Fprintf(stdout, "wrote %s\n", *out)
				}
				if *traceTo != "" {
					// A traced real-mode tiled DGEMM: per-worker lanes,
					// dependency arrows and steal arrows in one artefact.
					tr, rep, terr := experiments.TraceGemmRun(*realN, *realN/4, *workers, false, *sched)
					if terr != nil {
						return terr
					}
					if terr := tr.WriteChromeFile(*traceTo); terr != nil {
						return terr
					}
					fmt.Fprintf(stdout, "wrote %s (%d events, %d tasks, %d steals; load in https://ui.perfetto.dev)\n",
						*traceTo, tr.Len(), rep.Tasks, rep.Steals)
				}
			}
		case "cluster":
			var addrs []string
			if *nodes != "" {
				for _, a := range strings.Split(*nodes, ",") {
					if a = strings.TrimSpace(a); a != "" {
						addrs = append(addrs, a)
					}
				}
			}
			var tr *trace.Trace
			if *traceTo != "" {
				tr = trace.New()
			}
			cn, ctile := *n, *tile
			if cn == 8192 && ctile == 1024 { // flag defaults target fig5; the cluster default is N=512
				cn, ctile = 512, 128
			}
			res, err = experiments.ClusterDGEMM(experiments.ClusterConfig{
				N: cn, Tile: ctile, Nodes: addrs, InProcess: *nproc, Trace: tr,
			})
			if err == nil && tr != nil {
				// Prefer the published merged timeline: master placement
				// instants plus every node's kernel spans on one time base.
				if merged := trace.Published(); merged != nil {
					tr = merged
				}
				if werr := tr.WriteChromeFile(*traceTo); werr != nil {
					return werr
				}
				fmt.Fprintf(stdout, "wrote %s (%d events; load in https://ui.perfetto.dev)\n", *traceTo, tr.Len())
			}
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, res.Table())
		return nil
	}
	if *exp == "all" {
		for _, name := range []string{"fig5", "sched", "tiles", "bw", "crossover", "failover", "stencil", "realcpu", "faults", "gemm"} {
			if err := runOne(name); err != nil {
				return err
			}
		}
		return nil
	}
	return runOne(*exp)
}
