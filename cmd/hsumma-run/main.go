// Command hsumma-run executes a distributed multiplication through the
// unified engine, in either execution mode:
//
//   - -mode=live (default): the in-process message-passing runtime — one
//     goroutine per rank, real matrix blocks on the wire — verified against
//     sequential GEMM, with wall time and communication statistics;
//
//   - -mode=sim: the same algorithm implementation on the simnet virtual
//     communicator, which advances Hockney virtual time instead of
//     wall-clock, so grids far beyond one machine (BlueGene/P's 16384
//     cores, and larger) run in seconds with no matrix memory at all.
//
// Pass -auto (or -alg auto) to let the autotuning planner pick the
// algorithm, grid shape, group count, block sizes and broadcast for the
// target platform; explicit -b pins the block size as a constraint.
//
// The plan subcommand runs the planner standalone and prints the ranked
// candidate table (or JSON with -json):
//
//	hsumma-run plan -platform bgp
//	hsumma-run plan -platform all -quick -json > BENCH_plan.json
//
// Rectangular problems C(M×N) += A(M×K)·B(K×N) pass -m and -k beside -n
// (either may be omitted to default to n — the square shorthand).
//
// Usage:
//
//	hsumma-run -n 512 -p 16 -alg hsumma -G 4 -b 32
//	hsumma-run -n 512 -p 16 -auto
//	hsumma-run -mode=sim -platform bgp -n 65536 -p 16384 -alg hsumma -G 512 -b 256 -bcast vandegeijn
//	hsumma-run -mode=sim -platform bgp -n 4096 -p 256 -auto
//	hsumma-run -mode=sim -platform grid5000 -m 8192 -n 512 -k 8192 -p 64 -alg summa
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	hsumma "repro"
	"repro/internal/machine"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "plan" {
		runPlanCmd(os.Args[2:])
		return
	}
	var (
		mode   = flag.String("mode", "live", "execution mode: live (goroutine runtime, real data) or sim (virtual time, no data)")
		n      = flag.Int("n", 512, "result columns (N); with -m and -k unset, the square n×n problem")
		m      = flag.Int("m", 0, "result rows M for rectangular GEMM C(M×N) += A(M×K)·B(K×N); 0 = n")
		k      = flag.Int("k", 0, "contraction dimension K; 0 = n")
		alg    = flag.String("alg", "hsumma", "algorithm: summa, hsumma, multilevel, cannon, fox, auto")
		auto   = flag.Bool("auto", false, "let the planner pick the configuration (same as -alg auto)")
		bcast  = flag.String("bcast", "binomial", "broadcast: binomial, vandegeijn")
		levels = flag.String("levels", "", "multilevel hierarchy, outermost first, e.g. 2x2:64,2x2:32 (IxJ:blocksize); empty degenerates to SUMMA")
		pf     = flag.String("platform", "grid5000", "machine preset: grid5000[-cal], bgp[-cal], exascale (sim timing; auto-planning target in both modes)")
		seed   = flag.Uint64("seed", 42, "input matrix seed (live mode)")
		eng    = flag.String("engine", "auto", "sim-mode virtual execution engine: goroutine, event, or auto (bit-identical results; event is ~10x faster on full-scale collective-only runs)")
		trOut  = flag.String("trace", "", "write a per-rank phase span timeline (Chrome/Perfetto trace-event JSON) to this file")
		crit   = flag.Bool("critpath", false, "trace the run and print the critical-path report: gating rank/phase, per-rank busy/wait split, top blocking edges")
	)
	// The run itself is one description for both modes: the numeric knobs
	// bind straight into it, sim mode simulates it and live mode executes
	// its Config().
	var run hsumma.SimConfig
	flag.IntVar(&run.Procs, "p", 16, "number of ranks")
	flag.IntVar(&run.Groups, "G", 0, "HSUMMA group count (0 = closest feasible to sqrt(p))")
	flag.IntVar(&run.BlockSize, "b", 0, "block size b (0 = auto via the shared default rule)")
	flag.IntVar(&run.OuterBlockSize, "B", 0, "outer block size B (0 = b)")
	flag.IntVar(&run.Threads, "threads", 1, "per-rank thread budget for local multiplies (hybrid intra-rank parallelism)")
	flag.BoolVar(&run.LocalStrassen, "local-strassen", false, "run the rank-local sub-cubic Strassen kernel under any algorithm")
	flag.IntVar(&run.StrassenCutoff, "strassen-cutoff", 0, "local Strassen kernel recursion cutoff (0 = blas default)")
	flag.Parse()

	var err error
	if run.Broadcast, err = hsumma.BroadcastByName(*bcast); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if run.Engine, err = hsumma.EngineByName(*eng); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if run.Levels, err = parseLevels(*levels); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *auto {
		*alg = string(hsumma.AlgAuto)
	}
	run.Algorithm = hsumma.Algorithm(*alg)
	if run.Algorithm == hsumma.AlgMultilevel && len(run.Levels) == 0 {
		fmt.Fprintln(os.Stderr, "note: -alg multilevel without -levels degenerates to flat SUMMA")
	}
	platform, err := machine.ByName(*pf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	shape := shapeFromFlags(*m, *n, *k)
	run.Shape, run.Machine, run.Platform = shape, platform.Model, &platform
	run.Trace = *trOut != "" || *crit

	switch *mode {
	default:
		fmt.Fprintf(os.Stderr, "unknown -mode %q (want live or sim)\n", *mode)
		os.Exit(2)
	case "live":
		a := hsumma.RandomMatrix(shape.M, shape.K, *seed)
		bm := hsumma.RandomMatrix(shape.K, shape.N, *seed+1)
		cfg := run.Config()
		start := time.Now()
		var (
			got   *hsumma.Matrix
			stats hsumma.Stats
			rec   *hsumma.Trace
		)
		if run.Trace {
			got, stats, rec, err = hsumma.MultiplyTraced(a, bm, cfg)
		} else {
			got, stats, err = hsumma.Multiply(a, bm, cfg)
		}
		elapsed := time.Since(start)
		if err != nil {
			fmt.Fprintln(os.Stderr, "run failed:", err)
			os.Exit(1)
		}
		fmt.Printf("mode           : live (goroutine runtime)\n")
		fmt.Printf("algorithm      : %s (p=%d, %s)\n", *alg, run.Procs, shape)
		fmt.Printf("wall time      : %v\n", elapsed)
		fmt.Printf("messages sent  : %d\n", stats.Messages)
		fmt.Printf("bytes moved    : %d\n", stats.Bytes)
		fmt.Printf("max rank comm  : %.3gs\n", stats.MaxRankCommSeconds)
		fmt.Printf("max rank wait  : %.3gs (blocked on messages that had not arrived)\n", stats.MaxRankWaitSeconds)
		fmt.Printf("max rank gemm  : %.3gs\n", stats.GemmSeconds)
		fmt.Printf("comm by phase  : %s\n", formatPhases(stats.CommSecondsByPhase))
		fmt.Printf("busy imbalance : %.3g (max/mean rank busy time)\n", stats.BusyImbalance)
		if rec != nil && *trOut != "" {
			if err := writeTrace(*trOut, rec); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("trace written  : %s (%d ranks; open in Perfetto or chrome://tracing)\n", *trOut, rec.Ranks())
		}
		if *crit {
			fmt.Print(hsumma.CriticalPath(rec).Format())
		}

		verify := time.Now()
		want := hsumma.Reference(a, bm)
		diff := hsumma.MaxAbsDiff(got, want)
		fmt.Printf("verification   : max |Δ| = %.3g vs sequential GEMM (%v)\n", diff, time.Since(verify))
		if diff > 1e-9 {
			fmt.Fprintln(os.Stderr, "VERIFICATION FAILED")
			os.Exit(1)
		}
		fmt.Println("result         : OK")

	case "sim":
		start := time.Now()
		res, err := hsumma.Simulate(run)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simulation failed:", err)
			os.Exit(1)
		}
		fmt.Printf("mode           : sim (virtual communicator, %s)\n", platform.Name)
		fmt.Printf("engine         : %s\n", res.Engine)
		fmt.Printf("algorithm      : %s (p=%d, %s)\n", res.Algorithm, run.Procs, shape)
		if res.Shape != shape {
			fmt.Printf("padded to      : %s\n", res.Shape)
		}
		if res.Algorithm == hsumma.AlgHSUMMA {
			fmt.Printf("groups         : G=%d\n", res.Groups)
		}
		if res.BlockSize > 0 {
			fmt.Printf("block size     : b=%d\n", res.BlockSize)
		}
		fmt.Printf("simulated total: %.4gs\n", res.Total)
		fmt.Printf("simulated comm : %.4gs\n", res.Comm)
		fmt.Printf("computation    : %.4gs\n", res.Compute)
		fmt.Printf("messages sent  : %d\n", res.Messages)
		fmt.Printf("bytes moved    : %d (identical to a live run of this config)\n", res.Bytes)
		fmt.Printf("host wall time : %v\n", time.Since(start))
		if res.Trace != nil && *trOut != "" {
			if err := writeTrace(*trOut, res.Trace); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("trace written  : %s (%d ranks, virtual timestamps; open in Perfetto or chrome://tracing)\n", *trOut, res.Trace.Ranks())
		}
		if *crit {
			fmt.Print(hsumma.CriticalPath(res.Trace).Format())
		}
	}
}

// writeTrace dumps a recorded span timeline as Chrome trace-event JSON.
func writeTrace(path string, rec *hsumma.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := rec.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

// formatPhases renders the per-phase communication breakdown in a stable
// phase order.
func formatPhases(phases map[string]float64) string {
	if len(phases) == 0 {
		return "(none)"
	}
	var sb strings.Builder
	for _, name := range []string{"scatter", "bcast", "shift", "p2p", "gemm", "gather"} {
		if sec, ok := phases[name]; ok {
			if sb.Len() > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "%s %.3gs", name, sec)
		}
	}
	return sb.String()
}

// shapeFromFlags resolves the -m/-n/-k trio into a validated GEMM shape:
// unset -m/-k default to n (the square shorthand), and invalid
// dimensions exit with the shared dimension-naming error.
func shapeFromFlags(m, n, k int) hsumma.Shape {
	shape := hsumma.Shape{M: m, N: n, K: k}
	if shape.M == 0 {
		shape.M = n
	}
	if shape.K == 0 {
		shape.K = n
	}
	if err := shape.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	return shape
}

// planProblem is the per-machine default problem scale for the plan
// subcommand: the paper's full configuration, or a scaled-down one with
// -quick. It is keyed off the resolved preset — each paper machine has its
// own interconnect class — so every spelling machine.ByName accepts for a
// machine, calibrated or not, plans the same problem.
func planProblem(pf machine.Platform, quick bool) (n, p int) {
	switch pf.Contention {
	case machine.ContentionTorus: // BlueGene/P
		if quick {
			return 4096, 256
		}
		return 65536, 16384
	case machine.ContentionNone: // the projected exascale machine
		if quick {
			return 1 << 14, 1 << 12
		}
		return 1 << 22, 1 << 20
	default: // Grid'5000 (shared segment)
		if quick {
			return 1024, 32
		}
		return 8192, 128
	}
}

// runPlanCmd implements the plan subcommand: run the autotuning planner
// for one platform (or all three paper platforms) and print the ranked
// candidate table, or JSON for machine consumption (the CI bench-smoke
// job archives it as BENCH_plan.json).
func runPlanCmd(args []string) {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	var (
		pf         = fs.String("platform", "grid5000", "grid5000[-cal], bgp[-cal], exascale, or all (the three calibrated paper platforms)")
		n          = fs.Int("n", 0, "result columns N (0 = the platform's paper-scale default)")
		m          = fs.Int("m", 0, "result rows M for rectangular planning (0 = n)")
		k          = fs.Int("k", 0, "contraction dimension K (0 = n)")
		p          = fs.Int("p", 0, "rank count (0 = the platform's paper-scale default)")
		b          = fs.Int("b", 0, "pin the block size b (0 = search)")
		thr        = fs.Int("threads", 0, "pin the per-rank thread budget (0 = searched under -cores, 1 otherwise)")
		cores      = fs.Int("cores", 0, "core budget: search (ranks × threads) splits of this many cores instead of planning for exactly -p ranks")
		topk       = fs.Int("topk", 8, "stage-2 refinement width")
		objective  = fs.String("objective", "total", "ranking objective: total or comm")
		quick      = fs.Bool("quick", false, "trim the candidate space (and the default problem scale) for a sub-second sweep")
		analytic   = fs.Bool("analytic", false, "closed-form ranking only, skip the stage-2 virtual runs")
		contention = fs.Bool("contention", false, "enable the platform's link-sharing model in stage 2")
		jsonOut    = fs.Bool("json", false, "emit the plans as JSON")
	)
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	names := []string{*pf}
	if *pf == "all" {
		names = []string{"grid5000-cal", "bgp-cal", "exascale"}
	}
	var obj hsumma.PlanObjective
	switch *objective {
	case "total":
		obj = hsumma.PlanMinTotal
	case "comm":
		obj = hsumma.PlanMinComm
	default:
		fmt.Fprintf(os.Stderr, "unknown -objective %q (want total or comm)\n", *objective)
		os.Exit(2)
	}

	var plans []*hsumma.PlanResult
	for _, name := range names {
		platform, err := machine.ByName(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		pn, pp := *n, *p
		if pn == 0 || pp == 0 {
			dn, dp := planProblem(platform, *quick)
			if pn == 0 {
				pn = dn
			}
			if pp == 0 && *cores == 0 {
				pp = dp
			}
		}
		// A stage-2 virtual run at the paper's 16384 ranks costs ~10 s of
		// host time each; beyond 2048 ranks default to the analytic
		// ranking unless the caller passed -analytic explicitly (so
		// -analytic=false forces full-scale simulated refinement).
		analyticSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "analytic" {
				analyticSet = true
			}
		})
		analyticOnly := *analytic
		if !analyticSet && pp > 2048 {
			analyticOnly = true
		}
		shape := shapeFromFlags(*m, pn, *k)
		start := time.Now()
		pl, err := hsumma.Plan(hsumma.PlanConfig{
			Platform: platform, Shape: shape, Procs: pp,
			BlockSize:    *b,
			Threads:      *thr,
			CoreBudget:   *cores,
			TopK:         *topk,
			Objective:    obj,
			Quick:        *quick,
			AnalyticOnly: analyticOnly,
			Contention:   *contention,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "plan failed:", err)
			os.Exit(1)
		}
		plans = append(plans, pl)
		if !*jsonOut {
			printPlan(pl, time.Since(start), analyticOnly)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(plans); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

func printPlan(pl *hsumma.PlanResult, elapsed time.Duration, analyticOnly bool) {
	budget := fmt.Sprintf("p=%d", pl.P)
	if pl.CoreBudget > 0 {
		budget = fmt.Sprintf("cores=%d", pl.CoreBudget)
	}
	fmt.Printf("== plan: %s — %s, %s (objective: min %s) ==\n", pl.Platform, pl.Shape, budget, pl.Objective)
	fmt.Printf("   scanned %d candidates, simulated %d, cached=%t, %v\n",
		pl.Scanned, pl.Simulated, pl.FromCache, elapsed.Round(time.Millisecond))
	if analyticOnly {
		fmt.Println("   (analytic ranking only; pass -analytic=false to force simulated refinement)")
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "   rank\talgorithm\tgrid\tt\tG\tb\tB\tbcast\tmodel comm (s)\tsim comm (s)\tsim total (s)\tengine")
	for i, s := range pl.Ranked {
		simComm, simTotal, eng := "-", "-", "-"
		if s.Refined {
			simComm, simTotal = fmt.Sprintf("%.4g", s.SimComm), fmt.Sprintf("%.4g", s.SimTotal)
			eng = s.Engine
		}
		marker := ""
		if i == 0 {
			marker = " <- best"
		}
		threads := s.Threads
		if threads < 1 {
			threads = 1
		}
		fmt.Fprintf(w, "   #%d\t%s\t%s\t%d\t%d\t%d\t%d\t%s\t%.4g\t%s\t%s\t%s%s\n",
			i+1, s.Algorithm, s.Grid, threads, s.Groups, s.BlockSize, s.OuterBlockSize,
			s.Broadcast, s.ModelComm, simComm, simTotal, eng, marker)
	}
	w.Flush()
	fmt.Println()
}

// parseLevels parses the -levels syntax "IxJ:blocksize[,IxJ:blocksize...]"
// (outermost first) into the multilevel hierarchy description.
func parseLevels(spec string) ([]hsumma.Level, error) {
	if spec == "" {
		return nil, nil
	}
	var out []hsumma.Level
	for _, part := range strings.Split(spec, ",") {
		var lv hsumma.Level
		// Sscanf ignores trailing garbage, so demand an exact round-trip:
		// "2x2:64abc" or a semicolon-joined list must not parse silently.
		if _, err := fmt.Sscanf(part, "%dx%d:%d", &lv.I, &lv.J, &lv.BlockSize); err != nil ||
			fmt.Sprintf("%dx%d:%d", lv.I, lv.J, lv.BlockSize) != part {
			return nil, fmt.Errorf("bad -levels entry %q (want IxJ:blocksize, e.g. 2x2:64)", part)
		}
		if lv.I <= 0 || lv.J <= 0 || lv.BlockSize <= 0 {
			return nil, fmt.Errorf("bad -levels entry %q: all values must be positive", part)
		}
		out = append(out, lv)
	}
	return out, nil
}
