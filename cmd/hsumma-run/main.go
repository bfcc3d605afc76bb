// Command hsumma-run is the repository's one command-line entry point for
// the paper. Without a subcommand it executes a distributed multiplication
// through the unified engine, in either execution mode:
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
// Pass -alg auto to let the autotuning planner pick the algorithm, grid
// shape, group count, block sizes and broadcast for the target platform;
// explicit -b, -B, -bcast and -threads pin those as constraints.
//
// Three subcommands reach the rest of the reproduction:
//
//   - plan runs the planner standalone and prints the ranked candidate
//     table (or JSON with -json);
//
//   - exp regenerates the paper's evaluation artefacts, one experiment per
//     table/figure (-list names them; -quick scales them down; -uncalibrated
//     uses the paper's published α/β only; -format csv prints the series);
//
//   - model evaluates the closed-form cost model (Section IV) at one point:
//     the eq. 10 condition α/β ⋛ 2nb/p with its verdict, then SUMMA against
//     HSUMMA and the predicted optimal G — no simulation.
//
// For example:
//
//	hsumma-run plan -platform bgp
//	hsumma-run plan -platform all -quick -json > BENCH_plan.json
//	hsumma-run exp -list
//	hsumma-run exp fig8 -quick
//	hsumma-run exp all -quick
//	hsumma-run model -platform bgp -n 65536 -p 16384 -b 256
//	hsumma-run model -alpha 1e-4 -beta 1e-9 -n 8192 -p 128 -b 64
//
// Rectangular problems C(M×N) += A(M×K)·B(K×N) pass -m and -k beside -n
// (either may be omitted to default to n — the square shorthand).
//
// Usage:
//
//	hsumma-run -n 512 -p 16 -alg hsumma -G 4 -b 32
//	hsumma-run -n 512 -p 16 -alg auto
//	hsumma-run -mode=sim -platform bgp -n 65536 -p 16384 -alg hsumma -G 512 -b 256 -bcast vandegeijn
//	hsumma-run -mode=sim -platform bgp -n 4096 -p 256 -alg auto
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
	"repro/internal/exp"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/sched"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "plan":
			runPlanCmd(os.Args[2:])
			return
		case "exp":
			runExpCmd(os.Args[2:])
			return
		case "model":
			runModelCmd(os.Args[2:])
			return
		}
	}
	var (
		mode   = flag.String("mode", "live", "execution mode: live (goroutine runtime, real data) or sim (virtual time, no data)")
		n      = flag.Int("n", 512, "result columns (N); with -m and -k unset, the square n×n problem")
		m      = flag.Int("m", 0, "result rows M for rectangular GEMM C(M×N) += A(M×K)·B(K×N); 0 = n")
		k      = flag.Int("k", 0, "contraction dimension K; 0 = n")
		alg    = flag.String("alg", "hsumma", "algorithm: summa, hsumma, multilevel, cannon, fox, auto")
		bcast  = flag.String("bcast", "", "broadcast: binomial, vandegeijn (empty = binomial, or the planner's choice under -alg auto)")
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
	flag.Parse()

	var err error
	if *bcast != "" {
		if run.Broadcast, err = hsumma.BroadcastByName(*bcast); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if run.Engine, err = hsumma.EngineByName(*eng); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if run.Levels, err = parseLevels(*levels); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
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
		objective  = fs.String("objective", "total", "ranking objective: total or comm")
		quick      = fs.Bool("quick", false, "trim the candidate space (and the default problem scale) for a sub-second sweep")
		contention = fs.Bool("contention", false, "price the platform's link sharing by replaying the ranked candidates on the event engine")
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
			dn, dp := exp.PlanProblem(platform, *quick)
			if pn == 0 {
				pn = dn
			}
			if pp == 0 && *cores == 0 {
				pp = dp
			}
		}
		shape := shapeFromFlags(*m, pn, *k)
		start := time.Now()
		pl, err := hsumma.Plan(hsumma.PlanConfig{
			Platform: platform, Shape: shape, Procs: pp,
			BlockSize:  *b,
			Threads:    *thr,
			CoreBudget: *cores,
			Objective:  obj,
			Quick:      *quick,
			Contention: *contention,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "plan failed:", err)
			os.Exit(1)
		}
		plans = append(plans, pl)
		if !*jsonOut {
			printPlan(pl, time.Since(start))
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

// runExpCmd implements the exp subcommand: list the registered paper
// experiments, or run one (or all) and print its table/series or CSV.
func runExpCmd(args []string) {
	fs := flag.NewFlagSet("exp", flag.ExitOnError)
	var (
		list         = fs.Bool("list", false, "list experiments")
		quick        = fs.Bool("quick", false, "scaled-down configuration (seconds instead of minutes)")
		uncalibrated = fs.Bool("uncalibrated", false, "use the paper's published Hockney parameters instead of the SUMMA-fitted machines")
		format       = fs.String("format", "table", "output format: table or csv")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: hsumma-run exp [-list] [-quick] [-uncalibrated] [-format csv] <id|all>")
		fs.PrintDefaults()
	}
	ids := parseInterleaved(fs, args)
	if len(ids) > 1 {
		fs.Usage()
		os.Exit(2)
	}
	if *list || len(ids) == 0 {
		fmt.Println("Available experiments (paper artefact -> id):")
		for _, e := range exp.All() {
			fmt.Printf("  %-9s %s\n            %s\n", e.ID, e.Title, e.Paper)
		}
		if len(ids) == 0 && !*list {
			fmt.Println("\nrun with hsumma-run exp <id> or hsumma-run exp all")
		}
		return
	}
	if ids[0] == "all" {
		ids = exp.IDs()
	}
	rs, err := exp.Run(ids, exp.Options{Quick: *quick, Uncalibrated: *uncalibrated})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, res := range rs {
		if *format == "csv" {
			fmt.Print(exp.CSV(res))
		} else {
			fmt.Println(exp.Format(res))
		}
	}
}

// runModelCmd implements the model subcommand: the closed-form cost model
// at one point, for a machine preset or explicit Hockney parameters,
// rendered as the valgrid/valbgp and table1/table2 experiments render it.
func runModelCmd(args []string) {
	fs := flag.NewFlagSet("model", flag.ExitOnError)
	var (
		pfName = fs.String("platform", "", "preset: grid5000[-cal], bgp[-cal], exascale (empty = use -alpha/-beta/-gamma)")
		alpha  = fs.Float64("alpha", 1e-5, "latency (s), when no preset")
		beta   = fs.Float64("beta", 1e-9, "reciprocal bandwidth (s/element), when no preset")
		gamma  = fs.Float64("gamma", 1e-10, "flop time (s), when no preset")
		n      = fs.Int("n", 65536, "matrix dimension")
		p      = fs.Int("p", 16384, "processor count")
		b      = fs.Int("b", 256, "block size (b = B)")
		bcast  = fs.String("bcast", "vandegeijn", "broadcast model: binomial, vandegeijn")
	)
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	par := model.Params{N: *n, P: *p, B: *b}
	var name string
	if *pfName != "" {
		pf, err := machine.ByName(*pfName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		par.Machine, name = pf.Model, pf.Name
	} else {
		par.Machine = machine.Model{Alpha: *alpha, Beta: *beta, Gamma: *gamma}
		name = par.Machine.String()
	}
	alg, err := sched.ByName(*bcast)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	par.Bcast = model.For(alg)
	if err := par.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for _, res := range exp.Model(name, par) {
		fmt.Println(exp.Format(res))
	}
}

// parseInterleaved parses fs over args, letting flags follow positional
// arguments (`exp table2 -quick` as well as `exp -quick table2`), and
// returns the positionals in order.
func parseInterleaved(fs *flag.FlagSet, args []string) []string {
	var pos []string
	for {
		fs.Parse(args) // ExitOnError: a bad flag exits here
		args = fs.Args()
		if len(args) == 0 {
			return pos
		}
		pos, args = append(pos, args[0]), args[1:]
	}
}

func printPlan(pl *hsumma.PlanResult, elapsed time.Duration) {
	budget := fmt.Sprintf("p=%d", pl.P)
	if pl.CoreBudget > 0 {
		budget = fmt.Sprintf("cores=%d", pl.CoreBudget)
	}
	fmt.Printf("== plan: %s — %s, %s (objective: min %s) ==\n", pl.Platform, pl.Shape, budget, pl.Objective)
	fmt.Printf("   scanned %d candidates, simulated %d, cached=%t, %v\n",
		pl.Scanned, pl.Simulated, pl.FromCache, elapsed.Round(time.Millisecond))
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "   rank\talgorithm\tgrid\tt\tG\tb\tB\tbcast\tmodel comm (s)\tmodel total (s)\tsim comm (s)\tsim total (s)")
	for i, s := range pl.Ranked {
		simComm, simTotal := "-", "-"
		if s.Refined {
			simComm, simTotal = fmt.Sprintf("%.4g", s.SimComm), fmt.Sprintf("%.4g", s.SimTotal)
		}
		marker := ""
		if i == 0 {
			marker = " <- best"
		}
		threads := s.Threads
		if threads < 1 {
			threads = 1
		}
		fmt.Fprintf(w, "   #%d\t%s\t%s\t%d\t%d\t%d\t%d\t%s\t%.4g\t%.4g\t%s\t%s%s\n",
			i+1, s.Algorithm, s.Grid, threads, s.Groups, s.BlockSize, s.OuterBlockSize,
			s.Broadcast, s.ModelComm, s.ModelTotal, simComm, simTotal, marker)
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
