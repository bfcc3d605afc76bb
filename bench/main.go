// Command bench is the repository's benchmark: five closed-loop workloads
// over the public surfaces (hsumma.Multiply, hsumma.Simulate, the serving
// daemon's HTTP handler), three end-to-end metrics on each, and a per-layer
// ledger measured from outside in a separate traced pass. See README.md.
//
//	bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//	bench --all           [--seed N] [--seconds S] [--out DIR]
//	bench compare A.json B.json
//
// The last line of standard output of a --workload run is one JSON object
// {correct, attempted, failed, metrics}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// defaultSeconds is the timed window; BENCHMARK.json records the same
// number as run_seconds.
const defaultSeconds = 15

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	name := flag.String("workload", "", "run one workload (see --list)")
	all := flag.Bool("all", false, "run every workload with its traced pass, each in a fresh process")
	list := flag.Bool("list", false, "list the workloads and why each exists")
	seed := flag.Int64("seed", 1, "seed for operand generation and rotation order")
	seconds := flag.Float64("seconds", defaultSeconds, "length of the timed window")
	traceFlag := flag.Int("trace", 0, "1 adds the traced pass and reports the per-layer metrics")
	out := flag.String("out", defaultOut(), "directory for the result JSON and the Chrome trace")
	flag.Parse()

	o := opts{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), trace: *traceFlag != 0}
	var err error
	switch {
	case *list:
		for _, w := range workloads() {
			fmt.Printf("%-13s %s\n", w.name, w.why)
		}
	case *all:
		err = runAll(o, *out)
	case *name != "":
		err = runOne(*name, o, *out)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// defaultOut is bench/out seen from the root of the checkout (where run.sh
// starts the binary) and from bench/ itself (where `go run .` does); both
// are git-ignored.
func defaultOut() string {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return filepath.Join("bench", "out")
	}
	return "out"
}

// runOne runs one workload in this process, prints every metric by name,
// writes <out>/<workload>.json (and .trace.json after a traced pass) and
// ends standard output with the one-line result object.
func runOne(name string, o opts, out string) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q (try --list)", name)
	}
	res, tr, err := runWorkload(w, o)
	if err != nil {
		return err
	}
	res.print(os.Stdout)
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(out, name+".json"), res); err != nil {
		return err
	}
	if tr != nil {
		f, err := os.Create(filepath.Join(out, name+".trace.json"))
		if err != nil {
			return err
		}
		if err := tr.writeChrome(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.EndToEnd}
	if o.trace {
		line.Metrics = res.PerLayer
	}
	return json.NewEncoder(os.Stdout).Encode(line)
}

// runAll re-executes this binary once per workload, so allocation, RSS,
// plan-cache and sync.Pool state never leak from one workload into the
// next, then gathers the per-workload files into <out>/result.json.
func runAll(o opts, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	s := suite{PR: "0012", Host: fingerprint(), Workloads: map[string]result{}}
	for _, w := range workloads() {
		cmd := exec.Command(self, "--workload", w.name, "--trace", "1", "--out", out,
			"--seed", fmt.Sprint(o.seed), "--seconds", fmt.Sprint(o.window.Seconds()))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		var res result
		if err := readJSON(filepath.Join(out, w.name+".json"), &res); err != nil {
			return err
		}
		s.Workloads[w.name] = res
	}
	path := filepath.Join(out, "result.json")
	if err := writeJSON(path, s); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	for _, name := range s.workloadNames() {
		if !s.Workloads[name].Correct {
			return fmt.Errorf("%s: results were wrong (%d of %d ops failed)", name,
				s.Workloads[name].Failed, s.Workloads[name].Attempted)
		}
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
