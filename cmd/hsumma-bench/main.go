// Command hsumma-bench regenerates the paper's evaluation artefacts: one
// experiment per table/figure (table1, table2, fig5…fig10, valgrid,
// valbgp, headline).
//
// Usage:
//
//	hsumma-bench -list
//	hsumma-bench -exp fig8
//	hsumma-bench -exp all -quick
//	hsumma-bench -exp fig5 -format csv
//	hsumma-bench -exp fig8 -uncalibrated   # paper's published α/β only
//
// It times nothing about this repository's own runtime: the kernel, the
// virtual engines and the serving path are measured in one place, bench/
// (bash bench/run.sh, declared in BENCHMARK.json).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/exp"
)

func main() {
	var (
		id           = flag.String("exp", "", "experiment id, or 'all'")
		list         = flag.Bool("list", false, "list experiments")
		quick        = flag.Bool("quick", false, "scaled-down configuration (seconds instead of minutes)")
		uncalibrated = flag.Bool("uncalibrated", false, "use the paper's published Hockney parameters instead of the SUMMA-fitted machines")
		format       = flag.String("format", "table", "output format: table or csv")
	)
	flag.Parse()

	if *list || *id == "" {
		fmt.Println("Available experiments (paper artefact -> id):")
		for _, e := range exp.All() {
			fmt.Printf("  %-9s %s\n            %s\n", e.ID, e.Title, e.Paper)
		}
		if *id == "" && !*list {
			fmt.Println("\nrun with -exp <id> or -exp all")
		}
		return
	}

	opts := exp.Options{Quick: *quick, Uncalibrated: *uncalibrated}
	ids := []string{*id}
	if *id == "all" {
		ids = exp.IDs()
	}
	for _, eid := range ids {
		e, err := exp.ByID(eid)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		res, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", eid, err)
			os.Exit(1)
		}
		switch *format {
		case "csv":
			fmt.Print(exp.CSV(res))
		default:
			fmt.Println(exp.Format(res))
		}
	}
}
