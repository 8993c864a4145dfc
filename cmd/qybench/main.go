// Command qybench regenerates the paper's experiments: every table and
// figure artifact has a corresponding experiment in internal/bench (see
// docs/BENCHMARKS.md for the experiment index). Engine and service
// performance is measured by benchmarks/e2e against BENCHMARK.json, not
// here.
//
// Usage:
//
//	qybench                  # run everything, text output
//	qybench -list            # list the experiments and exit
//	qybench -exp fig2,ghz    # run selected experiments
//	qybench -quick           # smaller sizes (seconds, for CI)
//	qybench -format md       # markdown tables
//	qybench -out results/    # additionally write one CSV per table
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"qymera/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
	quick := flag.Bool("quick", false, "reduced problem sizes")
	format := flag.String("format", "text", "text, md, or csv")
	out := flag.String("out", "", "directory for per-table CSV files")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-10s %s\n           %s\n", e.ID, e.Paper, e.Desc)
		}
		return
	}

	var selected []bench.Experiment
	if *exp == "all" {
		selected = bench.Experiments()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, err := bench.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, "qybench:", err)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	opts := bench.Options{Quick: *quick}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "qybench:", err)
			os.Exit(1)
		}
	}

	failed := false
	for _, e := range selected {
		fmt.Printf("### experiment %s — %s\n", e.ID, e.Paper)
		start := time.Now()
		tables, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qybench: experiment %s: %v\n", e.ID, err)
			failed = true
			continue
		}
		fmt.Printf("(completed in %s)\n\n", bench.FormatDuration(time.Since(start)))
		for ti, t := range tables {
			switch *format {
			case "md":
				fmt.Println(t.Markdown())
			case "csv":
				fmt.Println(t.CSV())
			default:
				fmt.Println(t.Text())
			}
			if *out != "" {
				name := fmt.Sprintf("%s_%d.csv", e.ID, ti+1)
				if err := os.WriteFile(filepath.Join(*out, name), []byte(t.CSV()), 0o644); err != nil {
					fmt.Fprintln(os.Stderr, "qybench:", err)
					failed = true
				}
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}
