// Command experiments regenerates the full evaluation suite (tables T1–T5,
// figures F1–F5 and ablations A1–A4, listed in the internal/exps package
// doc): Markdown to stdout and one CSV per experiment into --out.
//
// Usage:
//
//	experiments [--out results] [--seed 42] [--quick] [--only T3,F1]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/exps"
)

func main() {
	out := flag.String("out", "results", "directory for CSV output (empty disables)")
	seed := flag.Int64("seed", 42, "random seed for every workload generator")
	quick := flag.Bool("quick", false, "reduced instance sizes and sweeps")
	only := flag.String("only", "", "comma-separated experiment IDs to run (default all)")
	plot := flag.Bool("plot", false, "render figure experiments as ASCII charts too")
	parallel := flag.Int("parallel", 1, "experiments to run concurrently (full suite only)")
	flag.Parse()

	cfg := exps.Config{Seed: *seed, Quick: *quick}
	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToUpper(id))] = true
		}
	}

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
	if *parallel > 1 && len(want) == 0 && !*plot {
		start := time.Now()
		if err := exps.RunAllParallel(os.Stdout, *out, cfg, *parallel); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Printf("_%d experiments in %v (%d workers)_\n",
			len(exps.All()), time.Since(start).Round(time.Millisecond), *parallel)
		return
	}
	start := time.Now()
	ran := 0
	for _, exp := range exps.All() {
		if len(want) > 0 && !want[exp.ID] {
			continue
		}
		t0 := time.Now()
		table, err := exp.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s failed: %v\n", exp.ID, err)
			os.Exit(1)
		}
		fmt.Println(table.Markdown())
		if *plot && strings.HasPrefix(exp.ID, "F") {
			fmt.Println("```")
			fmt.Print(table.DefaultPlot(64, 16, exp.ID == "F1"))
			fmt.Println("```")
		}
		fmt.Printf("_(%s generated in %v)_\n\n", exp.ID, time.Since(t0).Round(time.Millisecond))
		if *out != "" {
			path := filepath.Join(*out, exp.ID+".csv")
			if err := os.WriteFile(path, []byte(table.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "experiments: nothing matched --only; known IDs: T1..T5, F1..F5")
		os.Exit(1)
	}
	fmt.Printf("_%d experiments in %v_\n", ran, time.Since(start).Round(time.Millisecond))
}
