// Command experiments regenerates every table and figure reproduced from
// "Locating a Small Cluster Privately" (one runner per experiment, in
// internal/experiments).
//
// Usage:
//
//	experiments -exp all            # everything (a few minutes)
//	experiments -exp table1        # one artifact
//	experiments -exp fig1 -quick   # reduced sizes
//	experiments -list              # enumerate experiment ids
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"privcluster/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id or 'all'")
	seed := flag.Int64("seed", 1, "random seed (results are deterministic per seed)")
	quick := flag.Bool("quick", false, "reduced sizes for a fast pass")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-16s %s\n", e.ID, e.Artifact)
		}
		return
	}

	var todo []experiments.Experiment
	if *exp == "all" {
		todo = experiments.All()
	} else {
		e, err := experiments.Get(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		todo = []experiments.Experiment{e}
	}
	for _, e := range todo {
		fmt.Printf("### %s (%s)\n\n", e.Artifact, e.ID)
		start := time.Now()
		tables := e.Run(*seed, *quick)
		for _, t := range tables {
			fmt.Println(t.Render())
		}
		fmt.Printf("[%s completed in %s]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
