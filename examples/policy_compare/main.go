// Policy comparison: a reduced-scale Figure 8 — the three 5-hour
// workload intervals under every policy/cap combination, described as a
// declarative sim.RunSpec (the predefined Figure 8 grid as an explicit
// cell list), executed through the facade's worker pool, and summarized
// by the ascii sink's comparison table plus the sweep's parallel speedup
// accounting.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/replay"
	"repro/internal/sim"
)

func main() {
	racks := flag.Int("racks", 8, "machine size in racks (56 = full Curie)")
	workers := flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	flag.Parse()

	cells, err := sim.CellsFromScenarios(replay.Fig8Scenarios(*racks))
	if err != nil {
		log.Fatal(err)
	}
	spec := sim.RunSpec{
		Name:    "policy-compare",
		Racks:   *racks,
		Cells:   cells,
		Workers: *workers,
	}
	scens, err := spec.Scenarios()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("running %d scenarios on a %d-node machine...\n",
		len(scens), scens[0].Machine().Nodes())

	rep, err := sim.Run(context.Background(), spec)
	if err != nil {
		log.Fatal(err)
	}
	if errs := rep.Errs(); len(errs) > 0 {
		fmt.Printf("sweep failed: %v\n", errs[0])
		return
	}
	if err := sim.Export(os.Stdout, "ascii", rep, sim.SinkOptions{}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nexpected shape (paper, Section VII-C): work and energy fall with the")
	fmt.Println("cap; DVFS accumulates more core-time than SHUT (slowed jobs run longer);")
	fmt.Println("MIX tends to the lowest energy at comparable work.")
}
