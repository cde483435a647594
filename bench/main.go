// Command bench is the repository's benchmark: six workloads driven
// through the public functions of internal/sim and internal/service,
// four end-to-end metrics per workload behind a correctness gate, and —
// in a separate traced run — spans around every call the benchmark makes
// into a layer, from which the per-layer metrics come. README.md in this
// directory says what each workload and metric is for; BENCHMARK.json at
// the repository root fixes their names and bounds.
//
// It is a module of its own (repro/bench, replacing repro with the
// parent directory) so that the benchmark has its own build file; run it
// from the repository root with
//
//	bash bench/run.sh --workload replay_curie --seed 1 --seconds 10 --trace 0
//
// or, without the wrapper's private build cache, from this directory
// with `go run . -root ..`.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// defaultSeed is the seed the committed numbers in README.md were
// measured with.
const defaultSeed = 1

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		root          = fs.String("root", ".", "repository root (holds testdata/ and bench/)")
		name          = fs.String("workload", "all", "workload to run, or all: every workload in a child process each")
		seed          = fs.Int64("seed", defaultSeed, "seeds every generated input")
		seconds       = fs.Float64("seconds", 10, "length of the timed window")
		trace         = fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
		runs          = fs.Int("runs", 1, "with -workload all: how many times to run the suite")
		out           = fs.String("out", "", "with -workload all: results file (default bench/out/results.json)")
		compare       = fs.Bool("compare", false, "compare two results files: bench -compare a.json b.json")
		writeExpected = fs.Bool("write-expected", false, "rewrite bench/expected.json from this build's fingerprints")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if _, err := os.Stat(filepath.Join(*root, "bench", "expected.json")); err != nil {
		fmt.Fprintf(stderr, "bench: %s is not the repository root (pass -root): %v\n", *root, err)
		return 2
	}
	if *seconds <= 0 || math.IsNaN(*seconds) {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)
	expect, err := loadExpectations(expectedJSON)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	cfg := &config{
		root:    *root,
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace != 0,
		procs:   procs,
		outDir:  filepath.Join(*root, "bench", "out"),
		expect:  expect,
		log:     stdout,
	}
	if *writeExpected {
		if err := rewriteExpected(cfg); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	}
	if *name == "all" {
		path := *out
		if path == "" {
			path = filepath.Join(cfg.outDir, "results.json")
		}
		if err := runSuite(cfg, *runs, path, stdout, stderr); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	res, err := runWorkload(cfg, w)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	for k, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fmt.Fprintf(stderr, "bench: metric %s has no value\n", k)
			return 1
		}
	}
	fmt.Fprintln(stdout, res.line())
	return 0
}
