package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// suiteRun is one workload's result inside a results file.
type suiteRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

// suiteFile is what `bench -workload all` writes and `bench -compare`
// reads: every run of every workload, in the order they ran.
type suiteFile struct {
	Seconds float64    `json:"seconds"`
	Runs    []suiteRun `json:"runs"`
}

// runSuite runs every workload in a child process of its own — so heap,
// hot tier and GC state never leak from one workload into the next —
// reps times over, prints each child's report, and writes the results
// file -compare reads.
func runSuite(cfg *config, reps int, path string, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := suiteFile{Seconds: cfg.seconds}
	for rep := 0; rep < reps; rep++ {
		for _, w := range workloads {
			args := []string{
				"-root", cfg.root, "-workload", w.name,
				"-seed", strconv.FormatInt(cfg.seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
			}
			if cfg.trace {
				args = append(args, "-trace", "1")
			}
			var out bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout = io.MultiWriter(&out, stdout)
			cmd.Stderr = stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s: last line is not a result: %w", w.name, err)
			}
			file.Runs = append(file.Runs, suiteRun{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, result: res})
		}
	}
	b, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "results written to %s\n", path)
	return nil
}

// rewriteExpected fingerprints every pool entry with this build and
// writes bench/expected.json. Only an intentional change of simulated
// behaviour justifies it; the goldens under testdata/ are never written.
func rewriteExpected(cfg *config) error {
	out := expectations{}
	for name, pool := range map[string][]sim.RunSpec{
		"replay_curie":      curiePool(),
		"sweep_grid":        sweepPool(cfg.procs),
		"federation_epochs": federationPool(),
	} {
		r := &replayInst{name: name, pool: pool}
		fps, err := r.fingerprints()
		if err != nil {
			return err
		}
		out[name] = fps
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.root, "bench", "expected.json"), append(b, '\n'), 0o644)
}
