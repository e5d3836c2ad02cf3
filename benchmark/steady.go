package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness report reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// steadySets is how many sets of runs the steadiness report compares.
const steadySets = 2

// steadyReport runs every workload (or the one named) in two sets of runs,
// each run a child process with its own seed, and prints per metric and set
// the run count, quartiles, median and spread ((q3−q1)/median), then
// compares the second set's median with the first's against the metric's
// bound from BENCHMARK.json. It exits 1 when a spread or a median shift
// exceeds its bound.
func steadyReport(c *config, runs int, stdout, stderr io.Writer) int {
	bf, err := readBenchmarkFile(filepath.Join(c.root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(stderr, "uvebenchmark:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "uvebenchmark:", err)
		return 1
	}
	names := workloadNames
	if c.workload != "" {
		names = []string{c.workload}
	}
	ok := true
	for _, wl := range names {
		// vals[set][metric] holds one value per run.
		vals := make([]map[string][]float64, steadySets)
		for s := range vals {
			vals[s] = map[string][]float64{}
			for i := 0; i < runs; i++ {
				seed := uint64(1000*(s+1) + i + 1)
				got, err := childRun(self, c, wl, seed, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "uvebenchmark: %s seed %d: %v\n", wl, seed, err)
					return 1
				}
				line := fmt.Sprintf("%s set %d seed %d:", wl, s+1, seed)
				for _, m := range bf.EndToEnd {
					line += fmt.Sprintf(" %s=%.5g", m.Name, got[m.Name])
				}
				fmt.Fprintln(stderr, line)
				for name, v := range got {
					vals[s][name] = append(vals[s][name], v)
				}
			}
		}
		fmt.Fprintf(stdout, "%s: %d sets of %d runs, %g s windows\n", wl, steadySets, runs, c.seconds)
		fmt.Fprintf(stdout, "  %-12s %3s %3s %12s %12s %12s %8s %6s\n", "metric", "set", "n", "q1", "median", "q3", "spread", "bound")
		for _, m := range bf.EndToEnd {
			for s := range vals {
				xs := vals[s][m.Name]
				q1, q3 := quartiles(xs)
				med := median(xs)
				spread := 0.0
				if med != 0 {
					spread = (q3 - q1) / med
				}
				flag := ""
				if spread > m.Bound {
					flag, ok = "  SPREAD > bound", false
				}
				fmt.Fprintf(stdout, "  %-12s %3d %3d %12.5g %12.5g %12.5g %7.2f%% %5.0f%%%s\n",
					m.Name, s+1, len(xs), q1, med, q3, 100*spread, 100*m.Bound, flag)
			}
		}
		fmt.Fprintln(stdout, "  set 2 vs set 1 (worse-by as a share of set 1's median):")
		for _, m := range bf.EndToEnd {
			a, b := median(vals[0][m.Name]), median(vals[1][m.Name])
			worse := 0.0
			if a != 0 {
				worse = (b - a) / a
				if m.Better == "higher" {
					worse = -worse
				}
			}
			flag := "ok"
			if worse > m.Bound {
				flag, ok = "WORSE > bound", false
			}
			fmt.Fprintf(stdout, "    %-12s %12.5g -> %12.5g  worse-by %+7.2f%%  bound %3.0f%%  %s\n",
				m.Name, a, b, 100*worse, 100*m.Bound, flag)
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// childRun runs one untraced benchmark run as a child process and returns
// its metric values.
func childRun(self string, c *config, wl string, seed uint64, stderr io.Writer) (map[string]float64, error) {
	args := []string{"--workload", wl, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64), "--trace", "0",
		"--root", c.root, "--build", c.build}
	if c.smoke {
		args = append(args, "--smoke")
	}
	var out bytes.Buffer
	cmd := osexec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res struct {
		Correct bool
		Failed  int
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct || res.Failed > 0 {
		return nil, fmt.Errorf("run not correct (%d failed):\n%s", res.Failed, out.Bytes())
	}
	vals := map[string]float64{}
	for name, m := range res.Metrics {
		vals[name] = m.Value
	}
	return vals, nil
}
