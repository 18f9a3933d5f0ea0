package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchDef is the part of BENCHMARK.json the self-check and the tests read.
type benchDef struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
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

func readBenchDef(path string) (*benchDef, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def benchDef
	if err := json.Unmarshal(raw, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &def, nil
}

// worseBy is how much worse b is than a, as a share of a, in the metric's
// own direction; negative when b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// selfCheck is the A/A mode: two sets of n passes over all five workloads,
// interleaved A B A B …, every run on a seed of its own, as the driver
// does it. The same code on both sides must agree within the benchmark's
// own bounds: per workload and end-to-end metric it prints both medians,
// the gap, each set's quartile spread and the bound, and it fails if a gap
// (in either direction) or a spread exceeds the bound. Like the driver it
// shows but does not gate the spread of setup_s: a one-second phase read
// three times a run does not repeat better than the host does.
func selfCheck(n int, c config, benchFile string) int {
	def, err := readBenchDef(benchFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: self-check needs the bounds:", err)
		return 2
	}
	// values[set][workload][metric] = one value per pass
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for _, sp := range specs {
			values[set][sp.name] = map[string][]float64{}
		}
	}
	for pass := 0; pass < n; pass++ {
		for set := 0; set < 2; set++ {
			for i := range specs {
				sp := &specs[i]
				run := c
				run.sp, run.seed, run.trace = sp, c.seed+uint64(2*pass+set), false
				line, err := child(run, false)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				if !line.Correct {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d of %d failed\n", sp.name, run.seed, line.Failed, line.Attempted)
					return 1
				}
				for name, m := range line.Metrics {
					values[set][sp.name][name] = append(values[set][sp.name][name], m.Value)
				}
			}
			fmt.Fprintf(os.Stderr, "self-check: pass %d/%d set %c done\n", pass+1, n, 'A'+set)
		}
	}
	fmt.Printf("| workload | metric | median A | median B | gap %% | spread A %% | spread B %% | bound %% | |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|\n")
	bad := 0
	for _, sp := range specs {
		for _, e := range def.EndToEnd {
			a, b := values[0][sp.name][e.Name], values[1][sp.name][e.Name]
			ma, mb := median(a), median(b)
			gap := max(worseBy(ma, mb, e.Better), worseBy(mb, ma, e.Better))
			sa, sb := quartileSpread(a), quartileSpread(b)
			verdict := "ok"
			if gap > e.Bound || (e.Name != "setup_s" && max(sa, sb) > e.Bound) {
				verdict = "OVER"
				bad++
			}
			fmt.Printf("| %s | %s | %.5g | %.5g | %.2f | %.2f | %.2f | %.0f | %s |\n",
				sp.name, e.Name, ma, mb, 100*gap, 100*sa, 100*sb, 100*e.Bound, verdict)
			fmt.Fprintf(os.Stderr, "self-check: %s %s A %.5g B %.5g\n", sp.name, e.Name, a, b)
		}
	}
	if bad > 0 {
		fmt.Printf("self-check: %d metric(s) outside their bound\n", bad)
		return 1
	}
	fmt.Println("self-check: every gap and spread within its bound")
	return 0
}
