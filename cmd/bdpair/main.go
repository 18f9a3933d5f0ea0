// Command bdpair compares the repository benchmark between two revisions
// in alternating pairs, the protocol its gate judges a change by.
//
// It checks each revision out into a temporary directory (git archive),
// then for each workload runs, per pair i, both sides with seed+i:
//
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0
//
// where S is BENCHMARK.json's run_seconds, alternating which side goes
// first. From each run's last JSON line it takes the end-to-end metrics,
// and for every metric prints both medians, both quartile ranges, the
// head's wins, the sign-test p and a verdict against BENCHMARK.json's
// bound, then one "verdict:" line. It writes the table as markdown and
// every run and summary as JSON.
//
// A run that is not correct — it exited non-zero, failed an operation or
// left a metric missing (which the benchmark prints as 0) — stops the
// tool with exit status 1 before any verdict: its metrics would win every
// lower-is-better pair. Otherwise the exit status is 0 whatever the
// verdict.
//
//	go run ./cmd/bdpair -base HEAD~1 -head HEAD -workloads embed_write -pairs 10
//
// -base and -head each name a git revision or a directory that already
// holds a checkout (used in place, its .bench_build/ reused).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// metricDef is one end-to-end metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkDef struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
}

// runResult is the last JSON line of one bench/run.sh run.
type runResult struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

type pairRecord struct {
	Workload string    `json:"workload"`
	Seed     int       `json:"seed"`
	First    string    `json:"first"`
	Base     runResult `json:"base"`
	Head     runResult `json:"head"`
}

type report struct {
	Base    string       `json:"base"`
	Head    string       `json:"head"`
	Seconds float64      `json:"seconds"`
	Scale   float64      `json:"scale"`
	Runs    []pairRecord `json:"pairs"`
	Summary []summary    `json:"summary"`
}

func main() {
	var (
		base      = flag.String("base", "HEAD~1", "base side: a git revision or a checkout directory")
		head      = flag.String("head", "HEAD", "head side: a git revision or a checkout directory")
		workloads = flag.String("workloads", "", "comma-separated workloads; empty runs every workload of -benchmark")
		pairs     = flag.Int("pairs", 4, "pairs of runs per workload")
		seed      = flag.Int("seed", 1, "pair i runs seed+i on both sides")
		scale     = flag.Float64("scale", 1, "bench/run.sh --scale; below 1 shrinks sizes and durations for smoke runs")
		benchFile = flag.String("benchmark", "BENCHMARK.json", "benchmark definition whose metrics and bounds judge the pairs")
		jsonOut   = flag.String("json", "BENCH_pairs.json", "file the runs and summaries are written to")
		mdOut     = flag.String("md", "", "file the markdown table is also written to")
	)
	flag.Parse()
	if flag.NArg() > 0 || *pairs < 1 || *scale <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*base, *head, *workloads, *pairs, *seed, *scale, *benchFile, *jsonOut, *mdOut); err != nil {
		fmt.Fprintln(os.Stderr, "bdpair:", err)
		os.Exit(1)
	}
}

func run(base, head, workloads string, pairs, seed int, scale float64, benchFile, jsonOut, mdOut string) error {
	var def benchmarkDef
	raw, err := os.ReadFile(benchFile)
	if err == nil {
		err = json.Unmarshal(raw, &def)
	}
	if err == nil && def.RunSeconds <= 0 {
		err = errors.New("no run_seconds")
	}
	if err != nil {
		return fmt.Errorf("reading %s: %w", benchFile, err)
	}
	names := strings.FieldsFunc(workloads, func(r rune) bool { return r == ',' })
	if len(names) == 0 {
		for _, w := range def.Workloads {
			names = append(names, w.Name)
		}
	}
	var dirs, labels [2]string
	for i, rev := range []string{base, head} {
		dir, label, cleanup, err := checkout(rev)
		if err != nil {
			return err
		}
		defer cleanup()
		dirs[i], labels[i] = dir, label
	}
	rep := report{Base: labels[0], Head: labels[1], Seconds: def.RunSeconds, Scale: scale}
	fmt.Printf("bdpair: base %s, head %s, %d pair(s) per workload\n", rep.Base, rep.Head, pairs)
	for _, w := range names {
		for i := 0; i < pairs; i++ {
			p := pairRecord{Workload: w, Seed: seed + i, First: "base"}
			order := []int{0, 1}
			if i%2 == 1 {
				p.First, order = "head", []int{1, 0}
			}
			var got [2]runResult
			for _, side := range order {
				if got[side], err = benchRun(dirs[side], w, p.Seed, def.RunSeconds, scale); err != nil {
					return err
				}
			}
			p.Base, p.Head = got[0], got[1]
			fmt.Printf("pair %d/%d %s seed %d (%s first) done\n", i+1, pairs, w, p.Seed, p.First)
			rep.Runs = append(rep.Runs, p)
		}
	}
	rep.Summary = judge(def.EndToEnd, names, rep.Runs)

	var md bytes.Buffer
	writeTable(&md, rep)
	os.Stdout.Write(md.Bytes())
	if mdOut != "" {
		if err := os.WriteFile(mdOut, md.Bytes(), 0o644); err != nil {
			return err
		}
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonOut, append(out, '\n'), 0o644); err != nil {
		return err
	}
	bad := 0
	for _, s := range rep.Summary {
		if s.Verdict == verdictWorse || s.Verdict == verdictUnresolved {
			bad++
		}
	}
	if bad > 0 {
		fmt.Printf("verdict: FAIL — %d metric(s) worse than their bound or unresolved\n", bad)
	} else {
		fmt.Println("verdict: PASS — every metric within its bound")
	}
	return nil
}

// judge summarizes every metric of every workload over its pairs.
func judge(metrics []metricDef, workloads []string, runs []pairRecord) []summary {
	var out []summary
	for _, w := range workloads {
		for _, m := range metrics {
			var b, h []float64
			for _, p := range runs {
				if p.Workload != w {
					continue
				}
				bv, bok := p.Base.Metrics[m.Name]
				hv, hok := p.Head.Metrics[m.Name]
				if bok && hok {
					b, h = append(b, bv.Value), append(h, hv.Value)
				}
			}
			if len(b) == 0 {
				continue
			}
			s := summarize(m, b, h)
			s.Workload = w
			out = append(out, s)
		}
	}
	return out
}

func writeTable(w io.Writer, rep report) {
	fmt.Fprintf(w, "\n%s → %s, %g s runs at scale %g\n\n", rep.Base, rep.Head, rep.Seconds, rep.Scale)
	fmt.Fprintln(w, "| workload | metric | base median [q1, q3] | head median [q1, q3] | change | head wins | sign p | bound | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|")
	for _, s := range rep.Summary {
		bound := "—"
		if s.Bound > 0 {
			bound = fmt.Sprintf("±%.0f %%", 100*s.Bound)
		}
		fmt.Fprintf(w, "| %s | `%s` | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %+.1f %% | %d/%d | %.3g | %s | %s |\n",
			s.Workload, s.Metric, s.BaseMedian, s.BaseQ1, s.BaseQ3, s.HeadMedian, s.HeadQ1, s.HeadQ3,
			s.ChangePct, s.Wins, s.Pairs, s.SignP, bound, s.Verdict)
	}
	fmt.Fprintln(w)
}

// benchRun runs one benchmark pass in the checkout dir and returns the
// last JSON line it printed, an error unless the run was correct.
func benchRun(dir, workload string, seed int, seconds, scale float64) (runResult, error) {
	args := []string{"bench/run.sh", "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0"}
	if scale != 1 {
		args = append(args, "--scale", strconv.FormatFloat(scale, 'g', -1, 64))
	}
	cmd := exec.Command("bash", args...)
	cmd.Dir = dir
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	r, err := parseRun(stdout.Bytes(), runErr)
	if err != nil {
		err = fmt.Errorf("%s: %s seed %d: %w", dir, workload, seed, err)
	}
	return r, err
}

// parseRun reads the result line from a run's output and its exit error:
// the last line that starts with "{". A run that exited non-zero or
// reports itself not correct is an error.
func parseRun(out []byte, exitErr error) (runResult, error) {
	var r runResult
	last := ""
	for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
		if line := strings.TrimSpace(sc.Text()); strings.HasPrefix(line, "{") {
			last = line
		}
	}
	switch {
	case last == "":
		return r, fmt.Errorf("printed no JSON line (%v)", exitErr)
	case json.Unmarshal([]byte(last), &r) != nil:
		return r, fmt.Errorf("unreadable JSON line %q (%v)", last, exitErr)
	case exitErr != nil || !r.Correct:
		return r, fmt.Errorf("run not correct: %d of %d operations failed, correct %v (%v)",
			r.Failed, r.Attempted, r.Correct, exitErr)
	}
	return r, nil
}

// checkout returns a directory holding rev: rev itself if it is a
// directory, else a temporary extraction of `git archive rev`, which
// cleanup removes.
func checkout(rev string) (dir, label string, cleanup func(), err error) {
	if fi, err := os.Stat(rev); err == nil && fi.IsDir() {
		return rev, rev, func() {}, nil
	}
	commit, err := exec.Command("git", "rev-parse", "--short", rev+"^{commit}").Output()
	if err != nil {
		return "", "", nil, fmt.Errorf("%s is neither a directory nor a git revision: %w", rev, err)
	}
	label = strings.TrimSpace(string(commit))
	dir, err = os.MkdirTemp("", "bdpair-"+label+"-")
	if err != nil {
		return "", "", nil, err
	}
	cleanup = func() { os.RemoveAll(dir) }
	archive := exec.Command("git", "archive", label)
	extract := exec.Command("tar", "-x", "-C", dir)
	extract.Stdin, err = archive.StdoutPipe()
	if err == nil {
		err = extract.Start()
	}
	if err == nil {
		err = errors.Join(archive.Run(), extract.Wait())
	}
	if err != nil {
		cleanup()
		return "", "", nil, fmt.Errorf("checking out %s: %w", rev, err)
	}
	return dir, label, cleanup, nil
}
