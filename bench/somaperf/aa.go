package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// somaperf aa: the benchmark measured against itself. The whole benchmark
// is run as interleaved sets of the same code; for every end-to-end metric
// on every workload it prints each set's median and inter-quartile range,
// the relative difference between the medians, and the metric's bound from
// BENCHMARK.json. Two sets of identical code that differ by more than half
// a metric's bound mean the bound cannot tell a regression from noise.

// benchmarkFile is the part of BENCHMARK.json the A/A check needs.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type aaRow struct {
	Workload string      `json:"workload"`
	Metric   string      `json:"metric"`
	Unit     string      `json:"unit"`
	Values   [][]float64 `json:"values"` // per set, in run order
	Medians  []float64   `json:"medians"`
	IQRShare []float64   `json:"iqr_share"` // (Q3-Q1)/median per set
	RelDiff  float64     `json:"rel_diff"`  // worst set median vs best, as a share of the best
	Bound    float64     `json:"bound"`
	Pass     bool        `json:"pass"` // rel_diff <= bound/2
}

type aaReport struct {
	Date       string  `json:"date"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"num_cpu"`
	RunSeconds int     `json:"run_seconds"`
	Sets       int     `json:"sets"`
	Runs       int     `json:"runs"`
	Rows       []aaRow `json:"rows"`
	Pass       bool    `json:"pass"`
}

func runAA(argv []string) int {
	fs := flag.NewFlagSet("somaperf aa", flag.ContinueOnError)
	sets := fs.Int("sets", 2, "interleaved sets of runs")
	runs := fs.Int("runs", 5, "runs per set and workload, each with its own seed")
	only := fs.String("workload", "", "restrict to one workload (default: all four)")
	out := fs.String("o", "", "report file (default: bench/AA.json)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *sets < 2 || *runs < 2 {
		fmt.Fprintln(os.Stderr, "somaperf aa: need -sets >= 2 and -runs >= 2")
		return 2
	}
	env, err := prepare()
	if err != nil {
		fmt.Fprintf(os.Stderr, "somaperf aa: %v\n", err)
		return 1
	}
	var bf benchmarkFile
	raw, err := os.ReadFile(filepath.Join(env.root, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(raw, &bf)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "somaperf aa: BENCHMARK.json: %v\n", err)
		return 1
	}
	ws := workloads
	if *only != "" {
		w := workloadByName(*only)
		if w == nil {
			fmt.Fprintf(os.Stderr, "somaperf aa: unknown workload %q\n", *only)
			return 2
		}
		ws = []*workload{w}
	}

	// values[workload][metric][set] = one value per run.
	values := map[string]map[string][][]float64{}
	for _, w := range ws {
		values[w.name] = map[string][][]float64{}
		for _, m := range bf.EndToEnd {
			values[w.name][m.Name] = make([][]float64, *sets)
		}
	}
	failedRuns := 0
	for run := 0; run < *runs; run++ {
		for set := 0; set < *sets; set++ {
			for _, w := range ws {
				seed := int64(1 + run**sets + set)
				res, err := env.runEndToEnd(w, seed, bf.RunSeconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "somaperf aa: %s run %d set %d: %v\n", w.name, run, set, err)
					return 1
				}
				if !res.Correct {
					failedRuns++
				}
				for _, m := range bf.EndToEnd {
					values[w.name][m.Name][set] = append(values[w.name][m.Name][set], res.Metrics[m.Name].Value)
				}
				fmt.Fprintf(os.Stderr, "somaperf aa: %s run %d/%d set %d/%d done\n", w.name, run+1, *runs, set+1, *sets)
			}
		}
	}

	rep := aaReport{
		Date: time.Now().UTC().Format("2006-01-02"), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		RunSeconds: bf.RunSeconds, Sets: *sets, Runs: *runs, Pass: failedRuns == 0,
	}
	fmt.Printf("%-10s %-20s %-3s %12s %12s %8s %8s %8s %6s\n", "workload", "metric", "", "median A", "median B", "iqr A", "iqr B", "diff", "bound")
	for _, w := range ws {
		for _, m := range bf.EndToEnd {
			row := aaRow{Workload: w.name, Metric: m.Name, Unit: m.Unit, Values: values[w.name][m.Name], Bound: m.Bound}
			best, worst := math.Inf(1), math.Inf(-1)
			for _, vs := range row.Values {
				med := median(vs)
				row.Medians = append(row.Medians, med)
				row.IQRShare = append(row.IQRShare, iqrShare(vs))
				best, worst = math.Min(best, med), math.Max(worst, med)
			}
			row.RelDiff = (worst - best) / best
			row.Pass = row.RelDiff <= m.Bound/2
			if !row.Pass {
				rep.Pass = false
			}
			verdict := "ok"
			if !row.Pass {
				verdict = "OVER HALF BOUND"
			}
			fmt.Printf("%-10s %-20s %-3s %12.4f %12.4f %7.1f%% %7.1f%% %7.1f%% %5.0f%% %s\n", w.name, m.Name, m.Unit,
				row.Medians[0], row.Medians[1], 100*row.IQRShare[0], 100*row.IQRShare[1], 100*row.RelDiff, 100*m.Bound, verdict)
			rep.Rows = append(rep.Rows, row)
		}
	}
	path := *out
	if path == "" {
		path = filepath.Join(env.root, "bench", "AA.json")
	}
	body, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(body, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "somaperf aa: write report: %v\n", err)
		return 1
	}
	if failedRuns > 0 {
		fmt.Fprintf(os.Stderr, "somaperf aa: %d runs had failed operations\n", failedRuns)
	}
	if !rep.Pass {
		return 1
	}
	return 0
}
