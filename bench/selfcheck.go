package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkFile mirrors the keys of BENCHMARK.json the benchmark itself
// reads: names, directions and bounds.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(benchDir string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(benchDir, "..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %v", err)
	}
	return &bf, nil
}

// selfcheckRow is one metric x workload comparison of the two sets.
type selfcheckRow struct {
	Workload  string    `json:"workload"`
	Metric    string    `json:"metric"`
	Bound     float64   `json:"bound"`
	SetA      []float64 `json:"set_a"`
	SetB      []float64 `json:"set_b"`
	MedianA   float64   `json:"median_a"`
	MedianB   float64   `json:"median_b"`
	Worsening float64   `json:"worsening"` // of B's median against A's, as a share of A's; negative = B better
	SpreadA   float64   `json:"spread_a"`  // (q3-q1)/median; 0 when a set has fewer than 4 runs
	SpreadB   float64   `json:"spread_b"`
	OK        bool      `json:"ok"`
}

// runSelfcheck measures every selected workload in two back-to-back sets
// of runs (seeds seed, seed+1, ...; the same seeds in both sets) and holds
// the sets to the benchmark's own bounds: the second median may not be
// worse than the first by more than the metric's bound, and — except for
// setup_s — each set's quartile spread must stay within it. The rows go to
// bench/out/selfcheck.json.
func runSelfcheck(ws []*workloadDef, opt options, runs int) bool {
	bf, err := readBenchmarkFile(opt.dir)
	if err != nil {
		fatalf("%v", err)
	}
	stamp := newMachineStamp()
	sets := [2]map[string][]*report{{}, {}}
	for s := range sets {
		for _, w := range ws {
			for i := 0; i < runs; i++ {
				o := opt
				o.seed = opt.seed + int64(i)
				rep, err := runEndToEnd(w, o)
				if err != nil {
					fatalf("%s: %v", w.name, err)
				}
				fmt.Fprintf(os.Stderr, "selfcheck: set %c %s seed %d: wall_s=%.4f failed=%d/%d\n",
					'A'+s, w.name, o.seed, rep.Metrics["wall_s"].Value, rep.Failed, rep.Attempted)
				sets[s][w.name] = append(sets[s][w.name], rep)
			}
		}
	}
	stamp.finish()

	ok := true
	var rows []selfcheckRow
	fmt.Printf("# %s\n", stamp)
	fmt.Printf("%-13s %-18s %12s %12s %9s %8s %8s %6s\n", "workload", "metric", "median_a", "median_b", "worsening", "spread_a", "spread_b", "bound")
	for _, w := range ws {
		for _, s := range sets {
			for _, rep := range s[w.name] {
				if rep.Failed > 0 {
					fmt.Printf("%-13s FAILED %d of %d operations: %v\n", w.name, rep.Failed, rep.Attempted, rep.notes)
					ok = false
				}
			}
		}
		for _, decl := range bf.EndToEnd {
			row := selfcheckRow{Workload: w.name, Metric: decl.Name, Bound: decl.Bound}
			for _, rep := range sets[0][w.name] {
				row.SetA = append(row.SetA, rep.Metrics[decl.Name].Value)
			}
			for _, rep := range sets[1][w.name] {
				row.SetB = append(row.SetB, rep.Metrics[decl.Name].Value)
			}
			row.MedianA, row.MedianB = median(row.SetA), median(row.SetB)
			row.Worsening = (row.MedianB - row.MedianA) / row.MedianA
			if decl.Better == "higher" {
				row.Worsening = -row.Worsening
			}
			row.OK = row.Worsening <= decl.Bound
			if runs >= 4 {
				row.SpreadA = iqr(row.SetA) / row.MedianA
				row.SpreadB = iqr(row.SetB) / row.MedianB
				if decl.Name != "setup_s" {
					row.OK = row.OK && row.SpreadA <= decl.Bound && row.SpreadB <= decl.Bound
				}
			}
			verdict := ""
			if !row.OK {
				verdict = "  EXCEEDS BOUND"
				ok = false
			}
			fmt.Printf("%-13s %-18s %12.6g %12.6g %+9.4f %8.4f %8.4f %6.3f%s\n", row.Workload, row.Metric,
				row.MedianA, row.MedianB, row.Worsening, row.SpreadA, row.SpreadB, row.Bound, verdict)
			rows = append(rows, row)
		}
	}
	record := map[string]any{"machine": stamp.String(), "seed": opt.seed, "runs": runs, "seconds": opt.seconds, "rows": rows}
	data, err := json.MarshalIndent(record, "", " ")
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		fatalf("%v", err)
	}
	if err := os.WriteFile(filepath.Join(opt.out, "selfcheck.json"), append(data, '\n'), 0o644); err != nil {
		fatalf("%v", err)
	}
	return ok
}

func median(v []float64) float64 {
	_, q2, _ := quartiles(v)
	return q2
}

// iqr is the distance between the first and the third quartile.
func iqr(v []float64) float64 {
	q1, _, q3 := quartiles(v)
	return q3 - q1
}

// quartiles computes the cut points Python's statistics.quantiles(v, n=4)
// gives (the default "exclusive" method), because that is how the
// acceptance procedure measures spread. Fewer than two values have no
// spread: all three cut points read the value itself (0 when empty).
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	switch m {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
