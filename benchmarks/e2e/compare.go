package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkJSON is the part of BENCHMARK.json the harness reads.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict judges one end-to-end metric of one workload: b against the
// base a, with ratio = median(b) / median(a). A spread — (Q3−Q1)/median
// over a side's repeated sets — wider than the bound cannot resolve a
// change of the bound's size, so the pair is unresolved, not unchanged.
func verdict(a, b []float64, lowerIsBetter bool, bound float64) (status string, ratio float64) {
	ratio = median(b) / median(a)
	worse := ratio - 1 // the share of a's median by which b is worse
	if !lowerIsBetter {
		worse = 1 - ratio
	}
	switch {
	case quartileSpread(a) > bound || quartileSpread(b) > bound:
		return "unresolved", ratio
	case worse > bound:
		return "worse", ratio
	}
	return "ok", ratio
}

// compareFiles prints, per workload and end-to-end metric, both
// medians, the ratio b/a, the bound and the verdict. It reports
// whether no pair is worse.
func compareFiles(w io.Writer, benchPath, aPath, bPath string) (bool, error) {
	var bench benchmarkJSON
	var a, b report
	for path, v := range map[string]any{benchPath: &bench, aPath: &a, bPath: &b} {
		if err := readJSON(path, v); err != nil {
			return false, err
		}
	}
	values := func(r *report, workload, metric string) []float64 {
		for _, wj := range r.Workloads {
			if wj.Name != workload {
				continue
			}
			for _, m := range wj.Metrics {
				if m.Name == metric {
					return m.Values
				}
			}
		}
		return nil
	}
	fmt.Fprintf(w, "base a = %s (git %s)\n     b = %s (git %s)\n", aPath, a.Envelope.GitSHA, bPath, b.Envelope.GitSHA)
	fmt.Fprintf(w, "%-18s %-12s %14s %14s %9s %6s %8s %8s  %s\n",
		"workload", "metric", "a", "b", "b/a", "bound", "spread_a", "spread_b", "verdict")
	ok := true
	for _, wl := range bench.Workloads {
		for _, m := range bench.EndToEnd {
			va, vb := values(&a, wl.Name, m.Name), values(&b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue // the workload or pass was not run on both sides
			}
			status, ratio := verdict(va, vb, m.Better == "lower", m.Bound)
			ok = ok && status != "worse"
			fmt.Fprintf(w, "%-18s %-12s %14.6g %14.6g %9.4f %6.2f %8.4f %8.4f  %s\n",
				wl.Name, m.Name, median(va), median(vb), ratio, m.Bound, quartileSpread(va), quartileSpread(vb), status)
		}
	}
	return ok, nil
}
