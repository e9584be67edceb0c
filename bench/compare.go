package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// verdict is -compare's reading of one (metric, workload) row.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// judge applies a metric's bound to a baseline and a candidate value. The
// candidate is worse when its median is worse than the baseline's by more
// than bound × baseline + floor. When either side's own min–max spread
// over repetitions is wider than that allowance and the two ranges overlap,
// the medians cannot carry the comparison and the row is unresolved; once
// every repetition of one side reads better than every one of the other,
// the medians decide again.
func judge(def metricDef, base, cand value) verdict {
	sign := 1.0 // orient so that larger is worse
	if !def.lowerBetter {
		sign = -1
	}
	orient := func(v value) (mid, lo, hi float64) {
		a, b := sign*v.Min, sign*v.Max
		return sign * v.Value, min(a, b), max(a, b)
	}
	baseMid, baseLo, baseHi := orient(base)
	candMid, candLo, candHi := orient(cand)
	allowed := def.bound*math.Abs(base.Value) + def.floor
	worse := candMid-baseMid > allowed
	if max(baseHi-baseLo, candHi-candLo) > allowed && candHi >= baseLo && candLo <= baseHi {
		return verdictUnresolved
	}
	if worse {
		return verdictWorse
	}
	return verdictOK
}

func readResult(path string) (*resultFile, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(blob, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints one row per (metric, workload) present in both files
// and returns 1 when any row is worse.
func compareFiles(basePath, candPath string, stdout, stderr io.Writer) int {
	base, err := readResult(basePath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	cand, err := readResult(candPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	candBy := map[string]*workloadResult{}
	for _, w := range cand.Workloads {
		candBy[w.Name] = w
	}
	counts := map[verdict]int{}
	fmt.Fprintf(stdout, "%-14s %-22s %14s %14s %8s %7s  %s\n", "workload", "metric", "baseline", "candidate", "change", "bound", "verdict")
	for _, bw := range base.Workloads {
		cw, ok := candBy[bw.Name]
		if !ok {
			continue
		}
		for _, def := range endToEnd {
			b, okB := bw.Metrics[def.name]
			c, okC := cw.Metrics[def.name]
			if !okB || !okC {
				continue
			}
			v := judge(def, b, c)
			counts[v]++
			change := 0.0
			if b.Value != 0 {
				change = 100 * (c.Value - b.Value) / b.Value
			}
			fmt.Fprintf(stdout, "%-14s %-22s %14.6g %14.6g %+7.1f%% %6.1f%%  %s", bw.Name, def.name, b.Value, c.Value, change, 100*def.bound, v)
			if v == verdictUnresolved {
				fmt.Fprintf(stdout, " (baseline %.6g..%.6g, candidate %.6g..%.6g)", b.Min, b.Max, c.Min, c.Max)
			}
			fmt.Fprintln(stdout)
		}
	}
	fmt.Fprintf(stdout, "# ok %d worse %d unresolved %d\n", counts[verdictOK], counts[verdictWorse], counts[verdictUnresolved])
	if counts[verdictWorse] > 0 {
		return 1
	}
	return 0
}
