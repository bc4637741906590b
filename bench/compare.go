package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// side is one metric's values on one side of a comparison, one per set.
type side []float64

func (s side) median() float64 { return median(s) }

// spread is the sets' range as a share of their median; 0 with one set.
func (s side) spread() float64 {
	if len(s) < 2 {
		return 0
	}
	lo, hi := s[0], s[0]
	for _, v := range s {
		lo, hi = min(lo, v), max(hi, v)
	}
	return ratio(hi-lo, s.median())
}

// verdict judges b against a for one end-to-end metric: how much worse b's
// median is, as a share of a's, against the metric's bound. When either
// side's own sets spread wider than the bound, the difference cannot be told
// from noise and the metric is unresolved, not unchanged.
func verdict(d boundedDef, a, b side) (worse float64, v string) {
	worse = ratio(b.median()-a.median(), a.median())
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case max(a.spread(), b.spread()) > d.Bound:
		return worse, "unresolved"
	case worse > d.Bound:
		return worse, "worse"
	case worse < -d.Bound:
		return worse, "better"
	}
	return worse, "same"
}

func values(sr suiteResult, workload, metric string) side {
	var s side
	for _, set := range sr.Sets {
		if m, ok := set[workload].EndToEnd[metric]; ok {
			s = append(s, m.Value)
		}
	}
	return s
}

// printComparison prints one row per workload × end-to-end metric, and
// returns the rows judged worse and whether any row differs either way.
func printComparison(w io.Writer, a, b suiteResult) (worse []string, differs bool) {
	fmt.Fprintf(w, "%-14s %-20s %14s %14s  %-22s %6s  %s\n", "workload", "metric", "a", "b", "b/a (base a)", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := values(a, wl.name, d.Name), values(b, wl.name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			_, v := verdict(d, va, vb)
			fmt.Fprintf(w, "%-14s %-20s %14.6g %14.6g  %-22s %5.0f%%  %s\n", wl.name, d.Name, va.median(), vb.median(),
				fmt.Sprintf("%.4f of %.6g %s", ratio(vb.median(), va.median()), va.median(), d.Unit), d.Bound*100, v)
			if v == "worse" {
				worse = append(worse, wl.name+"/"+d.Name)
			}
			differs = differs || v == "worse" || v == "better"
		}
	}
	return worse, differs
}

// compareMain implements `bench compare a.json b.json`: exit status 1 when
// any end-to-end metric of b is worse than a's by more than its bound.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(errOut, "usage: bench compare a.json b.json")
		return 2
	}
	var sides [2]suiteResult
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &sides[i])
		}
		if err != nil {
			fmt.Fprintf(errOut, "bench compare: %s: %v\n", path, err)
			return 2
		}
	}
	if worse, _ := printComparison(os.Stdout, sides[0], sides[1]); len(worse) > 0 {
		fmt.Println("worse:", worse)
		return 1
	}
	return 0
}
