package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json -compare needs.
type benchmarkFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
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

// iqrShare is the distance between the quartiles as a share of the
// median — the spread measure the bounds are judged against.
func iqrShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sortedCopy(xs)
	return (quantile(s, 0.75) - quantile(s, 0.25)) / quantile(s, 0.5)
}

// verdict classifies b against a for one metric on one workload.
func verdict(d metricDef, a, b float64, repsA, repsB []float64) string {
	sign := 1.0 // lower is better
	if d.Better == "higher" {
		sign = -1
	}
	change := sign * (b - a) / a // positive = worse
	if iqrShare(repsA) > d.Bound || iqrShare(repsB) > d.Bound {
		// Too noisy to call, unless the two sides do not even overlap.
		sa, sb := sortedCopy(repsA), sortedCopy(repsB)
		switch {
		case allBetter(sign, sa, sb):
			return "better"
		case allBetter(sign, sb, sa) && change > d.Bound:
			return "regressed"
		}
		return "unresolved"
	}
	switch {
	case change > d.Bound:
		return "regressed"
	case change < -d.Bound:
		return "better"
	}
	return "unchanged"
}

// allBetter reports whether every rep of b reads better than every rep
// of a; sign is +1 when lower is better.
func allBetter(sign float64, sortedA, sortedB []float64) bool {
	if len(sortedA) == 0 || len(sortedB) == 0 {
		return false
	}
	if sign > 0 {
		return sortedB[len(sortedB)-1] < sortedA[0]
	}
	return sortedB[0] > sortedA[len(sortedA)-1]
}

// compareFiles prints one row per (end-to-end metric, workload) and
// returns an error when any pair regressed. Every ratio is b ÷ a.
func compareFiles(pathA, pathB string, out io.Writer) error {
	var bm benchmarkFile
	if err := readJSON("BENCHMARK.json", &bm); err != nil {
		return err
	}
	var a, b resultsFile
	if err := readJSON(pathA, &a); err != nil {
		return err
	}
	if err := readJSON(pathB, &b); err != nil {
		return err
	}
	byName := map[string]*workloadResult{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}

	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\ta (%s)\tb (%s)\tb/a\tbound\tverdict\n", short(a.Host.GitSHA), short(b.Host.GitSHA))
	regressed := 0
	for _, wa := range a.Workloads {
		wb := byName[wa.Name]
		if wb == nil || wa.EndToEnd == nil || wb.EndToEnd == nil {
			continue
		}
		for _, d := range bm.EndToEnd {
			va, vb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			v := verdict(d, va, vb, wa.PerRep[d.Name], wb.PerRep[d.Name])
			if v == "regressed" {
				regressed++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.5g\t%.5g\t%.4f\t%.2f\t%s\n", wa.Name, d.Name, va, vb, vb/va, d.Bound, v)
		}
		if wa.Digest != wb.Digest {
			fmt.Fprintf(tw, "%s\tschedule_digest\t%s\t%s\t\t\tdiffers\n", wa.Name, wa.Digest, wb.Digest)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if regressed > 0 {
		return fmt.Errorf("%d (metric, workload) pair(s) regressed", regressed)
	}
	return nil
}

func short(sha string) string {
	if len(sha) > 10 {
		return sha[:10]
	}
	return sha
}
