package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles prints, for every (workload, end-to-end metric) of two -out
// files, both values, the relative change, the bound and a verdict, and
// returns 1 if any metric got worse by more than its bound or any operation
// failed in b, 2 if a file cannot be read, 0 otherwise.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, errA := readReport(pathA)
	b, errB := readReport(pathB)
	for _, err := range []error{errA, errB} {
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 2
		}
	}
	worse := false
	fmt.Fprintf(w, "%-18s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	for _, pa := range a.Passes {
		if pa.Traced {
			continue
		}
		pb := b.untraced(pa.Workload)
		if pb == nil {
			continue
		}
		for _, d := range endToEnd {
			va, okA := pa.Metrics[d.name]
			vb, okB := pb.Metrics[d.name]
			if !okA || !okB {
				continue
			}
			// change > 0 means b is worse, whichever way the metric points.
			change := ratio(vb.Value-va.Value, va.Value)
			if d.better == "higher" {
				change = -change
			}
			verdict := "ok"
			switch {
			case change > d.bound:
				verdict, worse = "worse", true
			case change < -d.bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-18s %-18s %14.4f %14.4f %+8.2f%% %6.0f%%  %s\n",
				pa.Workload, d.name, va.Value, vb.Value, 100*change, 100*d.bound, verdict)
		}
		// fail_share has no bound: any increase is a regression.
		fa := ratio(float64(pa.Failed), float64(pa.Attempted))
		fb := ratio(float64(pb.Failed), float64(pb.Attempted))
		verdict := "ok"
		if fb > fa {
			verdict, worse = "worse", true
		}
		fmt.Fprintf(w, "%-18s %-18s %14.6f %14.6f %9s %7s  %s\n", pa.Workload, "fail_share", fa, fb, "", "any", verdict)
		if pa.LossDigest != "" {
			same := "same arithmetic"
			if pa.LossDigest != pb.LossDigest {
				same = "arithmetic differs"
			}
			fmt.Fprintf(w, "%-18s %-18s %16s %16s  %s\n", pa.Workload, "loss_digest", pa.LossDigest, pb.LossDigest, same)
		}
	}
	if worse {
		return 1
	}
	return 0
}

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func (r *report) untraced(workload string) *passResult {
	for _, p := range r.Passes {
		if p.Workload == workload && !p.Traced {
			return p
		}
	}
	return nil
}
