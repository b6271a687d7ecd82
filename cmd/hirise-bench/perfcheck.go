package main

import (
	"fmt"
	"io"
)

// perfDelta is one benchmark's new-vs-baseline comparison.
type perfDelta struct {
	name       string
	kind       string // "ok" | "soft" | "hard" | "missing" | "new"
	reason     string
	curNs      float64
	baseNs     float64
	curAllocs  int64
	baseAllocs int64
}

// comparePerf matches cur against base by benchmark name and classifies
// every pair. Allocation counts are exact, so any allocs/op increase is
// a hard regression; ns/op is noisy, so only a slowdown beyond tol
// (fractional, e.g. 0.25 = 25%) counts, and then only as a soft
// regression. A benchmark present in the baseline but missing from the
// new run is hard too — a silently dropped benchmark would blind the
// gate. Benchmarks new to cur are reported informationally.
func comparePerf(cur, base []perfResult, tol float64) []perfDelta {
	curBy := make(map[string]perfResult, len(cur))
	for _, r := range cur {
		curBy[r.Name] = r
	}
	deltas := make([]perfDelta, 0, len(base)+len(cur))
	for _, b := range base {
		c, ok := curBy[b.Name]
		if !ok {
			deltas = append(deltas, perfDelta{
				name: b.Name, kind: "missing",
				reason:     "benchmark present in baseline but absent from new run",
				baseNs:     b.NsPerOp,
				baseAllocs: b.AllocsPerOp,
			})
			continue
		}
		delete(curBy, b.Name)
		d := perfDelta{
			name: b.Name, kind: "ok",
			curNs: c.NsPerOp, baseNs: b.NsPerOp,
			curAllocs: c.AllocsPerOp, baseAllocs: b.AllocsPerOp,
		}
		switch {
		case c.AllocsPerOp > b.AllocsPerOp:
			d.kind = "hard"
			d.reason = fmt.Sprintf("allocs/op %d -> %d", b.AllocsPerOp, c.AllocsPerOp)
		case b.NsPerOp > 0 && c.NsPerOp > b.NsPerOp*(1+tol):
			d.kind = "soft"
			d.reason = fmt.Sprintf("ns/op %.1f -> %.1f (+%.0f%%, tolerance %.0f%%)",
				b.NsPerOp, c.NsPerOp, (c.NsPerOp/b.NsPerOp-1)*100, tol*100)
		}
		deltas = append(deltas, d)
	}
	// Anything left in curBy is new; keep cur's order for determinism.
	for _, c := range cur {
		if _, ok := curBy[c.Name]; ok {
			deltas = append(deltas, perfDelta{
				name: c.Name, kind: "new",
				reason:    "benchmark absent from baseline",
				curNs:     c.NsPerOp,
				curAllocs: c.AllocsPerOp,
			})
		}
	}
	return deltas
}

// runPerfCheck loads two -perf JSON files, compares NEW against
// BASELINE, prints a verdict table to w, and returns an error when the
// gate fails: always on hard regressions (allocs/op growth, missing
// benchmarks), and on soft ns/op regressions too unless warnOnly.
func runPerfCheck(w io.Writer, newPath, basePath string, tol float64, warnOnly bool) error {
	if tol < 0 {
		return fmt.Errorf("perf-check: tolerance %v must be >= 0", tol)
	}
	cur, err := loadPerfFile(newPath)
	if err != nil {
		return fmt.Errorf("perf-check new: %w", err)
	}
	base, err := loadPerfFile(basePath)
	if err != nil {
		return fmt.Errorf("perf-check baseline: %w", err)
	}
	deltas := comparePerf(cur.Benchmarks, base.Benchmarks, tol)

	var hard, soft int
	fmt.Fprintf(w, "%-40s %-8s %s\n", "benchmark", "verdict", "detail")
	for _, d := range deltas {
		verdict, detail := "ok", ""
		switch d.kind {
		case "hard", "missing":
			hard++
			verdict, detail = "FAIL", d.reason
		case "soft":
			soft++
			verdict, detail = "slow", d.reason
			if warnOnly {
				verdict = "warn"
			}
		case "new":
			verdict, detail = "new", d.reason
		default:
			detail = d.reason
			if detail == "" && d.baseNs > 0 && d.curNs > 0 {
				detail = fmt.Sprintf("ns/op %.1f -> %.1f", d.baseNs, d.curNs)
			}
		}
		fmt.Fprintf(w, "%-40s %-8s %s\n", d.name, verdict, detail)
	}

	switch {
	case hard > 0 && soft > 0:
		return fmt.Errorf("perf-check: %d hard regression(s) and %d ns/op regression(s) vs %s", hard, soft, basePath)
	case hard > 0:
		return fmt.Errorf("perf-check: %d hard regression(s) vs %s", hard, basePath)
	case soft > 0 && !warnOnly:
		return fmt.Errorf("perf-check: %d ns/op regression(s) beyond %.0f%% vs %s (use -perf-warn-only to downgrade)",
			soft, tol*100, basePath)
	case soft > 0:
		fmt.Fprintf(w, "perf-check: %d ns/op regression(s) beyond %.0f%% (warn-only)\n", soft, tol*100)
	default:
		fmt.Fprintf(w, "perf-check: no regressions vs %s\n", basePath)
	}
	return nil
}
