package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writePerfFile(t *testing.T, name string, pf perfFile) string {
	t.Helper()
	raw, err := json.Marshal(pf)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func kinds(deltas []perfDelta) map[string]string {
	m := make(map[string]string, len(deltas))
	for _, d := range deltas {
		m[d.name] = d.kind
	}
	return m
}

func TestComparePerfClassification(t *testing.T) {
	base := []perfResult{
		{Name: "fast", NsPerOp: 100, AllocsPerOp: 0},
		{Name: "slow", NsPerOp: 100, AllocsPerOp: 0},
		{Name: "leaky", NsPerOp: 100, AllocsPerOp: 2},
		{Name: "noisy", NsPerOp: 100, AllocsPerOp: 0},
		{Name: "dropped", NsPerOp: 100, AllocsPerOp: 0},
	}
	cur := []perfResult{
		{Name: "fast", NsPerOp: 80, AllocsPerOp: 0},   // improvement
		{Name: "slow", NsPerOp: 200, AllocsPerOp: 0},  // 2x: soft regression
		{Name: "leaky", NsPerOp: 90, AllocsPerOp: 3},  // faster but allocates more: hard
		{Name: "noisy", NsPerOp: 120, AllocsPerOp: 0}, // +20%: inside 25% tolerance
		{Name: "added", NsPerOp: 50, AllocsPerOp: 0},  // new benchmark
	}
	got := kinds(comparePerf(cur, base, 0.25))
	want := map[string]string{
		"fast": "ok", "slow": "soft", "leaky": "hard",
		"noisy": "ok", "dropped": "missing", "added": "new",
	}
	for name, k := range want {
		if got[name] != k {
			t.Errorf("%s: kind = %q, want %q", name, got[name], k)
		}
	}
	// Zero tolerance promotes any slowdown to a soft regression.
	if got := kinds(comparePerf(cur, base, 0)); got["noisy"] != "soft" {
		t.Errorf("tolerance 0: noisy kind = %q, want soft", got["noisy"])
	}
}

// TestRunPerfCheckFlagsSyntheticRegression is the sentinel's acceptance
// test: a synthetic regression between two -perf files must fail the
// gate, with -perf-warn-only downgrading ns/op (but never allocs/op)
// failures.
func TestRunPerfCheckFlagsSyntheticRegression(t *testing.T) {
	basePath := writePerfFile(t, "base.json", perfFile{
		Schema: perfSchema,
		Benchmarks: []perfResult{
			{Name: "kernel", NsPerOp: 100, AllocsPerOp: 0, Iterations: 1000},
			{Name: "sim", NsPerOp: 5000, AllocsPerOp: 40, Iterations: 100},
		},
	})
	softPath := writePerfFile(t, "soft.json", perfFile{
		Schema: perfSchema,
		Benchmarks: []perfResult{
			{Name: "kernel", NsPerOp: 180, AllocsPerOp: 0, Iterations: 1000}, // +80% ns/op
			{Name: "sim", NsPerOp: 5000, AllocsPerOp: 40, Iterations: 100},
		},
	})
	hardPath := writePerfFile(t, "hard.json", perfFile{
		Schema: perfSchema,
		Benchmarks: []perfResult{
			{Name: "kernel", NsPerOp: 100, AllocsPerOp: 1, Iterations: 1000}, // new allocation
			{Name: "sim", NsPerOp: 5000, AllocsPerOp: 40, Iterations: 100},
		},
	})

	var out bytes.Buffer
	if err := runPerfCheck(&out, basePath, basePath, 0.25, false); err != nil {
		t.Fatalf("identical files: %v", err)
	}
	if !strings.Contains(out.String(), "no regressions") {
		t.Errorf("identical files: output missing all-clear:\n%s", out.String())
	}

	if err := runPerfCheck(&out, softPath, basePath, 0.25, false); err == nil {
		t.Fatal("ns/op regression beyond tolerance: want gate failure")
	}
	out.Reset()
	if err := runPerfCheck(&out, softPath, basePath, 0.25, true); err != nil {
		t.Fatalf("warn-only must tolerate ns/op regressions: %v", err)
	}
	if !strings.Contains(out.String(), "warn") {
		t.Errorf("warn-only output missing warning:\n%s", out.String())
	}

	// allocs/op growth fails even under -perf-warn-only.
	for _, warnOnly := range []bool{false, true} {
		err := runPerfCheck(&out, hardPath, basePath, 0.25, warnOnly)
		if err == nil {
			t.Fatalf("allocs/op regression (warnOnly=%v): want gate failure", warnOnly)
		}
		if !strings.Contains(err.Error(), "hard regression") {
			t.Errorf("warnOnly=%v: error %q does not mention hard regression", warnOnly, err)
		}
	}
}

func TestRunPerfCheckRejectsBadInputs(t *testing.T) {
	good := writePerfFile(t, "good.json", perfFile{
		Schema:     perfSchema,
		Benchmarks: []perfResult{{Name: "kernel", NsPerOp: 100}},
	})
	badSchema := writePerfFile(t, "bad.json", perfFile{
		Schema:     "some-other-schema/v9",
		Benchmarks: []perfResult{{Name: "kernel", NsPerOp: 100}},
	})
	var out bytes.Buffer
	if err := runPerfCheck(&out, badSchema, good, 0.25, false); err == nil {
		t.Error("want error for wrong schema in new file")
	}
	if err := runPerfCheck(&out, good, badSchema, 0.25, false); err == nil {
		t.Error("want error for wrong schema in baseline file")
	}
	if err := runPerfCheck(&out, good, filepath.Join(t.TempDir(), "absent.json"), 0.25, false); err == nil {
		t.Error("want error for missing baseline file")
	}
	if err := runPerfCheck(&out, good, good, -1, false); err == nil {
		t.Error("want error for negative tolerance")
	}
}
