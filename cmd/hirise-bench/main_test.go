package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/reprolab/hirise"
	"github.com/reprolab/hirise/internal/store"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestMain runs the command's main instead of the tests when
// HIRISE_BENCH_MAIN is set, so a test can drive the real flag handling
// and exit status by re-executing the test binary.
func TestMain(m *testing.M) {
	if os.Getenv("HIRISE_BENCH_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestNegativeWindowFlags: a negative -warmup or -measure is rejected
// before anything runs, with one stderr line naming the flag and value
// and exit status 2 (the simulator would panic on it mid-run).
func TestNegativeWindowFlags(t *testing.T) {
	for _, flagName := range []string{"-warmup", "-measure"} {
		cmd := exec.Command(os.Args[0], "-run", "fig10", "-quick", flagName, "-5")
		cmd.Env = append(os.Environ(), "HIRISE_BENCH_MAIN=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		code := -1
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		}
		errw := stderr.String()
		if code != 2 || stdout.Len() != 0 || strings.Count(errw, "\n") != 1 || !strings.Contains(errw, flagName+" -5") {
			t.Errorf("%s -5: exit %d (%v), stdout %q, stderr %q; want exit 2 and one stderr line naming it",
				flagName, code, err, stdout.String(), errw)
		}
	}
}

func TestResolveIDs(t *testing.T) {
	valid := []string{"table1", "table4", "fig10"}
	cases := []struct {
		spec string
		want []string
		ok   bool
	}{
		{"all", valid, true},
		{" all ", valid, true},
		{"table4", []string{"table4"}, true},
		{"fig10,table1", []string{"fig10", "table1"}, true},
		{"table4,table4,table4", []string{"table4"}, true},
		{" table4 , ,fig10,", []string{"table4", "fig10"}, true},
		{"nope", nil, false},
		{"table4,nope", nil, false},
		{"", nil, false},
		{",,", nil, false},
	}
	for _, c := range cases {
		got, err := resolveIDs(c.spec, valid)
		if c.ok != (err == nil) {
			t.Errorf("resolveIDs(%q): err = %v, want ok=%v", c.spec, err, c.ok)
			continue
		}
		if c.ok && !reflect.DeepEqual(got, c.want) {
			t.Errorf("resolveIDs(%q) = %v, want %v", c.spec, got, c.want)
		}
	}
}

func TestResolveIDsValidatesBeforeRunning(t *testing.T) {
	// The whole point of up-front validation: a spec mixing good and bad
	// ids must fail as a unit, not start the good ones.
	if _, err := resolveIDs("table4,bogus", []string{"table4"}); err == nil {
		t.Fatal("want error for spec with one unknown id")
	} else if !strings.Contains(err.Error(), "bogus") {
		t.Errorf("error %q does not name the unknown id", err)
	}
}

func fastOpts(workers int) hirise.ExperimentOpts {
	o := hirise.QuickExperimentOpts()
	o.Warmup, o.Measure = 500, 2000
	o.Workers = workers
	return o
}

// TestJSONGoldenFile pins the -json side output's exact bytes for the
// purely analytic experiments (no simulation, no randomness), so the
// machine-readable schema can't drift silently under consumers. Update
// with `go test ./cmd/hirise-bench -run JSONGolden -update`.
func TestJSONGoldenFile(t *testing.T) {
	ids := []string{"fig9a", "fig12"}
	var out, timings, js bytes.Buffer
	if err := runExperiments(context.Background(), nil, &out, &timings, &js, ids, fastOpts(2), "text", false, 0); err != nil {
		t.Fatal(err)
	}
	got := js.Bytes()
	path := filepath.Join("testdata", "json.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./cmd/hirise-bench -run JSONGolden -update`): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("-json output drifted from golden file.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestStoreReplayIsByteIdentical checks the -store contract: a second
// identical run replays from the cache, and both stdout and the -json
// side output are byte-identical to an uncached run.
func TestStoreReplayIsByteIdentical(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"fig9a", "fig12"}
	render := func(s *store.Store) (stdout, js []byte, timings string) {
		t.Helper()
		var out, tl, j bytes.Buffer
		if err := runExperiments(context.Background(), s, &out, &tl, &j, ids, fastOpts(2), "text", false, 0); err != nil {
			t.Fatal(err)
		}
		return out.Bytes(), j.Bytes(), tl.String()
	}
	uncachedOut, uncachedJS, _ := render(nil)
	firstOut, firstJS, firstTL := render(st)
	if strings.Contains(firstTL, "cached") {
		t.Fatalf("first store run claims cache hits:\n%s", firstTL)
	}
	secondOut, secondJS, secondTL := render(st)
	if got := strings.Count(secondTL, "cached"); got != len(ids) {
		t.Fatalf("second run: %d cached markers for %d ids:\n%s", got, len(ids), secondTL)
	}
	if !bytes.Equal(firstOut, secondOut) || !bytes.Equal(uncachedOut, secondOut) {
		t.Error("stdout differs between uncached, computed, and replayed runs")
	}
	if !bytes.Equal(firstJS, secondJS) || !bytes.Equal(uncachedJS, secondJS) {
		t.Error("-json output differs between uncached, computed, and replayed runs")
	}
}

// TestRunExperimentsWorkerCountInvariance checks the CLI's end-to-end
// guarantee: the bytes written to stdout for a multi-experiment run are
// identical at every -parallel value, in every output format.
func TestRunExperimentsWorkerCountInvariance(t *testing.T) {
	ids := []string{"table1", "fig9a", "corner", "cache-mpki"}
	render := func(workers int, format string) []byte {
		t.Helper()
		var out, timings bytes.Buffer
		if err := runExperiments(context.Background(), nil, &out, &timings, nil, ids, fastOpts(workers), format, format == "text", 0); err != nil {
			t.Fatalf("%s workers=%d: %v", format, workers, err)
		}
		if got := strings.Count(timings.String(), "took"); got != len(ids) {
			t.Fatalf("%s workers=%d: %d timing lines for %d ids", format, workers, got, len(ids))
		}
		return out.Bytes()
	}
	for _, format := range []string{"text", "csv", "json"} {
		serial := render(1, format)
		if len(serial) == 0 {
			t.Fatalf("%s: empty serial output", format)
		}
		for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
			if got := render(w, format); !bytes.Equal(serial, got) {
				t.Errorf("%s: workers=%d stdout differs from serial", format, w)
			}
		}
	}
}
