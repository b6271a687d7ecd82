package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/reprolab/hirise/internal/store"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// tiny keeps every golden run to a few hundred cycles of a radix-16
// switch.
var tiny = []string{"-radix", "16", "-warmup", "50", "-measure", "200", "-target", "5"}

// runCLI runs the command in process and returns its exit status, stdout
// and stderr.
func runCLI(args ...string) (int, string, string) {
	var out, errw bytes.Buffer
	code := run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// checkGolden compares got with testdata/name.golden, rewriting it under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./cmd/hirise-sim -run Golden -update`): %v", err)
	}
	if got != string(want) {
		t.Errorf("stdout drifted from %s.\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestStdoutGolden pins the report of every single-switch design under
// every traffic pattern, the VOQ mode under three patterns, one mesh
// fabric report, and one sweep table of each mode. Later flags override
// tiny's.
func TestStdoutGolden(t *testing.T) {
	type tc struct {
		name string
		args []string
	}
	var cases []tc
	for _, design := range []string{"2d", "folded", "hirise"} {
		for _, traf := range []string{"uniform", "hotspot", "adversarial", "bursty", "permutation",
			"bitrev", "interlayer", "layerlocal", "binadv"} {
			c := tc{design + "-" + traf, []string{"-design", design, "-traffic", traf, "-load", "0.3"}}
			if traf == "adversarial" { // the paper's pattern spans ports 3..63
				c.args = append(c.args, "-radix", "64")
			}
			cases = append(cases, c)
		}
	}
	for _, traf := range []string{"uniform", "hotspot", "bursty"} {
		cases = append(cases, tc{"voq-" + traf, []string{"-design", "voq", "-traffic", traf, "-load", "0.3"}})
	}
	cases = append(cases,
		tc{"hirise-sweep", []string{"-design", "hirise", "-sweep", "0.05:0.3:0.05"}},
		tc{"voq-sweep", []string{"-design", "voq", "-sched", "wavefront", "-sweep", "0.1:0.9:0.4"}},
		tc{"fabric-single", []string{"-design", "fabric", "-topo", "mesh", "-nodes", "9", "-conc", "2", "-check", "-load", "0.2"}},
		tc{"fabric-sweep", []string{"-design", "fabric", "-topo", "mesh", "-mesh-w", "3", "-mesh-h", "2", "-conc", "2",
			"-check", "-sweep", "0.1:0.5:0.2"}},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, out, errw := runCLI(append(append([]string(nil), tiny...), c.args...)...)
			if code != 0 {
				t.Fatalf("exit %d, stderr %q", code, errw)
			}
			checkGolden(t, c.name, out)
		})
	}
}

// TestSweepParallelInvariance: every sweep mode hands each point its
// own observer, so stdout and the merged -metrics and -trace-jsonl files
// are byte-identical at -parallel 1 and 4. Run it under -race to see
// that no two points share a sink.
func TestSweepParallelInvariance(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"hirise", []string{"-design", "hirise", "-traffic", "bursty", "-sweep", "0.1:0.4:0.1"}},
		{"voq", []string{"-design", "voq", "-sweep", "0.1:0.9:0.4"}},
		{"fabric", []string{"-design", "fabric", "-topo", "mesh", "-mesh-w", "3", "-mesh-h", "2", "-conc", "2",
			"-lanes", "2", "-check", "-sweep", "0.1:0.5:0.2"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var got [2]string
			for k, parallel := range []string{"1", "4"} {
				dir := t.TempDir()
				metrics, trace := filepath.Join(dir, "metrics.json"), filepath.Join(dir, "trace.jsonl")
				args := append(append([]string(nil), tiny...), c.args...)
				code, out, errw := runCLI(append(args, "-parallel", parallel, "-metrics", metrics, "-trace-jsonl", trace)...)
				if code != 0 {
					t.Fatalf("-parallel %s: exit %d, stderr %q", parallel, code, errw)
				}
				for _, f := range []string{metrics, trace} {
					b, err := os.ReadFile(f)
					if err != nil || len(b) == 0 {
						t.Fatalf("-parallel %s: %s empty or unreadable: %v", parallel, filepath.Base(f), err)
					}
					out += string(b)
				}
				got[k] = out
			}
			if got[0] != got[1] {
				t.Error("stdout or side files differ between -parallel 1 and 4")
			}
		})
	}
}

// TestStoreKeyGolden pins the "sim" and "voq-sim" store keys, and with
// them every field of the payloads they hash, at a fixed model version.
// A replay from the store must print the same bytes as the first run.
func TestStoreKeyGolden(t *testing.T) {
	defer func(o store.Options) { storeOpts = o }(storeOpts)
	storeOpts = store.Options{ModelVersion: "model-5"}
	for _, c := range []struct {
		name string
		args []string
		key  string
	}{
		{"sim", []string{"-design", "hirise", "-scheme", "WLRG", "-alloc", "priority", "-traffic", "bursty",
			"-burst", "3", "-load", "0.2", "-seed", "7", "-perinput"},
			"722ed3602999cb34bdb43388996c2767d7b7e20e8b0ae2496e247df0eafaefec"},
		{"sim-sweep", []string{"-design", "2d", "-traffic", "hotspot", "-sweep", "0.05:0.3:0.05", "-flits", "3", "-vcs", "2"},
			"4c2e5654c8b27785aed185c75f0c1d35445f4747fa895f137e7b3e5e8b9eeb22"},
		{"voq-sim", []string{"-design", "voq", "-sched", "islip", "-iters", "3", "-traffic", "hotspot",
			"-sweep", "0.1:0.9:0.4", "-speedup", "2"},
			"d876536750adad86d2902126682d6670d0b4439c3a691fcd9c10de1adfdff569"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			args := append(append([]string{"-store", dir}, c.args...), tiny...)
			code, first, errw := runCLI(args...)
			if code != 0 {
				t.Fatalf("exit %d, stderr %q", code, errw)
			}
			files, _ := filepath.Glob(filepath.Join(dir, "*", "*.res"))
			if len(files) != 1 {
				t.Fatalf("store holds %v, want one entry", files)
			}
			if got := strings.TrimSuffix(filepath.Base(files[0]), ".res"); got != c.key {
				t.Errorf("key %s, want %s", got, c.key)
			}
			code, replay, errw := runCLI(args...)
			if code != 0 || replay != first || !strings.Contains(errw, "(served from store)") {
				t.Errorf("replay: exit %d, stderr %q, stdout identical %v", code, errw, replay == first)
			}
		})
	}
}

// TestFlagValidation: shape flags the simulators cannot run exit 1 with
// one stderr line and never a panic.
func TestFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-design", "voq", "-radix", "0"},
		{"-design", "voq", "-traffic", "hotspot", "-target", "99", "-radix", "8"},
		{"-design", "2d", "-traffic", "hotspot", "-target", "99", "-radix", "8"},
		{"-design", "folded", "-layers", "3"},
		{"-design", "folded", "-layers", "0"},
		{"-design", "2d", "-traffic", "bitrev", "-radix", "48"},
		{"-design", "voq", "-traffic", "bitrev", "-radix", "12"},
		{"-design", "2d", "-traffic", "adversarial", "-radix", "16"},
		{"-design", "2d", "-traffic", "layerlocal", "-layers", "0"},
		{"-design", "voq", "-traffic", "interlayer", "-layers", "0"},
		{"-design", "2d", "-traffic", "binadv", "-channels", "0"},
		{"-radix", "1000000"},
		{"-design", "voq", "-radix", "2048"},
		{"-sweep", "0:Inf:0.1"},
		{"-sweep", "0:1:1e-12"},
		{"-sweep", "1e17:1e17:1"},
		{"-design", "fabric", "-sweep", "0:1:0"},
		{"-load", "-1"},
		{"-load", "NaN"},
		{"-flits", "-1"},
		{"-design", "2d", "-radix", "8", "-flits", "4294967297"},
		{"-design", "tesseract"},
		{"-traffic", "shift"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			code, out, errw := runCLI(append(args, "-warmup", "100", "-measure", "100")...)
			if code != 1 || out != "" || strings.Count(errw, "\n") != 1 || strings.Contains(errw, "panic:") {
				t.Fatalf("exit %d, stdout %q, stderr %q; want exit 1 and one stderr line", code, out, errw)
			}
		})
	}
}
