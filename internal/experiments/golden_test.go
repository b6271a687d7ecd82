package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// physExperiments are the purely analytic artifacts: no simulation, no
// randomness, so their rendered output is bit-stable and guards the
// calibrated cost model against accidental drift.
var physExperiments = []string{"fig9a", "fig9b", "fig9c", "fig12", "breakdown", "discussion"}

func TestGoldenPhysExperiments(t *testing.T) {
	for _, id := range physExperiments {
		t.Run(id, func(t *testing.T) {
			r, err := Get(id)
			if err != nil {
				t.Fatal(err)
			}
			got := mustRun(t, r, QuickOpts()).String()
			path := filepath.Join("testdata", id+".golden")
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
				t.Fatalf("missing golden file (run `go test ./internal/experiments -run Golden -update`): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s drifted from golden output.\n--- got ---\n%s--- want ---\n%s", id, got, want)
			}
		})
	}
}
