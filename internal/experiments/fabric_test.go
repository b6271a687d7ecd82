package experiments

import (
	"reflect"
	"strconv"
	"testing"
)

// TestFabricCampaignRuns smoke-runs the whole campaign at quick
// fidelity — with Check on in every row, a passing run certifies credit
// conservation, VC-band occupancy, flit conservation, and deadlock
// freedom across all topology/routing/traffic combinations.
func TestFabricCampaignRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full fabric campaign")
	}
	tbl := quickAt(t, Fabric, 0)
	if len(tbl.Rows) != len(fabricRows()) {
		t.Fatalf("expected %d rows, got %d:\n%s", len(fabricRows()), len(tbl.Rows), tbl)
	}
	for ri, row := range tbl.Rows {
		sat, err := strconv.ParseFloat(row[len(row)-1], 64)
		if err != nil {
			t.Fatalf("row %d sat tput %q: %v", ri, row[len(row)-1], err)
		}
		if sat <= 0 {
			t.Fatalf("row %d (%s) delivered nothing at saturation:\n%s", ri, row[0], tbl)
		}
	}
}

// TestFabricDeterministicAcrossWorkers requires the campaign to be
// byte-identical at any parallelism.
func TestFabricDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker campaign sweep")
	}
	want := quickAt(t, Fabric, 1)
	for _, w := range []int{3, 8} {
		if got := quickAt(t, Fabric, w); !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d diverged from serial:\n%s\nvs\n%s", w, want, got)
		}
	}
}

// TestFabricDegradationMonotone requires throughput to decline (never
// rise beyond measurement noise) down the nested link-only fail-set
// rows, every router-fault row to sit below the healthy fabric, dead
// flows to stay zero on link-only rows, and to appear once routers
// fail. Monotonicity across the link-to-router boundary is NOT asserted:
// fail-stopping a router retires its severed flows instantly, which
// unloads the network and can raise the survivors' delivered rate.
func TestFabricDegradationMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("degradation campaign sweep")
	}
	tbl := quickAt(t, FabricDegradation, 0)
	if len(tbl.Rows) != len(fabricDegradationSteps) {
		t.Fatalf("expected %d rows, got %d", len(fabricDegradationSteps), len(tbl.Rows))
	}
	for ti := range fabricDegradationTopos() {
		tputCol, deadCol := 1+ti*3, 3+ti*3
		healthy, prev := -1.0, -1.0
		for ri, row := range tbl.Rows {
			v, err := strconv.ParseFloat(row[tputCol], 64)
			if err != nil {
				t.Fatalf("row %d col %d %q: %v", ri, tputCol, row[tputCol], err)
			}
			if healthy < 0 {
				healthy = v
			}
			dead, _ := strconv.ParseInt(row[deadCol], 10, 64)
			if fabricDegradationSteps[ri].routers == 0 {
				// Nested link fail-sets only remove capacity; allow a
				// whisker of noise but no real increase.
				if prev >= 0 && v > prev+prev/25 {
					t.Fatalf("%s rose from %.2f to %.2f at %s faults:\n%s",
						tbl.Header[tputCol], prev, v, row[0], tbl)
				}
				prev = v
				if dead != 0 {
					t.Fatalf("link-only row %s retired %d dead flows:\n%s", row[0], dead, tbl)
				}
			} else {
				if v >= healthy {
					t.Fatalf("%s with failed routers (%.2f) not below healthy (%.2f):\n%s",
						tbl.Header[tputCol], v, healthy, tbl)
				}
				if dead == 0 {
					t.Fatalf("router-fault row %s retired no dead flows:\n%s", row[0], tbl)
				}
			}
		}
	}
}

// TestFabricDegradationDeterministicAcrossWorkers pins worker
// invariance for the fault campaign.
func TestFabricDegradationDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker campaign sweep")
	}
	want := quickAt(t, FabricDegradation, 1)
	if got := quickAt(t, FabricDegradation, 4); !reflect.DeepEqual(want, got) {
		t.Fatalf("workers=4 diverged from serial:\n%s\nvs\n%s", want, got)
	}
}
