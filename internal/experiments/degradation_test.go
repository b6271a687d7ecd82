package experiments

import (
	"reflect"
	"strconv"
	"testing"
)

// TestDegradationDeterministicAcrossWorkers requires the campaign to be
// byte-identical at any parallelism — the fault plane must not leak
// scheduling into results.
func TestDegradationDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker campaign sweep")
	}
	want := quickAt(t, Degradation, 1)
	for _, w := range []int{2, 7} {
		if got := quickAt(t, Degradation, w); !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d diverged from serial:\n%s\nvs\n%s", w, want, got)
		}
	}
}

// TestDegradationMonotone requires saturation throughput to decline (never
// rise) as the nested failed-channel sets grow, for every scheme column.
func TestDegradationMonotone(t *testing.T) {
	tbl := quickAt(t, Degradation, 0)
	if len(tbl.Rows) != len(degradationCounts) {
		t.Fatalf("expected %d rows, got %d", len(degradationCounts), len(tbl.Rows))
	}
	for si := range degradationSchemes {
		col := 1 + si*3 // throughput column for this scheme
		prev := -1.0
		for ri, row := range tbl.Rows {
			v, err := strconv.ParseFloat(row[col], 64)
			if err != nil {
				t.Fatalf("row %d col %d %q: %v", ri, col, row[col], err)
			}
			// Nested fault sets only remove capacity; allow a whisker of
			// measurement noise at equal counts but no real increase.
			if prev >= 0 && v > prev+0.25 {
				t.Fatalf("%s throughput rose from %.2f to %.2f at %s failed channels:\n%s",
					tbl.Header[col], prev, v, row[0], tbl)
			}
			prev = v
		}
		first, _ := strconv.ParseFloat(tbl.Rows[0][col], 64)
		last, _ := strconv.ParseFloat(tbl.Rows[len(tbl.Rows)-1][col], 64)
		if last >= first {
			t.Fatalf("%s: no overall degradation (%.2f -> %.2f):\n%s",
				tbl.Header[col], first, last, tbl)
		}
	}
}
