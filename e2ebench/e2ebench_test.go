package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestScheduleAndSpecsAreSeeded(t *testing.T) {
	for _, w := range []serveWorkload{serveHot, serveCold} {
		a := buildSchedule(7, w.name, 500, 10*time.Second, w.keyspace, clusterNodes)
		b := buildSchedule(7, w.name, 500, 10*time.Second, w.keyspace, clusterNodes)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed gave different schedules", w.name)
		}
		if c := buildSchedule(8, w.name, 500, 10*time.Second, w.keyspace, clusterNodes); reflect.DeepEqual(a, c) {
			t.Fatalf("%s: seeds 7 and 8 gave the same schedule", w.name)
		}
		if last := a[len(a)-1].at; last != 10*time.Second {
			t.Fatalf("%s: last arrival at %v, want exactly the span", w.name, last)
		}
		for i := 1; i < len(a); i++ {
			if a[i].at < a[i-1].at || a[i].target != i%clusterNodes {
				t.Fatalf("%s: arrival %d out of order or off round-robin: %+v", w.name, i, a[i])
			}
		}
		for k := 0; k < 20; k++ {
			x, _ := json.Marshal(w.spec(7, k))
			y, _ := json.Marshal(w.spec(7, k))
			z, _ := json.Marshal(w.spec(8, k))
			if string(x) != string(y) || string(x) == string(z) {
				t.Fatalf("%s: spec %d not a function of the seed alone", w.name, k)
			}
		}
	}
	if s := buildSchedule(1, serveCold.name, 100, time.Second, 0, clusterNodes); s[42].spec != 42 {
		t.Fatalf("cold schedule must submit spec i at arrival i, got %d", s[42].spec)
	}
}

func TestNearestRankQuantiles(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	s := sortedCopy(xs)
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {0.999, 100}, {0.01, 1}, {0, 1}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := beyond(1000, 0.99); got != 10 {
		t.Errorf("beyond(1000, 0.99) = %d, want 10", got)
	}
	if got := beyond(999, 0.99); got >= minTail {
		t.Errorf("999 samples leave %d beyond p99; the rule needs 1000", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}

	// Three windows of 1000: two calm ones with p99 = 990 and one with a
	// stall. The stall window's tail must not set the result.
	var inOrder []float64
	for w := 0; w < 3; w++ {
		for i := 1; i <= 1000; i++ {
			v := float64(i)
			if w == 1 && i > 900 {
				v = 1e6
			}
			inOrder = append(inOrder, v)
		}
	}
	got, k := windowedQuantile(inOrder, 0.99)
	if k != 3 || got != 990 {
		t.Errorf("windowedQuantile = %v over %d windows, want 990 over 3", got, k)
	}
	if _, k := windowedQuantile(inOrder[:1999], 0.99); k != 1 {
		t.Errorf("1999 samples make %d windows, want 1", k)
	}
}

// rec builds a request record with the given outcome and latency.
func rec(start time.Time, out outcome, lat time.Duration) reqRecord {
	r := reqRecord{due: start, sent: start, out: out, httpReqs: 3}
	if out == outDone {
		r.got = start.Add(lat)
	}
	return r
}

func TestMissesAndFailuresCount(t *testing.T) {
	start := time.Now()
	recs := []reqRecord{
		rec(start, outDone, 5*time.Millisecond),
		rec(start, outDone, 50*time.Millisecond), // done, but past the limit
		rec(start, outAbandoned, 0),              // 429s until the deadline
		rec(start, outLost, 0),
		rec(start, outFailed, 0),
	}
	s := summarize(recs, start, 25*time.Millisecond)
	if s.attempted != 5 || s.done != 2 || s.failedOps != 3 {
		t.Fatalf("attempted/done/failed = %d/%d/%d, want 5/2/3", s.attempted, s.done, s.failedOps)
	}
	if s.abandoned != 1 || s.lost != 1 || s.failed != 1 {
		t.Fatalf("abandoned/lost/failed = %d/%d/%d, want 1/1/1", s.abandoned, s.lost, s.failed)
	}
	if s.sloAttain != 0.2 {
		t.Fatalf("slo_attain = %v, want 0.2: only one of five requests met the limit", s.sloAttain)
	}
	rep := &report{}
	rep.attempted, rep.failedOps = s.attempted, s.failedOps
	rep.checkN("identity", 1, "one mismatched result")
	if got := rep.failedFrac(); got != 0.8 {
		t.Fatalf("failed_frac = %v, want (3 failed + 1 failed check) / 5", got)
	}
}

func TestLateGeneratorInvalidatesRun(t *testing.T) {
	start := time.Now()
	var recs []reqRecord
	for i := 0; i < 2000; i++ {
		r := rec(start, outDone, time.Millisecond)
		if i%50 == 0 { // 2% of requests fired 80 ms late
			r.sent = r.due.Add(80 * time.Millisecond)
		}
		recs = append(recs, r)
	}
	s := summarize(recs, start, time.Second)
	if bad := s.validity(50 * time.Millisecond); len(bad) != 1 {
		t.Fatalf("p99 lateness %v ms within a 50 ms bound: validity %q, want one reason", s.lateP99MS, bad)
	}
	if bad := s.validity(100 * time.Millisecond); len(bad) != 0 {
		t.Fatalf("run within its lateness bound marked invalid: %q", bad)
	}
	if bad := summarize(recs[:500], start, time.Second).validity(time.Second); len(bad) != 1 {
		t.Fatalf("500 samples leave fewer than %d beyond p99 but the run was valid", minTail)
	}
}

func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var doc struct {
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.EndToEnd) != len(e2eMetrics) || len(doc.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d/%d metrics, the program prints %d/%d",
			len(doc.EndToEnd), len(doc.PerLayer), len(e2eMetrics), len(layerMetrics))
	}
	var setupBound, maxBound float64
	for i, m := range doc.EndToEnd {
		if d := e2eMetrics[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	for i, m := range doc.PerLayer {
		if d := layerMetrics[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if want := []string{"sim_campaign", serveHot.name, serveCold.name}; !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
}

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"github.com/reprolab/hirise/internal/sim.(*Batch).Run", "main.main"}, "sim"},
		{[]string{"github.com/reprolab/hirise/internal/core.(*Switch).Arbitrate"}, "core"},
		{[]string{"net/http.(*conn).serve"}, "net_http"},
		{[]string{"encoding/json.(*decodeState).object"}, "encoding_json"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.memmove", "github.com/reprolab/hirise/internal/store.(*Store).Get"}, "other"},
		{[]string{"github.com/reprolab/hirise/internal/obs.(*Registry).Counter"}, "other"},
		{nil, "other"},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
}

var sink float64

func TestCPUSharesDecodesARealProfile(t *testing.T) {
	prof, err := startProfile()
	if err != nil {
		t.Skip("profiler busy:", err)
	}
	end := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(end) {
		for i := 0; i < 1e5; i++ {
			sink += math.Sqrt(float64(i))
		}
	}
	shares, err := cpuShares(prof.stop())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, m := range append(append([]string(nil), cpuModules...), "other") {
		v, ok := shares[m]
		if !ok {
			t.Fatalf("no share for %s", m)
		}
		sum += v
	}
	if sum != 0 && math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v, want 1", sum)
	}
}

// TestDirectComputeMatchesService submits one spec of each serving
// workload to a live cluster and checks the result against the direct
// compute and the derived key — the two references the workloads'
// output checks rest on.
func TestDirectComputeMatchesService(t *testing.T) {
	tb, err := startTestbed(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer tb.close()
	for _, w := range []serveWorkload{serveHot, serveCold} {
		req := w.spec(3, 0)
		body, _ := json.Marshal(req)
		key, err := keyOf(tb.nodes[0].st, req)
		if err != nil {
			t.Fatal(err)
		}
		r, err := tb.submitAndWait(context.Background(), tb.homeOf(key), body)
		if err != nil {
			t.Fatal(err)
		}
		want, err := directCompute(req)
		if err != nil {
			t.Fatal(err)
		}
		if r.sum != sha256.Sum256(want) {
			t.Errorf("%s: served result differs from direct compute", w.name)
		}
		if r.key != key.String() || r.source != "computed" {
			t.Errorf("%s: key %s source %q, want %s computed on its home node", w.name, r.key, r.source, key)
		}
	}
}

func TestReconcileCoverage(t *testing.T) {
	t0 := time.Now()
	at := func(ms float64) time.Time { return t0.Add(time.Duration(ms * float64(time.Millisecond))) }
	// The job finishes while the 202 is in flight: admit [1,3] overlaps
	// queue, run and the poll gap over [2,3]; the stages still cover [0,6].
	ok := reqRecord{out: outDone, due: at(0), sent: at(1), admitted: at(3), created: at(2), started: at(2.5),
		finished: at(2.8), seen: at(5), got: at(6)}
	// The server's clock runs 20 ms ahead: its spans land outside the
	// client's window and [3,5] is covered by no stage.
	skewed := ok
	skewed.created, skewed.started, skewed.finished = at(22), at(22.5), at(22.8)
	lat, sum, cov := reconcile([]reqRecord{ok})
	if lat != 6 || cov != 6 || math.Abs(sum-7) > 1e-9 {
		t.Errorf("consistent request: latency %v covered %v sum %v, want 6, 6, 7", lat, cov, sum)
	}
	if _, _, cov := reconcile([]reqRecord{skewed}); math.Abs(cov-4.8) > 1e-9 {
		t.Errorf("skewed request covered %v ms, want 4.8 (a 2 ms gap, 0.8 ms outside)", cov)
	}
}
