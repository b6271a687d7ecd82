package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/reprolab/hirise/internal/serve"
)

// sweepSeed is quickSweep with its own seed, so each seed is a distinct
// store key.
func sweepSeed(seed uint64) serve.Request {
	r := quickSweep()
	r.Seed = seed
	return r
}

// listJobs returns the ids GET /jobs lists, in its order.
func listJobs(t *testing.T, ts *httptest.Server) []string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sts []serve.Status
	if err := json.NewDecoder(resp.Body).Decode(&sts); err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(sts))
	for i, st := range sts {
		ids[i] = st.ID
	}
	return ids
}

func runToDone(t *testing.T, ts *httptest.Server, req serve.Request) serve.Status {
	t.Helper()
	st := submit(t, ts, req)
	return waitState(t, ts, st.ID, "done", func(s serve.Status) bool { return s.State == serve.Done })
}

// TestListJobs: GET /jobs lists every retained job in submission order,
// and once finished jobs are evicted it omits exactly those. The
// running job outlives every eviction.
func TestListJobs(t *testing.T) {
	s, ts := newTestServer(t, serve.Config{Workers: 2, SimWorkers: 1})
	serve.SetMaxFinishedJobs(s, 2)
	if ids := listJobs(t, ts); len(ids) != 0 {
		t.Fatalf("fresh server lists %v", ids)
	}
	blocker := submit(t, ts, longSweep())
	waitState(t, ts, blocker.ID, "running", func(s serve.Status) bool { return s.State == serve.Running })
	var done []string
	for seed := uint64(1); seed <= 2; seed++ {
		done = append(done, runToDone(t, ts, sweepSeed(seed)).ID)
	}
	want := append([]string{blocker.ID}, done...)
	if got := listJobs(t, ts); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("GET /jobs = %v, want %v", got, want)
	}
	for seed := uint64(3); seed <= 5; seed++ {
		done = append(done, runToDone(t, ts, sweepSeed(seed)).ID)
	}
	want = []string{blocker.ID, done[3], done[4]}
	if got := listJobs(t, ts); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("GET /jobs after evictions = %v, want %v", got, want)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+blocker.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, ts, blocker.ID, "cancelled", func(s serve.Status) bool { return s.State.Terminal() })
	// The cancelled blocker is now the newest finished job.
	want = []string{blocker.ID, done[4]}
	if got := listJobs(t, ts); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("GET /jobs after the blocker finished = %v, want %v", got, want)
	}
}

// TestFinishedJobEviction: keeping N finished jobs, finishing job N+1
// evicts the oldest finished job. Every endpoint answers 404 for its id
// and says why, and resubmitting its request is a store hit.
func TestFinishedJobEviction(t *testing.T) {
	s, ts := newTestServer(t, serve.Config{Workers: 1, SimWorkers: 1})
	serve.SetMaxFinishedJobs(s, 2)
	first := runToDone(t, ts, sweepSeed(1))
	runToDone(t, ts, sweepSeed(2))
	if st := getStatus(t, ts, first.ID); st.State != serve.Done {
		t.Fatalf("job %s evicted before N+1 jobs finished: %+v", first.ID, st)
	}
	runToDone(t, ts, sweepSeed(3))

	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/jobs/" + first.ID},
		{http.MethodGet, "/jobs/" + first.ID + "/result"},
		{http.MethodGet, "/jobs/" + first.ID + "/events"},
		{http.MethodGet, "/jobs/" + first.ID + "/telemetry"},
		{http.MethodDelete, "/jobs/" + first.ID},
	} {
		req, _ := http.NewRequest(probe.method, ts.URL+probe.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || !bytes.Contains(body, []byte("finished jobs are evicted")) {
			t.Errorf("%s %s: HTTP %d %s, want 404 saying finished jobs are evicted",
				probe.method, probe.path, resp.StatusCode, body)
		}
	}

	again := runToDone(t, ts, sweepSeed(1))
	if !again.CacheHit {
		t.Fatalf("resubmitted evicted job: %+v, want a cache hit", again)
	}
}

// TestFinishedJobHeap: the heap a finished job keeps is its record, not
// buffers sized for work it never did. 2000 cache-hit jobs, each ending
// long before its first telemetry window closes, must each retain under
// 5 KiB after a GC.
func TestFinishedJobHeap(t *testing.T) {
	const jobs = 2000
	s, ts := newTestServer(t, serve.Config{Workers: 1, SimWorkers: 1, QueueDepth: jobs})
	runToDone(t, ts, quickSweep()) // fills the store: every job below is a hit
	h := s.Handler()
	body, err := json.Marshal(quickSweep())
	if err != nil {
		t.Fatal(err)
	}
	call := func(method, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var last serve.Status
	for i := 0; i < jobs; i++ {
		rec := call(http.MethodPost, "/jobs", body)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d %s", i, rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &last); err != nil {
			t.Fatal(err)
		}
	}
	// One worker runs jobs in submission order: the last done means all done.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st serve.Status
		if err := json.Unmarshal(call(http.MethodGet, "/jobs/"+last.ID, nil).Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.State == serve.Done {
			if !st.CacheHit {
				t.Fatalf("job %s was not a cache hit: %+v", st.ID, st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished: %+v", st.ID, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / jobs
	t.Logf("heap retained per finished job: %.0f B", per)
	if per >= 5<<10 {
		t.Fatalf("each finished job retains %.0f B of heap, want under 5 KiB", per)
	}
}
