package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/reprolab/hirise/internal/leakcheck"
	"github.com/reprolab/hirise/internal/serve"
	"github.com/reprolab/hirise/internal/store"
)

// newTestServer stands up a job server over a fresh store and registers
// cleanups so every test drains its workers (and, via leakcheck,
// proves they exited).
func newTestServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	leakcheck.Check(t)
	return startTestServer(t, cfg)
}

// startTestServer is newTestServer without the leak check, for tests
// that stand up several servers: leakcheck must snapshot once BEFORE
// the first server exists, or a goroutine created between two checks
// can be misclassified (its stack signature changes once it is
// scheduled).
func startTestServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	if cfg.Store == nil {
		st, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = st
	}
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	// LIFO: close the HTTP server, drain workers, then leakcheck runs.
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
		ts.Close()
	})
	return s, ts
}

// quickSweep is a loadsweep that finishes in well under a second.
func quickSweep() serve.Request {
	return serve.Request{
		Kind: "loadsweep", Design: "2d", Radix: 8,
		Loads: []float64{0.1, 0.2}, Warmup: 200, Measure: 500,
	}
}

// longSweep is a loadsweep that runs for minutes unless cancelled.
func longSweep() serve.Request {
	return serve.Request{
		Kind: "loadsweep", Design: "2d", Radix: 8,
		Loads: []float64{0.1}, Warmup: 100, Measure: 2_000_000_000,
	}
}

func submit(t *testing.T, ts *httptest.Server, req serve.Request) serve.Status {
	t.Helper()
	st, code := submitCode(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: got HTTP %d, want %d", code, http.StatusAccepted)
	}
	return st
}

func submitCode(t *testing.T, ts *httptest.Server, req serve.Request) (serve.Status, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.Status
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

func getStatus(t *testing.T, ts *httptest.Server, id string) serve.Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls until the job satisfies pred or the deadline passes.
func waitState(t *testing.T, ts *httptest.Server, id string, what string, pred func(serve.Status) bool) serve.Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if pred(st) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s (last: %+v)", id, what, getStatus(t, ts, id))
	return serve.Status{}
}

func getResult(t *testing.T, ts *httptest.Server, id string) ([]byte, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: HTTP %d: %s", resp.StatusCode, body)
	}
	return body, resp.Header.Get("Content-Type")
}

// TestIdenticalJobServedFromCache is the tentpole acceptance check:
// submitting the same job twice computes once, and the second run is a
// cache hit with a byte-identical body.
func TestIdenticalJobServedFromCache(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Workers: 2, SimWorkers: 2})

	first := submit(t, ts, quickSweep())
	done1 := waitState(t, ts, first.ID, "done", func(s serve.Status) bool { return s.State == serve.Done })
	if done1.CacheHit {
		t.Fatalf("first run reported cache_hit=true")
	}
	body1, ctype := getResult(t, ts, first.ID)
	if ctype != "application/json" {
		t.Fatalf("loadsweep content type = %q, want application/json", ctype)
	}

	second := submit(t, ts, quickSweep())
	if second.ID == first.ID {
		t.Fatalf("second submission reused job ID %s", first.ID)
	}
	if second.Key != first.Key {
		t.Fatalf("identical requests keyed differently: %s vs %s", first.Key, second.Key)
	}
	done2 := waitState(t, ts, second.ID, "done", func(s serve.Status) bool { return s.State == serve.Done })
	if !done2.CacheHit {
		t.Fatalf("second identical run was not a cache hit")
	}
	body2, _ := getResult(t, ts, second.ID)
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cached body differs from computed body:\n%s\nvs\n%s", body1, body2)
	}
}

// TestEquivalentRequestsShareKey: a lo/hi/step range and its expanded
// loads list normalize to the same content address.
func TestEquivalentRequestsShareKey(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})

	ranged := quickSweep()
	ranged.Loads = nil
	ranged.Lo, ranged.Hi, ranged.Step = 0.1, 0.2, 0.1
	a := submit(t, ts, ranged)
	b := submit(t, ts, quickSweep())
	if a.Key != b.Key {
		t.Fatalf("range form keyed %s, explicit form %s", a.Key, b.Key)
	}
}

// TestCancelRunningJob: DELETE on an in-flight job stops the simulation
// promptly and the job lands in the cancelled state. The leakcheck in
// newTestServer proves the worker goroutines are actually released.
func TestCancelRunningJob(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Workers: 1, SimWorkers: 1})

	st := submit(t, ts, longSweep())
	waitState(t, ts, st.ID, "running", func(s serve.Status) bool { return s.State == serve.Running })

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: HTTP %d", resp.StatusCode)
	}

	final := waitState(t, ts, st.ID, "cancelled", func(s serve.Status) bool { return s.State.Terminal() })
	if final.State != serve.Cancelled {
		t.Fatalf("cancelled job ended in state %s (err %q)", final.State, final.Error)
	}

	// The worker must now be free: a quick job still completes.
	quick := submit(t, ts, quickSweep())
	waitState(t, ts, quick.ID, "done", func(s serve.Status) bool { return s.State == serve.Done })
}

// TestCancelQueuedJob: cancelling a job that has not started settles it
// immediately and the worker skips it.
func TestCancelQueuedJob(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Workers: 1, SimWorkers: 1, QueueDepth: 4})

	blocker := submit(t, ts, longSweep())
	waitState(t, ts, blocker.ID, "running", func(s serve.Status) bool { return s.State == serve.Running })

	queued := submit(t, ts, quickSweep())
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	final := waitState(t, ts, queued.ID, "cancelled", func(s serve.Status) bool { return s.State.Terminal() })
	if final.State != serve.Cancelled {
		t.Fatalf("queued job ended in state %s", final.State)
	}

	// Unblock the worker for drain.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+blocker.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, ts, blocker.ID, "cancelled", func(s serve.Status) bool { return s.State.Terminal() })
}

// TestBackpressure: once the queue is full, submissions get 429 with a
// Retry-After hint instead of queueing unboundedly.
func TestBackpressure(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Workers: 1, SimWorkers: 1, QueueDepth: 1})

	running := submit(t, ts, longSweep())
	waitState(t, ts, running.ID, "running", func(s serve.Status) bool { return s.State == serve.Running })

	queued := submit(t, ts, quickSweep()) // fills the depth-1 queue

	body, _ := json.Marshal(quickSweep())
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 response missing Retry-After")
	}

	// Free the worker so drain is fast.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+running.ID, nil)
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	waitState(t, ts, queued.ID, "done", func(s serve.Status) bool { return s.State.Terminal() })
}

// TestBadRequests: malformed bodies, invalid enums and shapes are
// rejected with 400 before anything is queued, and the server keeps
// serving.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	for _, body := range []string{
		`{`,
		`{"kind":"nope"}`,
		`{"kind":"loadsweep","design":"tesseract","loads":[0.1]}`,
		`{"kind":"loadsweep"}`, // neither loads nor lo/hi/step
		`{"kind":"loadsweep","loads":[0.1],"lo":0.1,"hi":0.2,"step":0.1}`,
		`{"kind":"experiment","experiment":"no-such-experiment"}`,
		`{"kind":"experiment","experiment":"table1","format":"yaml"}`,
		`{"kind":"loadsweep","design":"2d","radix":8,"traffic":"hotspot","target":99,"loads":[0.1]}`,
		`{"kind":"loadsweep","design":"2d","radix":-8,"loads":[0.1]}`,
		// Shapes the switch or traffic constructors would panic on, or
		// sizes that would exhaust memory, in the compute goroutine.
		`{"kind":"loadsweep","design":"folded","radix":8,"layers":3,"loads":[0.1]}`,
		`{"kind":"loadsweep","design":"folded","radix":8,"layers":-2,"loads":[0.1]}`,
		`{"kind":"loadsweep","design":"2d","radix":48,"traffic":"bitrev","loads":[0.1]}`,
		`{"kind":"loadsweep","design":"2d","radix":8,"traffic":"adversarial","loads":[0.1]}`,
		`{"kind":"loadsweep","design":"2d","radix":8,"layers":-1,"traffic":"layerlocal","loads":[0.1]}`,
		`{"kind":"loadsweep","design":"2d","radix":8,"channels":-1,"traffic":"binadv","loads":[0.1]}`,
		`{"kind":"loadsweep","design":"2d","radix":1000000,"loads":[0.1]}`,
		`{"kind":"loadsweep","radix":1000000,"loads":[0.1]}`,
		`{"kind":"loadsweep","design":"2d","radix":8,"lo":0,"hi":1,"step":1e-12}`,
		`{"kind":"loadsweep","design":"2d","radix":8,"lo":1e17,"hi":1e17,"step":1}`,
		`{"kind":"loadsweep","design":"2d","radix":8,"lo":-0.1,"hi":0.1,"step":0.1}`,
		// Run knobs sim.Run would reject only after the job is queued.
		`{"kind":"loadsweep","design":"2d","radix":8,"loads":[-0.1]}`,
		`{"kind":"loadsweep","design":"2d","radix":8,"flits":-1,"loads":[0.1]}`,
		`{"kind":"loadsweep","design":"2d","radix":8,"flits":4294967297,"loads":[0.1]}`,
		`{"kind":"loadsweep","design":"2d","radix":8,"warmup":-1,"loads":[0.1]}`,
		`{"kind":"loadsweep","design":"2d","radix":8,"measure":-1,"loads":[0.1]}`,
		// Experiment windows the simulator would panic on in a worker.
		`{"kind":"experiment","experiment":"fig10","quick":true,"warmup":-5}`,
		`{"kind":"experiment","experiment":"fig10","quick":true,"measure":-5}`,
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: HTTP %d, want 400", body, resp.StatusCode)
		}
	}
	// The server is still serving.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after bad requests: HTTP %d", resp.StatusCode)
	}
	st := submit(t, ts, quickSweep())
	waitState(t, ts, st.ID, "done", func(s serve.Status) bool { return s.State == serve.Done })
}

// TestNewRejectsNegativeSizes: a negative queue depth or worker count is
// a configuration error (it used to panic in make and in the worker
// WaitGroup); zero keeps the documented default.
func TestNewRejectsNegativeSizes(t *testing.T) {
	for _, tc := range []struct {
		name          string
		queue, worker int
		ok            bool
	}{
		{"defaults", 0, 0, true},
		{"negative queue", -1, 1, false},
		{"negative workers", 1, -1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := store.Open("", store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			s, err := serve.New(serve.Config{Store: st, QueueDepth: tc.queue, Workers: tc.worker})
			if (err == nil) != tc.ok {
				t.Fatalf("err = %v, want ok=%v", err, tc.ok)
			}
			if s != nil {
				if err := s.Drain(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestEventStream: the NDJSON stream carries the job's lifecycle in
// order and terminates once the job is done.
func TestEventStream(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Workers: 1, SimWorkers: 1})

	st := submit(t, ts, quickSweep())
	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content type = %q", ct)
	}
	var kinds []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e serve.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if e.Event != "progress" {
			kinds = append(kinds, e.Event)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	want := []string{"queued", "started", "done"}
	if len(kinds) != len(want) {
		t.Fatalf("lifecycle events = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("lifecycle events = %v, want %v", kinds, want)
		}
	}
}

// TestDrainRejectsNewWork: after Drain starts, submissions get 503 and
// in-flight jobs still finish.
func TestDrainRejectsNewWork(t *testing.T) {
	s, ts := newTestServer(t, serve.Config{Workers: 1, SimWorkers: 1})

	st := submit(t, ts, quickSweep())
	waitState(t, ts, st.ID, "done", func(s serve.Status) bool { return s.State == serve.Done })

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	_, code := submitCode(t, ts, quickSweep())
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain: HTTP %d, want 503", code)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: HTTP %d, want 503", resp.StatusCode)
	}
}

// TestDrainTimeoutCancelsJobs: a drain whose context expires cancels
// the remaining jobs rather than waiting forever.
func TestDrainTimeoutCancelsJobs(t *testing.T) {
	s, ts := newTestServer(t, serve.Config{Workers: 1, SimWorkers: 1})

	st := submit(t, ts, longSweep())
	waitState(t, ts, st.ID, "running", func(s serve.Status) bool { return s.State == serve.Running })

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Fatalf("drain of a long job returned before its deadline with no error")
	}
	final := getStatus(t, ts, st.ID)
	if final.State != serve.Cancelled {
		t.Fatalf("job after drain timeout is %s, want cancelled", final.State)
	}
}

// TestMetricsAndHealth: the counters surface through /metrics in the
// Prometheus text exposition format, including the cross-job duration
// histogram with its _bucket/_sum/_count family.
func TestMetricsAndHealth(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Workers: 1, SimWorkers: 1})

	st := submit(t, ts, quickSweep())
	waitState(t, ts, st.ID, "done", func(s serve.Status) bool { return s.State == serve.Done })
	st2 := submit(t, ts, quickSweep())
	waitState(t, ts, st2.ID, "done", func(s serve.Status) bool { return s.State == serve.Done })

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("metrics content type = %q, want Prometheus text exposition", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE serve_jobs_submitted counter",
		"serve_jobs_submitted 2",
		"serve_jobs_completed 2",
		"store_misses", "store_hits_memory",
		"# TYPE serve_job_duration_seconds histogram",
		`serve_job_duration_seconds_bucket{le="+Inf"} 2`,
		"serve_job_duration_seconds_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" {
		t.Fatalf("healthz status = %v", health["status"])
	}
}

// TestJobTelemetry: a running job's progress time series is live on
// GET /jobs/{id}/telemetry, keeps its final state after the job ends,
// and the sampler goroutine shuts down cleanly (leakcheck).
func TestJobTelemetry(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{
		Workers: 1, SimWorkers: 1, TelemetryWindow: 2 * time.Millisecond,
	})

	st := submit(t, ts, longSweep())
	waitState(t, ts, st.ID, "running", func(s serve.Status) bool { return s.State == serve.Running })

	getTele := func() (serve.TelemetrySnapshot, int) {
		resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/telemetry")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var snap serve.TelemetrySnapshot
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
				t.Fatal(err)
			}
		} else {
			io.Copy(io.Discard, resp.Body)
		}
		return snap, resp.StatusCode
	}

	// Windows accumulate while the job runs.
	var snap serve.TelemetrySnapshot
	deadline := time.Now().Add(10 * time.Second)
	for {
		var code int
		snap, code = getTele()
		if code == http.StatusOK && snap.Windows >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("telemetry never accumulated windows (last: HTTP %d, %+v)", code, snap)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if snap.IntervalMS != 2 || snap.WindowTicks < 1 {
		t.Fatalf("snapshot shape wrong: %+v", snap)
	}
	for _, series := range []string{"serve.job.tasks.completed", "serve.job.progress"} {
		vals, ok := snap.Series[series]
		if !ok {
			t.Fatalf("snapshot missing series %q: %+v", series, snap)
		}
		if len(vals) != snap.Windows {
			t.Fatalf("series %q has %d values, want %d windows", series, len(vals), snap.Windows)
		}
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, ts, st.ID, "cancelled", func(s serve.Status) bool { return s.State.Terminal() })

	// Telemetry survives the job for post-mortem queries.
	final, code := getTele()
	if code != http.StatusOK || final.Windows < snap.Windows {
		t.Fatalf("post-mortem telemetry: HTTP %d, %+v", code, final)
	}
}

// TestJobTelemetryQueuedAndDisabled: a queued job answers 409 (it has
// not run), and a server with telemetry disabled answers 409 even for
// finished jobs.
func TestJobTelemetryQueuedAndDisabled(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Workers: 1, SimWorkers: 1, QueueDepth: 4})
	blocker := submit(t, ts, longSweep())
	waitState(t, ts, blocker.ID, "running", func(s serve.Status) bool { return s.State == serve.Running })
	queued := submit(t, ts, quickSweep())
	resp, err := http.Get(ts.URL + "/jobs/" + queued.ID + "/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("telemetry of queued job: HTTP %d, want 409", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+blocker.ID, nil)
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	waitState(t, ts, queued.ID, "done", func(s serve.Status) bool { return s.State.Terminal() })

	_, ts2 := newTestServer(t, serve.Config{Workers: 1, SimWorkers: 1, TelemetryWindow: -1})
	st := submit(t, ts2, quickSweep())
	waitState(t, ts2, st.ID, "done", func(s serve.Status) bool { return s.State == serve.Done })
	resp, err = http.Get(ts2.URL + "/jobs/" + st.ID + "/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("telemetry when disabled: HTTP %d, want 409", resp.StatusCode)
	}
}

// TestUnknownJob: status, result, events, and cancel all 404 on an
// unknown ID.
func TestUnknownJob(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/jobs/nope"},
		{http.MethodGet, "/jobs/nope/result"},
		{http.MethodGet, "/jobs/nope/events"},
		{http.MethodGet, "/jobs/nope/telemetry"},
		{http.MethodDelete, "/jobs/nope"},
	} {
		req, _ := http.NewRequest(probe.method, ts.URL+probe.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: HTTP %d, want 404", probe.method, probe.path, resp.StatusCode)
		}
	}
}

// TestResultBeforeDone: asking for the result of an unfinished job is a
// conflict, not an empty body.
func TestResultBeforeDone(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Workers: 1, SimWorkers: 1})
	st := submit(t, ts, longSweep())
	waitState(t, ts, st.ID, "running", func(s serve.Status) bool { return s.State == serve.Running })
	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result of running job: HTTP %d, want 409", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+st.ID, nil)
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	waitState(t, ts, st.ID, "cancelled", func(s serve.Status) bool { return s.State.Terminal() })
}

// TestExperimentJob: a registered paper experiment runs end to end
// through the service and renders in the requested format.
func TestExperimentJob(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment jobs simulate full sweeps")
	}
	_, ts := newTestServer(t, serve.Config{Workers: 1, SimWorkers: 0})

	req := serve.Request{Kind: "experiment", Experiment: "table1", Quick: true, Format: "csv"}
	st := submit(t, ts, req)
	done := waitState(t, ts, st.ID, "done", func(s serve.Status) bool { return s.State.Terminal() })
	if done.State != serve.Done {
		t.Fatalf("experiment job ended %s: %s", done.State, done.Error)
	}
	if done.Progress == 0 {
		t.Fatalf("experiment job reported no progress")
	}
	body, ctype := getResult(t, ts, st.ID)
	if ctype != "text/csv; charset=utf-8" {
		t.Fatalf("csv content type = %q", ctype)
	}
	if !strings.Contains(string(body), ",") {
		t.Fatalf("csv body looks wrong:\n%s", body)
	}
}

// TestJobTimeout: a job that outlives Config.JobTimeout settles in the
// distinct "timeout" terminal state (not "cancelled", not "failed"),
// its events stream says so, the worker is released for the next job,
// and client cancellation still reports "cancelled".
func TestJobTimeout(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{
		Workers: 1, SimWorkers: 1, JobTimeout: 400 * time.Millisecond,
	})

	st := submit(t, ts, longSweep())
	final := waitState(t, ts, st.ID, "timeout", func(s serve.Status) bool { return s.State.Terminal() })
	if final.State != serve.Timeout {
		t.Fatalf("overlong job ended %s (%s), want %s", final.State, final.Error, serve.Timeout)
	}
	if final.Error == "" {
		t.Fatal("timeout status carries no error message")
	}

	// The events stream records the distinct terminal event.
	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	var last serve.Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e serve.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		last = e
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if last.Event != "timeout" {
		t.Fatalf("final event = %q, want \"timeout\"", last.Event)
	}

	// The result endpoint refuses, naming the state.
	rresp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, rresp.Body)
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusConflict {
		t.Fatalf("result of timed-out job: HTTP %d, want 409", rresp.StatusCode)
	}

	// The worker survived the timeout: short jobs still complete.
	quick := submit(t, ts, quickSweep())
	qdone := waitState(t, ts, quick.ID, "done", func(s serve.Status) bool { return s.State.Terminal() })
	if qdone.State != serve.Done {
		t.Fatalf("job after a timeout ended %s: %s", qdone.State, qdone.Error)
	}

	// An explicit DELETE still reports "cancelled", even with a timeout
	// configured: the client's intent wins.
	running := submit(t, ts, longSweep())
	waitState(t, ts, running.ID, "running", func(s serve.Status) bool { return s.State == serve.Running })
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+running.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	cfinal := waitState(t, ts, running.ID, "cancelled", func(s serve.Status) bool { return s.State.Terminal() })
	if cfinal.State != serve.Cancelled {
		t.Fatalf("deleted job ended %s, want %s", cfinal.State, serve.Cancelled)
	}
}

// longQoS is an ablate-qos experiment job that runs for minutes unless
// cancelled. Its runner is a single simulation.
func longQoS() serve.Request {
	return serve.Request{
		Kind: "experiment", Experiment: "ablate-qos",
		Warmup: 10_000_000, Measure: 2_000_000_000,
	}
}

// TestCancelRunningExperiment: DELETE on a running ablate-qos job
// settles it as cancelled without taking the server down, and the
// server then completes a quick ablate-qos job, which counts its one
// simulation as progress.
func TestCancelRunningExperiment(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Workers: 1, SimWorkers: 1})

	st := submit(t, ts, longQoS())
	waitState(t, ts, st.ID, "running", func(s serve.Status) bool { return s.State == serve.Running })
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	final := waitState(t, ts, st.ID, "cancelled", func(s serve.Status) bool { return s.State.Terminal() })
	if final.State != serve.Cancelled {
		t.Fatalf("cancelled experiment ended %s (%s), want %s", final.State, final.Error, serve.Cancelled)
	}

	quick := submit(t, ts, serve.Request{Kind: "experiment", Experiment: "ablate-qos", Quick: true})
	done := waitState(t, ts, quick.ID, "done", func(s serve.Status) bool { return s.State.Terminal() })
	if done.State != serve.Done {
		t.Fatalf("quick experiment after a cancel ended %s: %s", done.State, done.Error)
	}
	if done.Progress != 1 {
		t.Fatalf("ablate-qos progress = %d, want its 1 simulation", done.Progress)
	}
}

// TestExperimentJobTimeout: an ablate-qos job that outlives
// Config.JobTimeout settles as timeout, and the worker then runs the
// next job.
func TestExperimentJobTimeout(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{
		Workers: 1, SimWorkers: 1, JobTimeout: 400 * time.Millisecond,
	})

	st := submit(t, ts, longQoS())
	final := waitState(t, ts, st.ID, "timeout", func(s serve.Status) bool { return s.State.Terminal() })
	if final.State != serve.Timeout {
		t.Fatalf("overlong experiment ended %s (%s), want %s", final.State, final.Error, serve.Timeout)
	}

	quick := submit(t, ts, quickSweep())
	qdone := waitState(t, ts, quick.ID, "done", func(s serve.Status) bool { return s.State.Terminal() })
	if qdone.State != serve.Done {
		t.Fatalf("job after a timeout ended %s: %s", qdone.State, qdone.Error)
	}
}
