package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/reprolab/hirise/internal/core"
	"github.com/reprolab/hirise/internal/crossbar"
	"github.com/reprolab/hirise/internal/pool"
	"github.com/reprolab/hirise/internal/serve"
	"github.com/reprolab/hirise/internal/sim"
	"github.com/reprolab/hirise/internal/topo"
	"github.com/reprolab/hirise/internal/traffic"
)

// serveWorkload parameterizes one serving workload: an open-loop,
// seeded schedule of job submissions at a fixed rate, round-robin over
// the cluster's nodes.
type serveWorkload struct {
	name string
	// rate is the offered load in requests per second.
	rate float64
	// keyspace > 0 draws every request from that many specs, all
	// computed on their home node during set-up; 0 makes every request
	// a distinct spec that nobody holds.
	keyspace int
	// limit is the latency limit slo_attain counts against.
	limit time.Duration
	// lateBound bounds the generator's p99 lateness; a run that breaks
	// it is invalid.
	lateBound time.Duration
	// spec builds request spec k.
	spec func(seed uint64, k int) serve.Request
	// warm is the number of extra distinct specs set-up submits to warm
	// code paths and connections.
	warm int
}

// requestTimeout bounds each request from its due time; a request with
// no result by then is lost.
const requestTimeout = 10 * time.Second

// outcome classifies one request.
type outcome int

const (
	outDone      outcome = iota // result bytes in hand
	outFailed                   // rejected spec, or the job ended failed/cancelled/timed out
	outAbandoned                // 429 whose Retry-After would pass the request's deadline
	outLost                     // transport error, or no terminal state by the deadline
)

// reqRecord is everything the load generator saw of one request.
// Client-side instants are its clock; created/started/finished are the
// server's, from the job status.
type reqRecord struct {
	due, sent, admitted, seen, got time.Time // sent: when the generator fired it
	created, started, finished     time.Time

	out      outcome
	cacheHit bool
	source   string
	key      string
	sum      [sha256.Size]byte
	httpReqs int
}

func (r *reqRecord) latency() time.Duration { return r.got.Sub(r.due) }

// pollDelay is the wait before status poll i (i = 0 is immediate):
// 250µs doubling up to 4ms, so fast jobs are seen quickly and slow ones
// do not flood the nodes.
func pollDelay(i int) time.Duration {
	if i == 0 {
		return 0
	}
	d := 250 * time.Microsecond << (i - 1)
	if i > 5 || d > 4*time.Millisecond {
		d = 4 * time.Millisecond
	}
	return d
}

// drive rides one request from its due time to its result bytes:
// submit, poll the status until terminal, fetch the result.
func (tb *testbed) drive(ctx context.Context, due, fired time.Time, target int, body []byte) reqRecord {
	// sent is when the generator fired the request; starting its
	// goroutine and waiting for a client slot belong to the admit stage.
	rec := reqRecord{due: due, sent: fired}
	ctx, cancel := context.WithDeadline(ctx, due.Add(requestTimeout))
	defer cancel()
	url := tb.nodes[target].url
	var st serve.Status
	for {
		ex, err := tb.do(ctx, http.MethodPost, url+"/jobs", body)
		rec.httpReqs++
		if err != nil {
			rec.out = outLost
			return rec
		}
		if ex.code == http.StatusTooManyRequests {
			wait := time.Second
			if n, err := strconv.Atoi(ex.hdr.Get("Retry-After")); err == nil && n >= 0 {
				wait = time.Duration(n) * time.Second
			}
			if dl, _ := ctx.Deadline(); time.Now().Add(wait).After(dl) {
				rec.out = outAbandoned
				return rec
			}
			if !sleepCtx(ctx, wait) {
				rec.out = outAbandoned
				return rec
			}
			continue
		}
		if ex.code != http.StatusAccepted {
			rec.out = outFailed
			return rec
		}
		rec.admitted = ex.got
		if st, err = statusOf(ex.body); err != nil {
			rec.out = outLost
			return rec
		}
		break
	}
	for i := 0; ; i++ {
		if !sleepCtx(ctx, pollDelay(i)) {
			rec.out = outLost
			return rec
		}
		ex, err := tb.do(ctx, http.MethodGet, url+"/jobs/"+st.ID, nil)
		rec.httpReqs++
		if err != nil || ex.code != http.StatusOK {
			rec.out = outLost
			return rec
		}
		if st, err = statusOf(ex.body); err != nil {
			rec.out = outLost
			return rec
		}
		if st.State.Terminal() {
			rec.seen = ex.got
			break
		}
	}
	rec.cacheHit, rec.source, rec.key = st.CacheHit, st.Source, st.Key
	rec.created = parseTime(st.Created)
	rec.started = parseTime(st.Started)
	rec.finished = parseTime(st.Finished)
	if st.State != serve.Done {
		rec.out = outFailed
		return rec
	}
	ex, err := tb.do(ctx, http.MethodGet, url+"/jobs/"+st.ID+"/result", nil)
	rec.httpReqs++
	if err != nil || ex.code != http.StatusOK {
		rec.out = outLost
		return rec
	}
	rec.got = ex.got
	rec.sum = sha256.Sum256(ex.body)
	rec.out = outDone
	return rec
}

func parseTime(s string) time.Time {
	t, _ := time.Parse(time.RFC3339Nano, s)
	return t
}

// sleepCtx waits d, or returns false once ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// sleepUntil blocks the calling goroutine's thread in nanosleep until t.
// Go timers wake an otherwise idle process on the netpoller's
// millisecond tick, which would make the generator late by up to a
// millisecond on every arrival; nanosleep wakes within microseconds.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// fire runs the open-loop schedule: each arrival is sent at its due
// time whatever the cluster is doing, on its own goroutine. It returns
// once every request has ended.
func (tb *testbed) fire(ctx context.Context, start time.Time, sched []arrival, bodies [][]byte, tr *tracer) []reqRecord {
	recs := make([]reqRecord, len(sched))
	var wg sync.WaitGroup
	for i, a := range sched {
		due := start.Add(a.at)
		sleepUntil(due)
		fired := time.Now()
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[i] = tb.drive(ctx, due, fired, a.target, bodies[a.spec])
			traceRequest(tr, i, &recs[i])
		}()
	}
	wg.Wait()
	return recs
}

// traceRequest records a request span and its stage spans.
func traceRequest(tr *tracer, i int, r *reqRecord) {
	if tr == nil || r.out != outDone {
		return
	}
	parent := map[string]any{"parent": "request"}
	tr.span("request", "request", i, r.due, r.got, map[string]any{"cache_hit": r.cacheHit, "source": r.source})
	tr.span("request", "late", i, r.due, r.sent, parent)
	tr.span("request", "admit", i, r.sent, r.admitted, parent)
	tr.span("request", "queue", i, r.created, r.started, parent)
	tr.span("request", "run", i, r.started, r.finished, parent)
	tr.span("request", "poll_gap", i, r.finished, r.seen, parent)
	tr.span("request", "result", i, r.seen, r.got, parent)
}

// submitAndWait runs one set-up request to completion against a node,
// outside any timing.
func (tb *testbed) submitAndWait(ctx context.Context, target int, body []byte) (reqRecord, error) {
	now := time.Now()
	rec := tb.drive(ctx, now, now, target, body)
	if rec.out != outDone {
		return rec, fmt.Errorf("set-up request to %s ended in outcome %d", tb.nodes[target].id, rec.out)
	}
	return rec, nil
}

// setup starts a fresh cluster under root and readies it for the timed
// phase: on serve_hot every key is computed once on its home node, on
// serve_cold a few distinct warm-up specs run through every node.
func (w serveWorkload) setup(ctx context.Context, root string, seed uint64, specs []serve.Request, bodies [][]byte) (*testbed, error) {
	dir, err := os.MkdirTemp(root, w.name+"-")
	if err != nil {
		return nil, err
	}
	tb, err := startTestbed(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	type task struct {
		target int
		body   []byte
		key    string
	}
	var tasks []task
	if w.keyspace > 0 {
		for k, req := range specs {
			key, err := keyOf(tb.nodes[0].st, req)
			if err != nil {
				tb.close()
				return nil, err
			}
			tasks = append(tasks, task{tb.homeOf(key), bodies[k], key.String()})
		}
	}
	for i := 0; i < w.warm; i++ {
		b, err := json.Marshal(w.spec(seed, -1-i))
		if err != nil {
			tb.close()
			return nil, err
		}
		tasks = append(tasks, task{target: i % clusterNodes, body: b})
	}
	errs := make([]error, len(tasks))
	pool.Do(len(tasks), 2*runtime.NumCPU(), func(i int) {
		rec, err := tb.submitAndWait(ctx, tasks[i].target, tasks[i].body)
		switch {
		case err != nil:
			errs[i] = err
		case tasks[i].key != "" && rec.key != tasks[i].key:
			errs[i] = fmt.Errorf("spec %d: server key %s, derived key %s", i, rec.key, tasks[i].key)
		case tasks[i].key != "" && rec.source != "computed":
			errs[i] = fmt.Errorf("spec %d: set-up on home node came from %q, want computed", i, rec.source)
		}
	})
	for _, err := range errs {
		if err != nil {
			tb.close()
			return nil, err
		}
	}
	return tb, nil
}

// directCompute computes a loadsweep spec in process, without the
// service, exactly as serve's compute renders it: sim.LoadSweep over
// the spec's switch and traffic, encoded as indented JSON sweep points.
// It supports the specs the benchmark generates (2-D and Hi-Rise, CLRG,
// input-binned, uniform traffic).
func directCompute(req serve.Request) ([]byte, error) {
	var mk func() sim.Switch
	switch req.Design {
	case "2d":
		mk = func() sim.Switch { return crossbar.New(req.Radix) }
	case "hirise":
		cfg := topo.Config{Radix: req.Radix, Layers: req.Layers, Channels: req.Channels, Classes: req.Classes,
			Scheme: topo.CLRG, Alloc: topo.InputBinned}
		if _, err := core.New(cfg); err != nil {
			return nil, err
		}
		mk = func() sim.Switch {
			sw, _ := core.New(cfg)
			return sw
		}
	default:
		return nil, fmt.Errorf("direct compute: design %q not generated by the benchmark", req.Design)
	}
	base := sim.Config{PacketFlits: req.Flits, VCs: req.VCs, Warmup: req.Warmup, Measure: req.Measure, Seed: req.Seed}
	res, err := sim.LoadSweep(base, mk, func() sim.Traffic { return traffic.Uniform{Radix: req.Radix} }, req.Loads, 1)
	if err != nil {
		return nil, err
	}
	points := make([]serve.SweepPoint, len(res))
	for i, r := range res {
		points[i] = serve.SweepPoint{Load: req.Loads[i], Result: r}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(points); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// summary is the end-to-end view of one timed phase.
type summary struct {
	attempted, done, failedOps int
	abandoned, lost, failed    int
	latMS                      []float64 // done requests, in due order
	p50MS, p99MS               float64
	p99Windows                 int
	sloAttain                  float64
	lateP99MS                  float64
	wall                       time.Duration
	cacheHits, peerHits, comp  int
	requestsPerJob             float64
}

// summarize reduces a phase's records. Requests that failed, were
// abandoned after 429s, or were lost count against slo_attain and as
// failed operations; latency quantiles come from the raw samples of the
// done requests (p99 windowed, see windowedQuantile).
func summarize(recs []reqRecord, start time.Time, limit time.Duration) summary {
	s := summary{attempted: len(recs)}
	var late []float64
	end := start
	httpReqs := 0
	for i := range recs {
		r := &recs[i]
		if !r.sent.IsZero() {
			late = append(late, ms(r.sent.Sub(r.due)))
		}
		switch r.out {
		case outDone:
			s.done++
			httpReqs += r.httpReqs
			s.latMS = append(s.latMS, ms(r.latency()))
			if r.latency() <= limit {
				s.sloAttain++
			}
			if r.got.After(end) {
				end = r.got
			}
			switch {
			case r.cacheHit:
				s.cacheHits++
			case strings.HasPrefix(r.source, "peer:"):
				s.peerHits++
			case r.source == "computed":
				s.comp++
			}
		case outAbandoned:
			s.abandoned++
		case outLost:
			s.lost++
		default:
			s.failed++
		}
	}
	s.failedOps = s.attempted - s.done
	s.sloAttain = ratio(s.sloAttain, float64(s.attempted))
	s.p50MS = quantile(sortedCopy(s.latMS), 0.50)
	s.p99MS, s.p99Windows = windowedQuantile(s.latMS, 0.99)
	sort.Float64s(late)
	s.lateP99MS = quantile(late, 0.99)
	s.wall = end.Sub(start)
	s.requestsPerJob = ratio(float64(httpReqs), float64(s.done))
	return s
}

// validity lists the reasons a phase's numbers are not a valid
// measurement: too few samples beyond p99, or a generator that ran later
// than its bound.
func (s summary) validity(lateBound time.Duration) []string {
	var bad []string
	if t := beyond(len(s.latMS), 0.99); t < minTail {
		bad = append(bad, fmt.Sprintf("only %d latency samples beyond p99 (need %d)", t, minTail))
	}
	if s.lateP99MS > ms(lateBound) {
		bad = append(bad, fmt.Sprintf("generator p99 lateness %.3f ms exceeds bound %.3f ms", s.lateP99MS, ms(lateBound)))
	}
	return bad
}

// stages returns the sorted per-stage durations of the done requests,
// in ms: admit (from the generator firing the request to the 202 in
// hand, including the wait for a client slot), queue (started -
// created), run (finished - started), poll gap (seen - finished) and
// result (GET result round trip).
func stages(recs []reqRecord) map[string][]float64 {
	st := map[string][]float64{}
	for i := range recs {
		r := &recs[i]
		if r.out != outDone {
			continue
		}
		st["admit"] = append(st["admit"], ms(r.admitted.Sub(r.sent)))
		st["queue"] = append(st["queue"], ms(r.started.Sub(r.created)))
		st["run"] = append(st["run"], ms(r.finished.Sub(r.started)))
		st["poll_gap"] = append(st["poll_gap"], ms(r.seen.Sub(r.finished)))
		st["result"] = append(st["result"], ms(r.got.Sub(r.seen)))
	}
	for k := range st {
		sort.Float64s(st[k])
	}
	return st
}

// reconcile compares the stages with the latency they must explain, as
// means over the done requests in ms: the latency, the plain sum of the
// stages, and the time the stages cover. The stages are not disjoint —
// the 202 travels back while the job already queues or runs, so admit
// overlaps queue and run — which puts the plain sum above the latency.
// The covered time, the union of each request's stage spans, must match
// the latency within reconcileTolerance: a shortfall is time no stage
// accounts for, which happens when a server timestamp falls outside
// what the client observed. Lateness is the generator's, not a layer's,
// but latency runs from the due time, so its span is a stage here.
func reconcile(recs []reqRecord) (latency, stageSum, covered float64) {
	var lat, sum, cov []float64
	for i := range recs {
		r := &recs[i]
		if r.out != outDone {
			continue
		}
		spans := [][2]time.Time{
			{r.due, r.sent}, {r.sent, r.admitted}, {r.created, r.started},
			{r.started, r.finished}, {r.finished, r.seen}, {r.seen, r.got},
		}
		var total time.Duration
		for _, s := range spans {
			total += s[1].Sub(s[0])
		}
		lat = append(lat, ms(r.latency()))
		sum = append(sum, ms(total))
		cov = append(cov, ms(union(spans)))
	}
	return mean(lat), mean(sum), mean(cov)
}

// union returns the total length of the union of the spans; an inverted
// span counts as empty.
func union(spans [][2]time.Time) time.Duration {
	s := append([][2]time.Time(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i][0].Before(s[j][0]) })
	var total time.Duration
	var end time.Time
	for i, sp := range s {
		if i == 0 || sp[0].After(end) {
			end = sp[0]
		}
		if sp[1].After(end) {
			total += sp[1].Sub(end)
			end = sp[1]
		}
	}
	return total
}

const reconcileTolerance = 0.05
