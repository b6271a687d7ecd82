package obs

import (
	"bytes"
	"strings"
	"testing"

	"github.com/reprolab/hirise/internal/tele"
)

func sampledRun(t *testing.T) (*Recorder, *tele.Sampler) {
	t.Helper()
	rec := NewRecorder(64)
	rec.Record(3, EvInject, 1, 2, 0)
	rec.Record(5, EvArbWin, 1, 2, 4)
	s := tele.NewSampler(8, 16)
	c := (&Observer{Metrics: NewRegistry()}).TrackedCounter(s, "sim.flits.delivered")
	s.GaugeFunc("sim.queue.occupancy", func() float64 { return 2 })
	for cyc := int64(0); cyc < 32; cyc++ {
		c.Inc()
		s.Tick(cyc + 1)
	}
	return rec, s
}

// TestWriteChromeTraceWithCounters: counter tracks interleave with
// flit events as "C" phases on the run's pid, validate cleanly, and
// WriteChromeTrace stays byte-identical to the counter-less call.
func TestWriteChromeTraceWithCounters(t *testing.T) {
	rec, s := sampledRun(t)
	var buf bytes.Buffer
	if err := WriteChromeTraceWithCounters(&buf, []*Recorder{rec}, []*tele.Sampler{s}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	n, err := ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("ValidateChromeTrace: %v\n%s", err, out)
	}
	// 2 flit events + 2 series × 4 windows of counter samples.
	if n != 10 {
		t.Fatalf("event count = %d, want 10\n%s", n, out)
	}
	if !strings.Contains(out, `"ph":"C"`) {
		t.Fatalf("no counter events:\n%s", out)
	}
	if !strings.Contains(out, `{"name":"sim.queue.occupancy","ph":"C","ts":8,"pid":0,"tid":0,"args":{"value":2}}`) {
		t.Fatalf("counter sample malformed:\n%s", out)
	}

	var plain, viaNil bytes.Buffer
	if err := WriteChromeTrace(&plain, []*Recorder{rec}); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTraceWithCounters(&viaNil, []*Recorder{rec}, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), viaNil.Bytes()) {
		t.Fatal("WriteChromeTrace diverged from the nil-sampler call")
	}
	if strings.Contains(plain.String(), `"ph":"C"`) {
		t.Fatal("counter events leaked into the counter-less writer")
	}
}

// TestWriteChromeTraceCountersOnly: a telemetry-only export (no flit
// recorders at all) is still a valid trace document.
func TestWriteChromeTraceCountersOnly(t *testing.T) {
	_, s := sampledRun(t)
	var buf bytes.Buffer
	if err := WriteChromeTraceWithCounters(&buf, nil, []*tele.Sampler{nil, s}); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("ValidateChromeTrace: %v\n%s", err, buf.String())
	}
	if n != 8 {
		t.Fatalf("event count = %d, want 8", n)
	}
	// The nil run keeps its index: samples carry pid 1.
	if !strings.Contains(buf.String(), `"pid":1`) {
		t.Fatalf("run indices not preserved:\n%s", buf.String())
	}
}

// TestValidateChromeTraceRejectsBadCounter: "C" events need args.
func TestValidateChromeTraceRejectsBadCounter(t *testing.T) {
	bad := []byte(`{"traceEvents":[{"name":"x","ph":"C","ts":0,"pid":0,"tid":0}]}`)
	if _, err := ValidateChromeTrace(bad); err == nil {
		t.Fatal("validator accepted a counter event without args")
	}
}
