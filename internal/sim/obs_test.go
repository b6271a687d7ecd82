package sim

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/reprolab/hirise/internal/crossbar"
	"github.com/reprolab/hirise/internal/obs"
	"github.com/reprolab/hirise/internal/pool"
	"github.com/reprolab/hirise/internal/topo"
	"github.com/reprolab/hirise/internal/traffic"
)

// observedSweep runs a hotspot CLRG sweep with per-point observers at
// the given worker count and returns the serialized JSONL trace, Chrome
// trace, and metrics dump.
func observedSweep(t *testing.T, workers int) (jsonl, chrome, metrics []byte) {
	t.Helper()
	loads := []float64{0.02, 0.05, 0.1}
	observers := make([]*obs.Observer, len(loads))
	for i := range observers {
		observers[i] = &obs.Observer{
			Metrics:  obs.NewRegistry(),
			Trace:    obs.NewRecorder(0),
			Fairness: obs.NewFairnessAudit(64, 3),
		}
	}
	base := Config{
		Traffic: traffic.Hotspot{Target: 0},
		Warmup:  500, Measure: 2000, Seed: 11,
	}
	_, err := pool.Sweep(nil, len(loads), workers, base.Seed, func(i int, seed uint64) (Result, error) {
		cfg := base
		cfg.Switch, cfg.Load, cfg.Seed, cfg.Obs = hirise(t, 4, topo.CLRG), loads[i], seed, observers[i]
		return Run(cfg)
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*obs.Recorder, len(observers))
	regs := make([]*obs.Registry, len(observers))
	for i, o := range observers {
		recs[i], regs[i] = o.Trace, o.Metrics
	}
	var jb, cb, mb bytes.Buffer
	if err := obs.WriteJSONL(&jb, recs); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteChromeTrace(&cb, recs); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteRegistriesJSON(&mb, regs); err != nil {
		t.Fatal(err)
	}
	return jb.Bytes(), cb.Bytes(), mb.Bytes()
}

// TestTraceWorkerCountInvariance is the tentpole's determinism
// contract: every serialized observability artifact is byte-identical
// whether the sweep ran serial or parallel.
func TestTraceWorkerCountInvariance(t *testing.T) {
	j1, c1, m1 := observedSweep(t, 1)
	j4, c4, m4 := observedSweep(t, 4)
	if !bytes.Equal(j1, j4) {
		t.Error("JSONL trace differs between 1 and 4 workers")
	}
	if !bytes.Equal(c1, c4) {
		t.Error("Chrome trace differs between 1 and 4 workers")
	}
	if !bytes.Equal(m1, m4) {
		t.Error("metrics dump differs between 1 and 4 workers")
	}
	if n, err := obs.ValidateJSONL(bytes.NewReader(j1)); err != nil || n == 0 {
		t.Errorf("JSONL invalid or empty: n=%d err=%v", n, err)
	}
	if n, err := obs.ValidateChromeTrace(c1); err != nil || n == 0 {
		t.Errorf("Chrome trace invalid or empty: n=%d err=%v", n, err)
	}
}

// TestObservationDoesNotPerturbResults: attaching every sink must leave
// the simulation's measurements bit-identical — observability reads the
// simulation, never steers it.
func TestObservationDoesNotPerturbResults(t *testing.T) {
	mk := func(o *obs.Observer) Result {
		cfg := Config{
			Switch:  hirise(t, 4, topo.CLRG),
			Traffic: traffic.Uniform{Radix: 64},
			Load:    0.2, Warmup: 500, Measure: 2000, Seed: 3, Obs: o,
		}
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	plain := mk(nil)
	observed := mk(&obs.Observer{
		Metrics:  obs.NewRegistry(),
		Trace:    obs.NewRecorder(0),
		Fairness: obs.NewFairnessAudit(64, 3),
	})
	if !reflect.DeepEqual(plain, observed) {
		t.Fatalf("results differ with observer attached:\n%+v\n%+v", plain, observed)
	}
}

// TestObservedMetricsConsistent cross-checks the metrics registry
// against the simulator's own accounting: whole-run counters must be at
// least the measurement-window counts, and every lifecycle invariant
// must hold.
func TestObservedMetricsConsistent(t *testing.T) {
	o := &obs.Observer{
		Metrics:  obs.NewRegistry(),
		Trace:    obs.NewRecorder(0),
		Fairness: obs.NewFairnessAudit(64, 3),
	}
	cfg := Config{
		Switch:  hirise(t, 4, topo.CLRG),
		Traffic: traffic.Uniform{Radix: 64},
		Load:    0.3, PacketFlits: 4, Warmup: 500, Measure: 2000, Seed: 5, Obs: o,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inj := o.Counter("sim.packets.injected").Value()
	del := o.Counter("sim.packets.delivered").Value()
	if inj < res.Injected || del < res.Delivered {
		t.Errorf("whole-run counters (%d inj, %d del) below measurement window (%d, %d)",
			inj, del, res.Injected, res.Delivered)
	}
	if del > inj {
		t.Errorf("delivered %d > injected %d", del, inj)
	}
	if flits := o.Counter("sim.flits.delivered").Value(); flits != del*int64(cfg.PacketFlits) {
		t.Errorf("flits %d != delivered %d * %d", flits, del, cfg.PacketFlits)
	}
	if lat := o.Histogram("sim.latency.cycles", 4, 4096); lat.Count() != del {
		t.Errorf("latency observations %d != deliveries %d", lat.Count(), del)
	}
	// Every delivered packet won an arbitration round exactly once.
	if wins := o.Counter("sim.arb.wins").Value(); wins < del {
		t.Errorf("wins %d < deliveries %d", wins, del)
	}
	// Trace events mirror the counters.
	var ejects int64
	for _, e := range o.Rec().Events() {
		if e.Kind == obs.EvEject {
			ejects++
		}
	}
	if o.Rec().Dropped() == 0 && ejects != del {
		t.Errorf("%d eject events, %d delivered packets", ejects, del)
	}
	// The audit saw real contention under uniform load.
	rep := o.Audit().Report()
	if rep.TotalRequests == 0 || rep.TotalWins == 0 {
		t.Errorf("audit empty: %+v", rep)
	}
	if rep.TotalWins > rep.TotalRequests {
		t.Errorf("wins %d > requests %d", rep.TotalWins, rep.TotalRequests)
	}
}

// TestLoadSweepIgnoresBaseObs: sweep points run concurrently and obs
// sinks are single-writer, so LoadSweep hands no point base.Obs. Were
// the caller's observer shared, the four workers would race on its
// registry (run under -race) and fill it.
func TestLoadSweepIgnoresBaseObs(t *testing.T) {
	loads := []float64{0.1, 0.2, 0.3, 0.4}
	mk := func() Switch { return crossbar.New(16) }
	base := Config{Traffic: traffic.Uniform{Radix: 16}, Warmup: 200, Measure: 1000, Seed: 3}
	want, err := LoadSweep(base, mk, nil, loads, 1)
	if err != nil {
		t.Fatal(err)
	}
	shared := &obs.Observer{Metrics: obs.NewRegistry(), Trace: obs.NewRecorder(0)}
	base.Obs = shared
	got, err := LoadSweep(base, mk, nil, loads, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("base.Obs perturbed the sweep:\n%+v\n%+v", got, want)
	}
	if n := shared.Counter("sim.packets.injected").Value(); n != 0 {
		t.Errorf("shared registry counted %d injections, want 0", n)
	}
	if n := len(shared.Rec().Events()); n != 0 {
		t.Errorf("shared recorder holds %d events, want 0", n)
	}
}
