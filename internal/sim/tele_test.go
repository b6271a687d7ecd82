package sim

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"github.com/reprolab/hirise/internal/crossbar"
	"github.com/reprolab/hirise/internal/obs"
	"github.com/reprolab/hirise/internal/pool"
	"github.com/reprolab/hirise/internal/sched"
	"github.com/reprolab/hirise/internal/tele"
	"github.com/reprolab/hirise/internal/traffic"
)

func teleCfg(seed uint64) Config {
	return Config{
		Switch:  crossbar.New(16),
		Traffic: traffic.Uniform{Radix: 16},
		Load:    0.3, Warmup: 1000, Measure: 8000, Seed: seed,
	}
}

// TestTelemetryNonPerturbing: attaching a sampler changes nothing but
// the Converged/WarmupCycles verdict fields — every measurement is
// identical to the unobserved run.
func TestTelemetryNonPerturbing(t *testing.T) {
	plain, err := Run(teleCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	cfg := teleCfg(7)
	cfg.Obs = &obs.Observer{Tele: tele.NewSampler(64, 128)}
	sampled, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sampled.Converged {
		t.Fatal("uniform 30% load did not converge over 8000 cycles")
	}
	sampled.Converged, sampled.WarmupCycles = false, 0
	if !reflect.DeepEqual(plain, sampled) {
		t.Fatalf("telemetry perturbed the run:\nplain   %+v\nsampled %+v", plain, sampled)
	}
}

// TestTelemetrySeriesContents: the sampler's counter mass matches the
// whole-run obs counters (telemetry observes the simulation, not just
// the measurement window), and the gauge tracks exist.
func TestTelemetrySeriesContents(t *testing.T) {
	cfg := teleCfg(3)
	reg := obs.NewRegistry()
	s := tele.NewSampler(64, 256)
	cfg.Obs = &obs.Observer{Metrics: reg, Tele: s}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	// 9000 cycles at window 64 → 140 full windows covering 8960
	// cycles; the partial tail is dropped, so series mass can trail the
	// registry total by at most one window of events. Compare against
	// a registry re-run truncated to full windows instead: just check
	// the series sums stay within one window of the registry counters.
	for _, name := range []string{"sim.packets.injected", "sim.packets.delivered", "sim.arb.wins"} {
		var mass float64
		for _, v := range s.Values(name) {
			mass += v
		}
		total := float64(reg.Counter(name).Value())
		if mass > total || total-mass > 64*16 {
			t.Errorf("series %s mass %v vs counter %v: outside one window", name, mass, total)
		}
	}
	if s.Values("sim.queue.occupancy") == nil || s.Values("sim.flits.inflight") == nil {
		t.Fatal("gauge tracks missing")
	}
	if got := len(s.Values(teleDeliveredSeries)); got != s.Windows() {
		t.Fatalf("series length %d != %d windows", got, s.Windows())
	}
}

// TestTelemetryDeterministicAcrossWorkers: per-point samplers serialize
// byte-identically at -parallel 1, 4, and GOMAXPROCS, with and without
// ConvergeStop.
func TestTelemetryDeterministicAcrossWorkers(t *testing.T) {
	loads := []float64{0.1, 0.25, 0.4, 0.6, 0.8}
	for _, converge := range []bool{false, true} {
		sweep := func(workers int) ([]Result, []byte) {
			base := teleCfg(11)
			base.ConvergeStop = converge
			samps := make([]*tele.Sampler, len(loads))
			observers := make([]*obs.Observer, len(loads))
			for i := range samps {
				samps[i] = tele.NewSampler(64, 128)
				observers[i] = &obs.Observer{Tele: samps[i]}
			}
			res, err := pool.Sweep(nil, len(loads), workers, base.Seed, func(i int, seed uint64) (Result, error) {
				cfg := base
				cfg.Switch, cfg.Load, cfg.Seed, cfg.Obs = crossbar.New(16), loads[i], seed, observers[i]
				return Run(cfg)
			})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := tele.WriteNDJSON(&buf, samps); err != nil {
				t.Fatal(err)
			}
			return res, buf.Bytes()
		}
		res1, b1 := sweep(1)
		res4, b4 := sweep(4)
		resMax, bMax := sweep(runtime.GOMAXPROCS(0))
		if !bytes.Equal(b1, b4) || !bytes.Equal(b1, bMax) {
			t.Fatalf("telemetry NDJSON differs across worker counts (converge=%v)", converge)
		}
		if !reflect.DeepEqual(res1, res4) || !reflect.DeepEqual(res1, resMax) {
			t.Fatalf("results differ across worker counts (converge=%v)", converge)
		}
	}
}

// TestConvergeStop: a long steady run stops early (fewer injected
// packets than the full-length run), reports convergence, and keeps
// its rate estimates close to the full-length truth.
func TestConvergeStop(t *testing.T) {
	full := teleCfg(5)
	full.Measure = 60000
	fres, err := Run(full)
	if err != nil {
		t.Fatal(err)
	}
	early := full
	early.Switch = crossbar.New(16)
	early.ConvergeStop = true
	eres, err := Run(early)
	if err != nil {
		t.Fatal(err)
	}
	if !eres.Converged {
		t.Fatal("ConvergeStop run did not converge")
	}
	if eres.Injected >= fres.Injected {
		t.Fatalf("ConvergeStop did not stop early: injected %d vs full %d", eres.Injected, fres.Injected)
	}
	if eres.Injected == 0 {
		t.Fatal("ConvergeStop run measured nothing")
	}
	// The early estimate must agree with the converged truth within a
	// loose statistical tolerance.
	if diff := eres.AcceptedPackets - fres.AcceptedPackets; diff > 0.05*16 || diff < -0.05*16 {
		t.Fatalf("early-stop throughput %v too far from full-run %v", eres.AcceptedPackets, fres.AcceptedPackets)
	}
	// The same config twice is cycle-for-cycle deterministic.
	again := full
	again.Switch = crossbar.New(16)
	again.ConvergeStop = true
	ares, err := Run(again)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(eres, ares) {
		t.Fatal("ConvergeStop is not deterministic")
	}
}

// TestConvergeStopVOQ: the VOQ simulator honors ConvergeStop too.
func TestConvergeStopVOQ(t *testing.T) {
	base := VOQConfig{
		Radix: 16, Sched: sched.NewISLIP(16, 2),
		Traffic: traffic.Uniform{Radix: 16},
		Load:    0.3, Warmup: 1000, Measure: 60000, Seed: 9,
	}
	fres, err := RunVOQ(base)
	if err != nil {
		t.Fatal(err)
	}
	early := base
	early.Sched = sched.NewISLIP(16, 2)
	early.ConvergeStop = true
	eres, err := RunVOQ(early)
	if err != nil {
		t.Fatal(err)
	}
	if !eres.Converged {
		t.Fatal("VOQ ConvergeStop run did not converge")
	}
	if eres.Injected >= fres.Injected {
		t.Fatalf("VOQ ConvergeStop did not stop early: injected %d vs full %d", eres.Injected, fres.Injected)
	}
}

// TestRunSteadyStateAllocsTelemetryDisabled extends the alloc pin to
// the new telemetry hooks: the nil-sampler path must not add per-cycle
// allocations (the handles are nil and Tick is a compare).
func TestRunSteadyStateAllocsTelemetryDisabled(t *testing.T) {
	allocs := func(cycles int64) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := Run(Config{
				Switch:  crossbar.New(64),
				Traffic: traffic.Uniform{Radix: 64},
				Load:    0.3, Warmup: 500, Measure: cycles, Seed: 7,
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(2000), allocs(8000)
	if long > short+2 {
		t.Errorf("telemetry-disabled hot loop allocated %.0f extra times over 6000 extra cycles", long-short)
	}
}

// TestRunSteadyStateAllocsTelemetryEnabled: with a sampler attached,
// steady-state cost stays flat too — windows append into preallocated
// storage and decimation is in place, so longer runs cost no more
// allocations than shorter ones.
func TestRunSteadyStateAllocsTelemetryEnabled(t *testing.T) {
	allocs := func(cycles int64) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := Run(Config{
				Switch:  crossbar.New(64),
				Traffic: traffic.Uniform{Radix: 64},
				Load:    0.3, Warmup: 500, Measure: cycles, Seed: 7,
				Obs: &obs.Observer{Tele: tele.NewSampler(64, 64)},
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(2000), allocs(8000)
	if long > short+2 {
		t.Errorf("telemetry-enabled hot loop allocated %.0f extra times over 6000 extra cycles", long-short)
	}
}
