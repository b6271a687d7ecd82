// Differential tests for the single-switch engine (engine.go) against
// the reference oracle refRun (ref_test.go): every configuration —
// fused and generic arbitration, stateful traffic, and each hook plane
// (obs, tele with ConvergeStop, lossy links with retries, fail-stop
// faults with dead flows, the checker, up to 64 VCs) — must produce
// byte-identical Results and byte-identical observability output
// through Run and through BatchRun at 1 to 8 seeds.
package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"github.com/reprolab/hirise/internal/arb"
	"github.com/reprolab/hirise/internal/core"
	"github.com/reprolab/hirise/internal/crossbar"
	"github.com/reprolab/hirise/internal/fault"
	"github.com/reprolab/hirise/internal/obs"
	"github.com/reprolab/hirise/internal/pool"
	"github.com/reprolab/hirise/internal/tele"
	"github.com/reprolab/hirise/internal/topo"
	"github.com/reprolab/hirise/internal/traffic"
)

func seedLattice(base uint64, r int) []uint64 {
	seeds := make([]uint64, r)
	for i := range seeds {
		seeds[i] = pool.SeedFor(base, uint64(i))
	}
	return seeds
}

func hiriseCLRG() Switch {
	s, err := core.New(hiriseCfg(4, topo.CLRG))
	if err != nil {
		panic(err)
	}
	return s
}

// fullObserver returns an observer with every sink attached.
func fullObserver() *obs.Observer {
	return &obs.Observer{
		Metrics:  obs.NewRegistry(),
		Trace:    obs.NewRecorder(0),
		Fairness: obs.NewFairnessAudit(64, 3),
		Tele:     tele.NewSampler(64, 128),
	}
}

// obsBytes serializes every sink of o: the JSONL trace, the Chrome
// trace with telemetry counter tracks, the metrics JSON, the fairness
// report, and the raw telemetry series.
func obsBytes(t *testing.T, o *obs.Observer) []byte {
	t.Helper()
	var b bytes.Buffer
	recs := []*obs.Recorder{o.Trace}
	if err := obs.WriteJSONL(&b, recs); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteChromeTraceWithCounters(&b, recs, []*tele.Sampler{o.Tele}); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteRegistriesJSON(&b, []*obs.Registry{o.Metrics}); err != nil {
		t.Fatal(err)
	}
	if o.Fairness != nil {
		if err := o.Fairness.Report().WriteText(&b); err != nil {
			t.Fatal(err)
		}
	}
	fmt.Fprintf(&b, "%v", o.Tele.Series())
	return b.Bytes()
}

func lossyPlan(t testing.TB) *fault.Plan {
	t.Helper()
	p, err := fault.Spec{
		Seed: 3, Campaign: "engine-lossy", Cfg: hiriseCfg(4, topo.CLRG),
		TransientRate: 0.004, RepairMean: 48, Horizon: 400,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func failStopPlan(t testing.TB) *fault.Plan {
	t.Helper()
	var fs []fault.Fault
	for p := 0; p < 8; p++ {
		fs = append(fs, fault.Fault{Kind: fault.Output, ID: p * 7, Onset: 120, Repair: -1})
	}
	cfg := hiriseCfg(4, topo.CLRG)
	for cid := 0; cid < cfg.NumL2LC(); cid += 5 {
		fs = append(fs, fault.Fault{Kind: fault.Channel, ID: cid, Onset: 80, Repair: -1})
	}
	return mustPlan(t, fs...)
}

// TestBatchRunMatchesSequential is the engine's equivalence pin: at
// every batch width, Run per seed and BatchRun over the seeds must be
// byte-identical to refRun per seed — results and every observability
// artifact — for the fused path (stock LRG crossbar, flat, multi-word
// and folded), the generic path (Hi-Rise CLRG, a non-LRG crossbar),
// stateful traffic, and every hook plane, at loads from near-idle to
// saturation.
func TestBatchRunMatchesSequential(t *testing.T) {
	roundRobin := func() Switch {
		arbs := make([]arb.Arbiter, 64)
		for i := range arbs {
			arbs[i] = arb.NewRoundRobin(64)
		}
		s, err := crossbar.NewWithArbiters(64, arbs)
		if err != nil {
			panic(err)
		}
		return s
	}
	cases := []struct {
		name       string
		newSwitch  func() Switch
		newTraffic func() Traffic
		loads      []float64
		radix      int                 // 0 = 64
		measure    int64               // 0 = 1200 cycles after a 300-cycle warmup
		hook       func(c *Config)     // attaches the case's hooks; nil = hook-free
		observe    bool                // attach a fresh fullObserver to every run
		exercised  func([]Result) bool // the case reached its hook's behaviour
	}{
		{
			name:      "crossbar-fast",
			newSwitch: func() Switch { return crossbar.New(64) },
			loads:     []float64{0.05, 0.3, 1.0},
		},
		{
			// Radix past one 64-bit mask word and not a power of two:
			// exercises the fused path's multi-word column arbitration and
			// the general (Lemire) destination draw, which radix-64 cases
			// skip via the single-word and shift specializations.
			name:      "crossbar-fast-multiword",
			newSwitch: func() Switch { return crossbar.New(96) },
			loads:     []float64{0.3, 1.0},
			radix:     96,
		},
		{
			name:      "folded-fast",
			newSwitch: func() Switch { return crossbar.NewFolded(64, 4) },
			loads:     []float64{0.3},
		},
		{
			name:      "crossbar-roundrobin-generic",
			newSwitch: roundRobin,
			loads:     []float64{0.3, 1.0},
		},
		{
			name:      "hirise-clrg-generic",
			newSwitch: hiriseCLRG,
			loads:     []float64{0.3, 0.9},
		},
		{
			name:       "crossbar-bursty-stateful",
			newSwitch:  func() Switch { return crossbar.New(64) },
			newTraffic: func() Traffic { return traffic.NewBursty(64, 6) },
			loads:      []float64{0.4},
		},
		{
			// Saturated, so every event kind but the fault ones fires;
			// the low-load observed path is the tele case below.
			name:      "hirise-clrg-obs",
			newSwitch: hiriseCLRG,
			loads:     []float64{0.9},
			measure:   300,
			observe:   true,
		},
		{
			// An observer takes a stock crossbar off the fused path (its
			// fairness audit sees the crossbar's own arbiters).
			name:      "crossbar-obs",
			newSwitch: func() Switch { return crossbar.New(64) },
			loads:     []float64{0.3},
			measure:   300,
			observe:   true,
		},
		{
			name:      "hirise-tele-convergestop",
			newSwitch: hiriseCLRG,
			loads:     []float64{0.1},
			measure:   2000,
			hook:      func(c *Config) { c.ConvergeStop = true },
			observe:   true,
			exercised: func(rs []Result) bool { return rs[0].Converged },
		},
		{
			// ConvergeStop without Obs: the fused path with the engine's
			// private sampler.
			name:      "crossbar-fast-convergestop",
			newSwitch: func() Switch { return crossbar.New(64) },
			loads:     []float64{0.1},
			measure:   8000,
			hook:      func(c *Config) { c.ConvergeStop = true },
			exercised: func(rs []Result) bool { return rs[0].Converged },
		},
		{
			name:      "hirise-lossy-retry",
			newSwitch: hiriseCLRG,
			loads:     []float64{0.6},
			hook: func(c *Config) {
				c.Faults = lossyPlan(t)
				c.RetryBudget = 1
				c.Check = true
			},
			measure: 300,
			observe: true,
			exercised: func(rs []Result) bool {
				f := rs[0].Fault
				return f.FlitsDropped > 0 && f.Retransmissions > 0 && f.RetryExhausted > 0
			},
		},
		{
			name:      "hirise-failstop-deadflow",
			newSwitch: hiriseCLRG,
			loads:     []float64{0.9},
			hook: func(c *Config) {
				c.Faults = failStopPlan(t)
				c.DeadFlowCycles = 64
				c.Check = true
			},
			measure: 300,
			observe: true,
			exercised: func(rs []Result) bool {
				return rs[0].Fault.FailEvents > 0 && rs[0].Fault.DeadFlows > 0
			},
		},
		{
			name:      "crossbar-fast-check",
			newSwitch: func() Switch { return crossbar.New(64) },
			loads:     []float64{0.3, 1.0},
			hook:      func(c *Config) { c.Check = true },
		},
		{
			name:      "hirise-clrg-check",
			newSwitch: hiriseCLRG,
			loads:     []float64{0.9},
			hook:      func(c *Config) { c.Check = true },
		},
		{
			name:      "crossbar-fast-vcs33",
			newSwitch: func() Switch { return crossbar.New(64) },
			loads:     []float64{1.0},
			hook:      func(c *Config) { c.VCs = 33 },
		},
		{
			name:      "hirise-clrg-vcs64",
			newSwitch: hiriseCLRG,
			loads:     []float64{1.0},
			hook:      func(c *Config) { c.VCs, c.Check = 64, true },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			radix := tc.radix
			if radix == 0 {
				radix = 64
			}
			for _, load := range tc.loads {
				base := Config{
					Traffic: traffic.Uniform{Radix: radix},
					Load:    load,
					Warmup:  300, Measure: 1200,
				}
				if tc.measure != 0 {
					base.Warmup, base.Measure = 100, tc.measure
				}
				if tc.hook != nil {
					tc.hook(&base)
				}
				widths := []int{1, 2, 4, 8}
				if tc.observe {
					// Observed runs go one seed per call in every arm, so
					// more widths would only repeat the same path.
					widths = []int{1, 4}
				}
				for _, width := range widths {
					seeds := seedLattice(uint64(17*width)+uint64(load*1000), width)
					// perSeed runs the seeds one at a time through one, each
					// with a fresh switch, traffic and (when the case
					// observes) fullObserver, and returns the results and
					// the observers' serializations in seed order.
					perSeed := func(one func(c Config) (Result, error)) ([]Result, []byte) {
						var rs []Result
						var ob []byte
						for k, seed := range seeds {
							c := base
							c.Switch = tc.newSwitch()
							if tc.newTraffic != nil {
								c.Traffic = tc.newTraffic()
							}
							c.Seed = seed
							if tc.observe {
								c.Obs = fullObserver()
							}
							r, err := one(c)
							if err != nil {
								t.Fatalf("load %.2f width %d replica %d: %v", load, width, k, err)
							}
							rs = append(rs, r)
							if tc.observe {
								ob = append(ob, obsBytes(t, c.Obs)...)
							}
						}
						return rs, ob
					}
					want, wantObs := perSeed(refRun)
					if tc.exercised != nil && !tc.exercised(want) {
						t.Fatalf("load %.2f width %d: the case never reached its hook's behaviour: %+v", load, width, want[0])
					}
					batch := func() ([]Result, []byte) {
						if !tc.observe {
							rs, err := BatchRun(base, tc.newSwitch, tc.newTraffic, seeds)
							if err != nil {
								t.Fatalf("load %.2f width %d: %v", load, width, err)
							}
							return rs, nil
						}
						// A sampler cannot be shared across runs, so an
						// observed case calls BatchRun with one seed (and
						// one observer) per call.
						return perSeed(func(c Config) (Result, error) {
							rs, err := BatchRun(c, func() Switch { return c.Switch }, nil, []uint64{c.Seed})
							if err != nil {
								return Result{}, err
							}
							return rs[0], nil
						})
					}
					for _, a := range []struct {
						name string
						run  func() ([]Result, []byte)
					}{
						{"Run", func() ([]Result, []byte) { return perSeed(Run) }},
						{"BatchRun", batch},
					} {
						got, gotObs := a.run()
						for k := range want {
							if !reflect.DeepEqual(got[k], want[k]) {
								t.Fatalf("%s load %.2f width %d replica %d diverged:\nengine: %+v\nref:    %+v",
									a.name, load, width, k, got[k], want[k])
							}
						}
						if !bytes.Equal(gotObs, wantObs) {
							t.Fatalf("%s load %.2f width %d: observability output diverged from the reference (%d vs %d bytes)",
								a.name, load, width, len(gotObs), len(wantObs))
						}
					}
				}
			}
		})
	}
}

func TestBatchRunErrors(t *testing.T) {
	mk := func() Switch { return crossbar.New(8) }
	if _, err := BatchRun(Config{Traffic: traffic.Uniform{Radix: 8}, Load: 0.1}, mk, nil, nil); err == nil {
		t.Error("empty seed slice: want error")
	}
	bad := Config{Traffic: traffic.Uniform{Radix: 8}, Load: -1}
	if _, err := BatchRun(bad, mk, nil, []uint64{1}); err == nil {
		t.Error("invalid config: want error")
	}
	wide := Config{Traffic: traffic.Uniform{Radix: 8}, Load: 0.1, VCs: 65}
	if _, err := BatchRun(wide, mk, nil, []uint64{1}); err == nil {
		t.Error("65 VCs: want error")
	}
	nilSwitch := func() Switch { return nil }
	if _, err := BatchRun(Config{Traffic: traffic.Uniform{Radix: 8}, Load: 0.1}, nilSwitch, nil, []uint64{1}); err == nil {
		t.Error("factory returning nil: want error")
	}
}
