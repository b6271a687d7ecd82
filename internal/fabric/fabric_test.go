package fabric

import (
	"reflect"
	"testing"

	"github.com/reprolab/hirise/internal/crossbar"
	"github.com/reprolab/hirise/internal/obs"
	"github.com/reprolab/hirise/internal/pool"
	"github.com/reprolab/hirise/internal/sim"
	"github.com/reprolab/hirise/internal/tele"
	"github.com/reprolab/hirise/internal/traffic"
)

// testTopos returns one small instance of every topology, sized so a
// few thousand cycles exercise multi-hop routes of every class.
func testTopos() []struct {
	name string
	topo Topology
} {
	return []struct {
		name string
		topo Topology
	}{
		{"mesh3x3", Mesh{W: 3, H: 3, Conc: 2, Lanes: 1}},
		{"fbfly3x3", FlattenedButterfly{W: 3, H: 3, Conc: 2, Lanes: 1}},
		{"dragonfly5x2", Dragonfly{Groups: 5, GroupSize: 2, GlobalPorts: 2, Conc: 2, Lanes: 1}},
	}
}

func baseConfig(t Topology) Config {
	return Config{
		Topo:    t,
		Traffic: traffic.Uniform{Radix: t.Nodes() * t.Concentration()},
		Load:    0.3,
		Warmup:  500,
		Measure: 4000,
		Seed:    7,
		Check:   true,
	}
}

func TestRunBasics(t *testing.T) {
	for _, tc := range testTopos() {
		for _, r := range []Routing{Minimal, Valiant} {
			t.Run(tc.name+"/"+r.String(), func(t *testing.T) {
				cfg := baseConfig(tc.topo)
				cfg.Routing = r
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Delivered == 0 {
					t.Fatal("nothing delivered")
				}
				if res.AvgHops < 1 {
					t.Fatalf("AvgHops = %v, want >= 1", res.AvgHops)
				}
				if res.DeadFlows != 0 {
					t.Fatalf("DeadFlows = %d without faults", res.DeadFlows)
				}
			})
		}
	}
}

func TestSameSeedReproduces(t *testing.T) {
	for _, tc := range testTopos() {
		cfg := baseConfig(tc.topo)
		cfg.Routing = Valiant
		a, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed diverged:\n%+v\n%+v", tc.name, a, b)
		}
	}
}

// TestLoadSweepWorkerInvariance pins the determinism contract: a sweep
// over pool.Sweep produces identical results at any worker count, under
// minimal routing and under Valiant, whose waypoints are a pure
// function of the point's seed.
func TestLoadSweepWorkerInvariance(t *testing.T) {
	loads := []float64{0.1, 0.4, 0.7, 1.0}
	sweep := func(base Config, workers int) []Result {
		res, err := pool.Sweep(nil, len(loads), workers, base.Seed, func(i int, seed uint64) (Result, error) {
			cfg := base
			cfg.Load, cfg.Seed = loads[i], seed
			return Run(cfg)
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, tc := range testTopos() {
		for _, r := range []Routing{Minimal, Valiant} {
			cfg := baseConfig(tc.topo)
			cfg.Routing, cfg.Measure = r, 2000
			want := sweep(cfg, 1)
			for _, workers := range []int{2, 4, 7} {
				if got := sweep(cfg, workers); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s: workers=%d diverged from serial", tc.name, r, workers)
				}
			}
		}
	}
}

// TestObsDoesNotPerturb pins the nil-safe observability contract: an
// attached observer changes no simulated behaviour, and the fabric's
// counters and per-hop latency histograms actually fill.
func TestObsDoesNotPerturb(t *testing.T) {
	cfg := baseConfig(Mesh{W: 3, H: 3, Conc: 2, Lanes: 1})
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := &obs.Observer{
		Metrics: obs.NewRegistry(),
		Trace:   obs.NewRecorder(1 << 16),
		Tele:    tele.NewSampler(64, 0),
	}
	cfg.Obs = o
	observed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, observed) {
		t.Fatalf("observer perturbed the run:\n%+v\n%+v", plain, observed)
	}
	if got := o.Counter("fabric.packets.delivered").Value(); got == 0 {
		t.Fatal("fabric.packets.delivered counter empty")
	}
	if o.Histogram("fabric.latency.cycles", 4, 4096).Count() == 0 {
		t.Fatal("latency histogram empty")
	}
	// Multi-hop traffic on a 3×3 mesh spans several hop counts; at
	// least the 2-hop histogram must exist and hold samples.
	if o.Histogram("fabric.latency.hops=02", 4, 4096).Count() == 0 {
		t.Fatal("per-hop-count latency histogram empty")
	}
	if len(o.Trace.Events()) == 0 {
		t.Fatal("trace recorder empty")
	}
	if o.Tele.Windows() == 0 {
		t.Fatal("telemetry sampler closed no windows")
	}
}

// TestLoadSweepObservedRecorderOnly runs a parallel observed sweep whose
// observers carry a trace recorder but no metrics registry: the lazily
// created per-hop and per-link sinks must resolve to nothing rather
// than to shared writable state (run it under -race), and observing
// must not perturb the results.
func TestLoadSweepObservedRecorderOnly(t *testing.T) {
	base := baseConfig(Mesh{W: 4, H: 4, Conc: 2, Lanes: 1})
	base.Warmup, base.Measure = 200, 1000
	loads := []float64{0.1, 0.2, 0.3, 0.4}
	recs := make([]*obs.Recorder, len(loads))
	sweep := func(workers int, observe bool) []Result {
		res, err := pool.Sweep(nil, len(loads), workers, base.Seed, func(i int, seed uint64) (Result, error) {
			cfg := base
			cfg.Load, cfg.Seed = loads[i], seed
			if observe {
				recs[i] = obs.NewRecorder(256)
				cfg.Obs = &obs.Observer{Trace: recs[i]}
			}
			return Run(cfg)
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want, got := sweep(1, false), sweep(4, true)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recorder-only observers perturbed the sweep:\n%+v\n%+v", got, want)
	}
	for i, r := range recs {
		if len(r.Events()) == 0 {
			t.Fatalf("point %d recorded no events", i)
		}
	}
}

// TestFlowHashSpreadsSameDestAcrossLanes pins the lane tie-break: it
// hashes the seed-derived flow, not the destination, so packets toward
// one core spread over a multi-lane bundle instead of serializing on a
// single lane.
func TestFlowHashSpreadsSameDestAcrossLanes(t *testing.T) {
	mesh := Mesh{W: 2, H: 1, Conc: 2, Lanes: 4}
	cfg := baseConfig(mesh)
	cfg.Defaults()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	n := newNetwork(cfg, true)
	starts := map[uint16]bool{}
	for i := 0; i < 64; i++ {
		pkt := packet{
			dest:  3, // a core on router 1
			via:   -1,
			phase: 1,
			flow:  uint32(pool.SeedFor(cfg.Seed, 0, uint64(i))),
		}
		r, _ := n.rc(0, &pkt)
		starts[r.start] = true
	}
	if len(starts) < 2 {
		t.Fatalf("64 same-destination flows all start on lane %v", starts)
	}
}

func TestConfigValidation(t *testing.T) {
	good := baseConfig(Mesh{W: 2, H: 2, Conc: 2, Lanes: 1})
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no topology", func(c *Config) { c.Topo = nil }},
		{"no traffic", func(c *Config) { c.Traffic = nil }},
		{"negative load", func(c *Config) { c.Load = -1 }},
		{"zero config", func(c *Config) { *c = Config{} }},
		{"radix mismatch", func(c *Config) {
			radix := c.Topo.Radix() - 1
			c.NewSwitch = func() sim.Switch { return crossbar.New(radix) }
		}},
		{"bad mesh", func(c *Config) { c.Topo = Mesh{W: 0, H: 2, Conc: 2, Lanes: 1} }},
		{"mesh H=0", func(c *Config) { c.Topo = Mesh{W: 3, H: 0, Conc: 2, Lanes: 1} }},
		{"mesh Conc=0", func(c *Config) { c.Topo = Mesh{W: 3, H: 3, Conc: 0, Lanes: 1} }},
		{"mesh W=-1", func(c *Config) { c.Topo = Mesh{W: -1, H: 3, Conc: 2, Lanes: 1} }},
		{"mesh without lanes", func(c *Config) { c.Topo = Mesh{W: 3, H: 3, Conc: 2, Lanes: 0} }},
		{"fbfly without row links", func(c *Config) { c.Topo = FlattenedButterfly{W: 1, H: 3, Conc: 2, Lanes: 1} }},
		{"fbfly H=0", func(c *Config) { c.Topo = FlattenedButterfly{W: 3, H: 0, Conc: 2, Lanes: 1} }},
		{"fbfly Conc=0", func(c *Config) { c.Topo = FlattenedButterfly{W: 3, H: 3, Conc: 0, Lanes: 1} }},
		{"fbfly Lanes=-1", func(c *Config) { c.Topo = FlattenedButterfly{W: 3, H: 3, Conc: 2, Lanes: -1} }},
		{"1x1 with lanes", func(c *Config) { c.Topo = Mesh{W: 1, H: 1, Conc: 2, Lanes: 1} }},
		{"too few VCs for valiant", func(c *Config) {
			c.Topo = Dragonfly{Groups: 3, GroupSize: 2, GlobalPorts: 1, Conc: 2, Lanes: 1}
			c.Routing = Valiant
			c.VCs = 2
		}},
		{"unbalanced dragonfly", func(c *Config) {
			c.Topo = Dragonfly{Groups: 4, GroupSize: 2, GlobalPorts: 2, Conc: 2, Lanes: 1}
		}},
		{"more VCs than a credit mask holds", func(c *Config) { c.VCs = 65 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := good
			tc.mutate(&cfg)
			if _, err := Run(cfg); err == nil {
				t.Fatal("bad config accepted")
			}
		})
	}
	// The degenerate single-switch mesh is explicitly legal.
	cfg := good
	cfg.Topo = Mesh{W: 1, H: 1, Conc: 4, Lanes: 0}
	cfg.Traffic = traffic.Uniform{Radix: 4}
	if _, err := Run(cfg); err != nil {
		t.Fatalf("1x1 mesh rejected: %v", err)
	}
}
