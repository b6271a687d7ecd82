// Package spec describes one single-switch load sweep, the computation
// behind both hirise-sim (filled from flags) and a hirise-served
// loadsweep job (filled from a POST /jobs body). It owns the name
// tables, the shared defaults, every shape check, the switch and traffic
// factories, and the lo:hi:step expansion, so the two front ends accept
// the same configurations and neither can build a switch or a pattern
// that panics.
package spec

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/reprolab/hirise/internal/core"
	"github.com/reprolab/hirise/internal/crossbar"
	"github.com/reprolab/hirise/internal/phys"
	"github.com/reprolab/hirise/internal/sim"
	"github.com/reprolab/hirise/internal/topo"
	"github.com/reprolab/hirise/internal/traffic"
)

const (
	// MaxRadix bounds the radix. The paper's sweeps reach 128; a
	// radix-n switch's LRG state is 2n² words, so without a bound one
	// request could exhaust memory.
	MaxRadix = 1024
	// MaxLoads bounds the points of one sweep.
	MaxLoads = 1000
)

// Spec is one single-switch load sweep, less its loads. Names are
// lowercase keys of the tables below. Interlayer, layerlocal and binadv
// traffic address outputs through the Layers (and Channels) map on
// every design, the 2D crossbar included.
type Spec struct {
	Design, Scheme, Alloc, Traffic   string
	Radix, Layers, Channels, Classes int
	Target                           int     // hotspot output
	Burst                            float64 // bursty mean burst length
	Seed                             uint64  // simulation and permutation seed
	VCs, Flits                       int
	Warmup, Measure                  int64
}

// Default holds the defaults both front ends share: hirise-sim's flag
// defaults, and what an omitted POST /jobs field means.
var Default = Spec{
	Design: "hirise", Scheme: "clrg", Alloc: "input", Traffic: "uniform",
	Radix: 64, Layers: 4, Channels: 4, Classes: 3, Burst: 8,
	Seed: 1, VCs: 4, Flits: 4, Warmup: 10000, Measure: 50000,
}

var schemes = map[string]topo.Scheme{"l2l": topo.L2LLRG, "lrg": topo.L2LLRG, "wlrg": topo.WLRG, "clrg": topo.CLRG}

var allocs = map[string]topo.AllocPolicy{"input": topo.InputBinned, "output": topo.OutputBinned, "priority": topo.PriorityBased}

// designs maps a design to its shape check (nil: any radix) and its
// switch constructor.
var designs = map[string]struct {
	check func(topo.Config) error
	build func(topo.Config) sim.Switch
}{
	"2d": {nil, func(c topo.Config) sim.Switch { return crossbar.New(c.Radix) }},
	"folded": {func(c topo.Config) error {
		return need(c.Layers >= 1 && c.Radix%c.Layers == 0, "cannot fold radix %d over %d layers", c.Radix, c.Layers)
	}, func(c topo.Config) sim.Switch { return crossbar.NewFolded(c.Radix, c.Layers) }},
	"hirise": {core.Validate, func(c topo.Config) sim.Switch {
		sw, err := core.New(c)
		if err != nil {
			panic(err) // checked by core.Validate
		}
		return sw
	}},
}

// patterns maps a traffic name to the check that its outputs exist on
// the switch (nil: any radix) and its generator constructor.
var patterns = map[string]struct {
	check func(Spec) error
	build func(Spec, topo.Config) sim.Traffic
}{
	"uniform": {nil, func(s Spec, _ topo.Config) sim.Traffic { return traffic.Uniform{Radix: s.Radix} }},
	"hotspot": {func(s Spec) error {
		return need(s.Target >= 0 && s.Target < s.Radix,
			"hotspot target %d outside the radix-%d switch's outputs 0..%d", s.Target, s.Radix, s.Radix-1)
	}, func(s Spec, _ topo.Config) sim.Traffic { return traffic.Hotspot{Target: s.Target} }},
	"adversarial": {func(s Spec) error {
		return need(s.Radix >= 64, "adversarial traffic drives ports 3..63, radix %d", s.Radix)
	}, func(Spec, topo.Config) sim.Traffic { return traffic.Adversarial() }},
	"bursty":      {nil, func(s Spec, _ topo.Config) sim.Traffic { return traffic.NewBursty(s.Radix, s.Burst) }},
	"permutation": {nil, func(s Spec, _ topo.Config) sim.Traffic { return traffic.NewRandomPermutation(s.Radix, s.Seed) }},
	"bitrev": {func(s Spec) error {
		return need(bits.OnesCount(uint(s.Radix)) == 1, "bitrev traffic needs a power-of-two radix, have %d", s.Radix)
	}, func(s Spec, _ topo.Config) sim.Traffic { return traffic.BitReverse{Radix: s.Radix} }},
	"interlayer": {layerMap, func(_ Spec, c topo.Config) sim.Traffic { return traffic.InterLayerWorstCase{Cfg: c} }},
	"layerlocal": {layerMap, func(_ Spec, c topo.Config) sim.Traffic { return traffic.LayerLocal{Cfg: c} }},
	"binadv":     {layerMap, func(_ Spec, c topo.Config) sim.Traffic { return traffic.BinAdversarial{Cfg: c} }},
}

// layerMap checks the layer and channel map the layer-relative
// patterns address outputs through.
func layerMap(s Spec) error {
	return need(s.Layers >= 1 && s.Radix%s.Layers == 0 && s.Channels >= 1,
		"%s traffic needs radix %d split evenly over layers %d, and channels %d >= 1", s.Traffic, s.Radix, s.Layers, s.Channels)
}

// need returns nil when ok holds, and otherwise the error format
// describes.
func need(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf("spec: "+format, args...)
}

// config assembles the topo.Config the spec describes.
func (s Spec) config() (topo.Config, error) {
	scheme, schemeOK := schemes[s.Scheme]
	alloc, allocOK := allocs[s.Alloc]
	err := need(schemeOK, "unknown scheme %q", s.Scheme)
	if err == nil {
		err = need(allocOK, "unknown allocation %q", s.Alloc)
	}
	return topo.Config{Radix: s.Radix, Layers: s.Layers, Channels: s.Channels, Classes: s.Classes,
		Scheme: scheme, Alloc: alloc}, err
}

func checkRadix(radix int) error {
	return need(radix >= 1 && radix <= MaxRadix, "radix %d outside 1..%d (MaxRadix)", radix, MaxRadix)
}

// SwitchFactory checks the switch half of the spec and returns a
// factory of fresh switches.
func (s Spec) SwitchFactory() (func() sim.Switch, error) {
	cfg, err := s.config()
	if err != nil {
		return nil, err
	}
	d, ok := designs[s.Design]
	if err = need(ok, "unknown design %q", s.Design); err == nil && d.check != nil {
		err = d.check(cfg)
	}
	if err != nil {
		return nil, err
	}
	if err := checkRadix(s.Radix); err != nil {
		return nil, err
	}
	return func() sim.Switch { return d.build(cfg) }, nil
}

// TrafficFactory checks the traffic half of the spec and returns a
// factory of fresh generators. It reads no design, so the VOQ crossbar
// uses it too.
func (s Spec) TrafficFactory() (func() sim.Traffic, error) {
	p, ok := patterns[s.Traffic]
	err := need(ok, "unknown traffic %q", s.Traffic)
	if err == nil {
		err = checkRadix(s.Radix)
	}
	if err == nil && p.check != nil {
		err = p.check(s)
	}
	if err != nil {
		return nil, err
	}
	cfg := topo.Config{Radix: s.Radix, Layers: s.Layers, Channels: s.Channels}
	return func() sim.Traffic { return p.build(s, cfg) }, nil
}

// Factories checks the whole spec and returns its switch and traffic
// factories.
func (s Spec) Factories() (func() sim.Switch, func() sim.Traffic, error) {
	mkSwitch, err := s.SwitchFactory()
	if err != nil {
		return nil, nil, err
	}
	mkTraffic, err := s.TrafficFactory()
	if err != nil {
		return nil, nil, err
	}
	if s.Flits < 0 || s.Warmup < 0 || s.Measure < 0 {
		return nil, nil, fmt.Errorf("spec: negative flits %d, warmup %d or measure %d", s.Flits, s.Warmup, s.Measure)
	}
	return mkSwitch, mkTraffic, nil
}

// Cost returns the physical cost of a checked spec's switch and the
// configuration it is costed as: a 2D crossbar as one flat layer.
func (s Spec) Cost(t phys.Tech) (topo.Config, phys.Cost) {
	cfg, _ := s.config()
	switch s.Design {
	case "2d":
		cfg.Layers = 1
	case "folded":
		return cfg, phys.Folded(cfg.Radix, cfg.Layers, t)
	}
	return cfg, phys.Of(cfg, t)
}

// SimConfig returns the simulator configuration every point shares.
func (s Spec) SimConfig() sim.Config {
	return sim.Config{PacketFlits: s.Flits, VCs: s.VCs, Warmup: s.Warmup, Measure: s.Measure, Seed: s.Seed}
}

// CheckLoads checks a sweep's offered loads: at most MaxLoads of them,
// each finite and non-negative.
func CheckLoads(loads []float64) error {
	if len(loads) > MaxLoads {
		return fmt.Errorf("spec: %d loads, more than MaxLoads %d", len(loads), MaxLoads)
	}
	for _, l := range loads {
		if !(l >= 0) || math.IsInf(l, 1) {
			return fmt.Errorf("spec: load %v is not a finite non-negative rate", l)
		}
	}
	return nil
}

// Sweep expands the inclusive range lo:hi:step into its loads. It keeps
// the lo += step accumulation (with a 1e-12 slack on hi) that every
// stored key and printed table was made with, and bounds the point count
// before allocating.
func Sweep(lo, hi, step float64) ([]float64, error) {
	switch {
	case lo < 0 || !(step > 0) || hi < lo:
		return nil, fmt.Errorf("spec: sweep %v:%v:%v needs lo >= 0, step > 0 and hi >= lo", lo, hi, step)
	case math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(hi, 1) || math.IsInf(step, 1):
		return nil, fmt.Errorf("spec: sweep %v:%v:%v needs finite values", lo, hi, step)
	case (hi-lo)/step >= MaxLoads:
		return nil, fmt.Errorf("spec: sweep %v:%v:%v has more than MaxLoads %d points", lo, hi, step, MaxLoads)
	}
	loads := make([]float64, 0, int((hi-lo)/step)+2)
	for l := lo; l <= hi+1e-12; l += step {
		if l+step == l || len(loads) == MaxLoads {
			return nil, fmt.Errorf("spec: sweep %v:%v:%v does not advance past load %v within MaxLoads %d points", lo, hi, step, l, MaxLoads)
		}
		loads = append(loads, l)
	}
	return loads, nil
}
