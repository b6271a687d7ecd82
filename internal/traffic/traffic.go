// Package traffic implements the synthetic traffic patterns of the
// paper's evaluation (§V, §VI): uniform random, hotspot, bursty, the
// custom adversarial pattern of §III-B, the inter-layer-only pathological
// corner of §VI-B, and standard permutation patterns used by the
// extension ablations.
//
// Every pattern implements sim.Traffic. Injection is Bernoulli at the
// offered load unless the pattern documents otherwise (Bursty shapes the
// process; fixed-set patterns inject only from their active inputs).
package traffic

import (
	"math"
	"math/bits"

	"github.com/reprolab/hirise/internal/prng"
	"github.com/reprolab/hirise/internal/topo"
)

// Uniform sends each packet to an output drawn uniformly at random
// ("UR" in the paper).
type Uniform struct {
	// Radix is the switch port count.
	Radix int
}

// Next implements sim.Traffic.
func (u Uniform) Next(_ int, _ int64, load float64, rng *prng.Source) (int, bool) {
	if !rng.Bernoulli(load) {
		return 0, false
	}
	return rng.Intn(u.Radix), true
}

// UniformDraw is Uniform.Next at one fixed load, compiled for a cycle
// loop that draws for every port every cycle: no interface call, no
// float compare, and for a power-of-two radix no bounded-draw loop. For
// every rng state it returns exactly what Uniform.Next returns and
// consumes exactly the same draws, so a loop may use either.
//
//   - Acceptance is Bernoulli's Float64() < load as an integer compare
//     on the raw 53-bit draw: (x>>11)·2⁻⁵³ < p ⇔ x>>11 < ⌈p·2⁵³⌉, and
//     both scalings are exact exponent shifts. Loads at or below 0 and
//     at or above 1 draw nothing, as Bernoulli does; a NaN load draws
//     and never accepts, as Bernoulli does.
//   - The destination of a power-of-two radix 2^b is x >> (64-b): that
//     is Lemire's Intn(2^b), whose rejection threshold 2^64 mod 2^b is
//     zero, so it never draws twice.
type UniformDraw struct {
	thresh        uint64 // accept iff Uint64()>>11 < thresh (bernoulli mode)
	radix         int
	shift         uint // power-of-two destination shift
	always, never bool
	pow2          bool
}

// NewUniformDraw compiles u.Next at load.
func NewUniformDraw(u Uniform, load float64) UniformDraw {
	d := UniformDraw{radix: u.Radix}
	switch {
	case load <= 0:
		d.never = true
	case load >= 1:
		d.always = true
	case load == load: // not NaN; a NaN load keeps thresh 0
		d.thresh = uint64(math.Ceil(load * (1 << 53)))
	}
	if u.Radix > 0 && u.Radix&(u.Radix-1) == 0 {
		d.pow2 = true
		d.shift = uint(64 - bits.Len(uint(u.Radix)-1))
	}
	return d
}

// Next draws one cycle's injection for a port: the destination and
// whether the port injects, exactly as Uniform.Next(_, _, load, rng).
func (d *UniformDraw) Next(rng *prng.Source) (int, bool) {
	if d.always || !d.never && rng.Uint64()>>11 < d.thresh {
		if d.pow2 {
			return int(rng.Uint64() >> d.shift), true
		}
		return rng.Intn(d.radix), true
	}
	return 0, false
}

// Hotspot sends every packet from every input to one output (the paper's
// hotspot experiment targets output 63).
type Hotspot struct {
	// Target is the hot output.
	Target int
}

// Next implements sim.Traffic.
func (h Hotspot) Next(_ int, _ int64, load float64, rng *prng.Source) (int, bool) {
	if !rng.Bernoulli(load) {
		return 0, false
	}
	return h.Target, true
}

// Fixed injects only from the inputs present in Flows, each always
// sending to its fixed destination. It expresses the paper's custom
// adversarial patterns; Adversarial returns the §III-B instance.
type Fixed struct {
	// Flows maps source input to destination output.
	Flows map[int]int
}

// Adversarial returns the paper's worked adversarial pattern: inputs
// {3,7,11,15} on layer 1 and input {20} on layer 2 all targeting output
// 63 on layer 4.
func Adversarial() Fixed {
	return Fixed{Flows: map[int]int{3: 63, 7: 63, 11: 63, 15: 63, 20: 63}}
}

// Next implements sim.Traffic.
func (f Fixed) Next(input int, _ int64, load float64, rng *prng.Source) (int, bool) {
	dest, ok := f.Flows[input]
	if !ok || !rng.Bernoulli(load) {
		return 0, false
	}
	return dest, true
}

// Bursty modulates uniform-random traffic with a two-state Markov on/off
// process per input: bursts of geometrically distributed length alternate
// with idle periods sized so the long-run rate equals the offered load.
type Bursty struct {
	// Radix is the switch port count.
	Radix int
	// MeanBurst is the mean on-period length in packets (default 8).
	MeanBurst float64
	on        []bool
}

// NewBursty returns a bursty generator over the given radix with the
// given mean burst length.
func NewBursty(radix int, meanBurst float64) *Bursty {
	if meanBurst < 1 {
		meanBurst = 1
	}
	return &Bursty{Radix: radix, MeanBurst: meanBurst, on: make([]bool, radix)}
}

// Next implements sim.Traffic. During a burst the input injects every
// cycle; the on->off and off->on transition probabilities keep the duty
// cycle equal to load.
func (b *Bursty) Next(input int, _ int64, load float64, rng *prng.Source) (int, bool) {
	if load >= 1 {
		return rng.Intn(b.Radix), true
	}
	if load <= 0 {
		return 0, false
	}
	pOff := 1 / b.MeanBurst
	// Duty cycle d = pOn/(pOn+pOff) must equal load.
	pOn := pOff * load / (1 - load)
	if b.on[input] {
		if rng.Bernoulli(pOff) {
			b.on[input] = false
		}
	} else if rng.Bernoulli(pOn) {
		b.on[input] = true
	}
	if !b.on[input] {
		return 0, false
	}
	return rng.Intn(b.Radix), true
}

// Shift sends input i to output (i+By) mod N — the classic adversarial
// permutation for multi-hop fabrics: with By = N/2 every mesh packet
// crosses the bisection, and with By equal to one dragonfly group every
// packet takes a global link, the worst case minimal routing admits and
// the case Valiant routing exists to balance.
type Shift struct {
	// N is the endpoint count.
	N int
	// By is the shift distance.
	By int
}

// Next implements sim.Traffic.
func (t Shift) Next(input int, _ int64, load float64, rng *prng.Source) (int, bool) {
	if !rng.Bernoulli(load) {
		return 0, false
	}
	return (input + t.By) % t.N, true
}

// Permutation sends input i to a fixed output perm[i]; a contention-free
// pattern on a flat crossbar.
type Permutation struct {
	perm []int
}

// NewRandomPermutation draws a permutation with the given seed.
func NewRandomPermutation(radix int, seed uint64) Permutation {
	return Permutation{perm: prng.New(seed).Perm(radix)}
}

// Next implements sim.Traffic.
func (p Permutation) Next(input int, _ int64, load float64, rng *prng.Source) (int, bool) {
	if !rng.Bernoulli(load) {
		return 0, false
	}
	return p.perm[input], true
}

// BitReverse sends input i to the output whose index is i's bit-reversal,
// a classic adversarial permutation for hierarchical fabrics. Radix must
// be a power of two.
type BitReverse struct {
	// Radix is the switch port count (power of two).
	Radix int
}

// Next implements sim.Traffic.
func (t BitReverse) Next(input int, _ int64, load float64, rng *prng.Source) (int, bool) {
	if !rng.Bernoulli(load) {
		return 0, false
	}
	w := bits.Len(uint(t.Radix)) - 1
	return int(bits.Reverse64(uint64(input)) >> (64 - w)), true
}

// InterLayerWorstCase is the paper's §VI-B pathological corner: every
// packet crosses layers (input on layer l targets the output with the
// same local index on layer (l+1) mod L), so inputs sharing an L2LC under
// input binning request distinct outputs and the channels serialize them.
type InterLayerWorstCase struct {
	// Cfg is the Hi-Rise configuration defining the layer geometry.
	Cfg topo.Config
}

// Next implements sim.Traffic.
func (w InterLayerWorstCase) Next(input int, _ int64, load float64, rng *prng.Source) (int, bool) {
	if !rng.Bernoulli(load) {
		return 0, false
	}
	l := w.Cfg.LayerOf(input)
	dest := w.Cfg.Port((l+1)%w.Cfg.Layers, w.Cfg.LocalIndex(input))
	return dest, true
}

// LayerMix blends intra-layer and global traffic: with probability
// LocalFrac a packet targets a uniform output on the source's own layer,
// otherwise a uniform output anywhere. Sweeping LocalFrac quantifies how
// layer-aware placement and routing relieve the L2LC bottleneck (paper
// §VI-E).
type LayerMix struct {
	// Cfg defines the layer geometry.
	Cfg topo.Config
	// LocalFrac is the probability a packet stays on its layer.
	LocalFrac float64
}

// Next implements sim.Traffic.
func (w LayerMix) Next(input int, _ int64, load float64, rng *prng.Source) (int, bool) {
	if !rng.Bernoulli(load) {
		return 0, false
	}
	if rng.Bernoulli(w.LocalFrac) {
		l := w.Cfg.LayerOf(input)
		return w.Cfg.Port(l, rng.Intn(w.Cfg.PortsPerLayer())), true
	}
	return rng.Intn(w.Cfg.Radix), true
}

// BinAdversarial activates only the inputs that share L2LC channel 0
// under input binning (local index divisible by the channel multiplicity)
// and sends each to a distinct output on the next layer. Fixed binning
// serializes them through one channel while priority-based allocation
// spreads them over all free channels — the §III-A motivation for the
// priority policy.
type BinAdversarial struct {
	// Cfg defines the layer and channel geometry.
	Cfg topo.Config
}

// Next implements sim.Traffic.
func (w BinAdversarial) Next(input int, _ int64, load float64, rng *prng.Source) (int, bool) {
	li := w.Cfg.LocalIndex(input)
	if li%w.Cfg.Channels != 0 || !rng.Bernoulli(load) {
		return 0, false
	}
	l := w.Cfg.LayerOf(input)
	return w.Cfg.Port((l+1)%w.Cfg.Layers, li), true
}

// LayerLocal keeps all traffic within the source's layer, uniformly over
// its local outputs: the opposite corner from InterLayerWorstCase, where
// Hi-Rise behaves like L independent small crossbars.
type LayerLocal struct {
	// Cfg defines the layer geometry.
	Cfg topo.Config
}

// Next implements sim.Traffic.
func (w LayerLocal) Next(input int, _ int64, load float64, rng *prng.Source) (int, bool) {
	if !rng.Bernoulli(load) {
		return 0, false
	}
	l := w.Cfg.LayerOf(input)
	return w.Cfg.Port(l, rng.Intn(w.Cfg.PortsPerLayer())), true
}
