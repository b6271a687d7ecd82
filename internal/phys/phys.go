// Package phys is the circuit-level cost model: silicon area, operating
// frequency, energy per 128-bit transaction, and TSV count for each switch
// family (flat 2D Swizzle-Switch, 3D folded, Hi-Rise).
//
// The paper derives these numbers from SPICE netlists in a commercial
// 32 nm SOI process, verified against Swizzle-Switch silicon. We replace
// SPICE with an analytic wire-geometry model — matrix crossbars are
// wire-dominated, so delay and energy scale with bus lengths and area with
// the wire grid footprint — and calibrate its constants so the paper's
// published 64-radix anchor points (Tables I, IV, V) are reproduced to
// within ~2%. The scaling *shapes* (frequency vs. radix in Fig 9a,
// frequency vs. layer count in Fig 9b, energy vs. radix in Fig 9c,
// area/frequency vs. TSV pitch in Fig 12) then emerge from the geometry
// rather than from per-point fitting.
//
// Calibration anchors (paper -> model):
//
//	2D 64x64:          0.672 mm², 1.69 GHz, 71 pJ          (exact, 1.69, 71.0)
//	3D folded 4-layer: 0.705 mm², 1.58 GHz, 73 pJ, 8192 TSV (0.705, 1.58, 73.0)
//	Hi-Rise c=4:       0.451 mm², 2.24 GHz, 42 pJ, 6144 TSV (0.452, 2.24, 42.0)
//	Hi-Rise c=2:       0.315 mm², 2.46 GHz, 39 pJ, 3072 TSV (0.315, 2.49, 38.7)
//	Hi-Rise c=1:       0.247 mm², 2.64 GHz, 37 pJ, 1536 TSV (0.247, 2.64, 37.0)
//	Hi-Rise CLRG:      0.451 mm², 2.20 GHz, 44 pJ           (0.452, 2.20, 44.0)
package phys

import (
	"math"

	"github.com/reprolab/hirise/internal/topo"
)

// Tech captures the process and 3D-integration technology parameters
// (paper Table II plus the wire geometry the Swizzle-Switch layout uses:
// two stacked metal layers per direction at double pitch).
type Tech struct {
	// WirePitchMM is the effective per-track pitch of the crossbar wire
	// grid in mm (double-pitched for coupling, two metal layers stacked).
	WirePitchMM float64
	// FlitBits is the datapath width; every port is a FlitBits-wide bus.
	FlitBits int
	// TSVPitchUM is the through-silicon-via pitch in µm.
	TSVPitchUM float64
	// TSVCapFF is the TSV feed-through capacitance in fF.
	TSVCapFF float64
	// TSVResOhm is the TSV resistance in ohms.
	TSVResOhm float64
	// SupplyV is the supply voltage.
	SupplyV float64
}

// Default32nm returns the paper's evaluation technology: 32 nm SOI,
// 128-bit flits, 0.8 µm / 0.2 fF / 1.5 Ω TSVs (Table II), 1 V, 27 C.
func Default32nm() Tech {
	return Tech{
		WirePitchMM: 1.0007e-4, // ~100 nm effective track pitch
		FlitBits:    128,
		TSVPitchUM:  0.8,
		TSVCapFF:    0.2,
		TSVResOhm:   1.5,
		SupplyV:     1.0,
	}
}

// Cost is the implementation cost of one switch configuration, matching
// the columns of the paper's Tables I/IV/V (throughput comes from the
// network simulator, not from phys).
type Cost struct {
	AreaMM2  float64 // total silicon area across all layers
	FreqGHz  float64 // operating frequency
	EnergyPJ float64 // energy per 128-bit transaction
	TSVs     int     // vertical paths × bus width
	Feasible bool    // false for schemes the paper deems unimplementable
}

// CycleNS returns the cycle time in nanoseconds.
func (c Cost) CycleNS() float64 { return 1 / c.FreqGHz }

// Model constants, calibrated against the anchors in the package comment.
// Units: ns, mm, pJ.
const (
	// Flat 2D Swizzle-Switch: delay = fix2D + lin2D·len + rc2D·len²,
	// where len is the total input-bus + output-bus length 2·N·W·pitch.
	fix2D = 0.126568 // precharge + sense-amp + latch overhead, ns
	lin2D = 0.267859 // repeated-wire delay, ns/mm
	rc2D  = 0.009779 // distributed RC, ns/mm²

	// 2D energy = eFix2D + ePerMM2D·len.
	eFix2D   = 10.0 // clocking + arbitration logic, pJ
	ePerMM2D = 37.2 // wire + cross-point switching, pJ/mm

	// Hi-Rise: each of the two clock phases (paper Fig 8) evaluates one
	// block; phase delay = linHR·len + rcHR·len² with len the block's
	// input+output bus length; plus a fixed per-phase overhead and a TSV
	// transit term.
	fixPhaseHR = 0.07     // per-phase precharge/sense overhead, ns
	linHR      = 0.263613 // ns/mm
	rcHR       = 0.0363   // ns/mm²
	tsvDelayNS = 0.014466 // per layer of vertical distance at 0.8 µm pitch
	tsvDelayK  = 0.8      // delay grows with (pitch/0.8)^tsvDelayK

	// CLRG adds the class-counter multiplexers to the inter-layer
	// cross-point evaluation path (paper §IV-B1); the counters also burn
	// a little energy. No area cost: the logic fits under the wire grid.
	clrgDelayNS  = 0.008
	clrgEnergyPJ = 2.0

	// Hi-Rise energy = ePerMMHR·(1 + pathLenMM).
	ePerMMHR = 21.7 // pJ and pJ/mm (fixed part equals the slope after calibration)

	// 3D folded: the 2D switch plus TSV loading on every output bus.
	foldDelayPerLayer = 0.013634 // ns per layer boundary at 0.8 µm pitch
	foldEnergyPJ      = 2.0      // TSV switching overhead, pJ

	// TSV silicon area: each vertical path costs gamma·pitch² of
	// punched-through silicon including routing; clustering the L2LC TSVs
	// amortizes keep-out zones, increasingly so at larger pitches
	// (paper §VI-C), hence the sqrt(0.8/pitch) derating.
	tsvGammaHiRise = 5.4
	tsvGammaFolded = 6.3 // folded TSVs are scattered per-output; no clustering
)

// trackMM returns the physical extent of an n-port bus bundle in mm.
func (t Tech) trackMM(ports int) float64 {
	return float64(ports) * float64(t.FlitBits) * t.WirePitchMM
}

// tsvAreaMM2 returns the silicon area consumed by n vertical paths of
// FlitBits TSVs each.
func (t Tech) tsvAreaMM2(paths int, gamma float64) float64 {
	pitchMM := t.TSVPitchUM * 1e-3
	derate := math.Sqrt(0.8 / t.TSVPitchUM)
	return float64(paths*t.FlitBits) * gamma * derate * pitchMM * pitchMM
}

// tsvDelay returns the vertical transit delay over dist layer boundaries.
func (t Tech) tsvDelay(dist int) float64 {
	return tsvDelayNS * float64(dist) * math.Pow(t.TSVPitchUM/0.8, tsvDelayK)
}

// tsvEnergyPJ returns the switching energy of one FlitBits-wide vertical
// hop; capacitance scales with TSV size.
func (t Tech) tsvEnergyPJ() float64 {
	capPF := float64(t.FlitBits) * t.TSVCapFF * 1e-3 * (t.TSVPitchUM / 0.8)
	return 0.5 * capPF * t.SupplyV * t.SupplyV
}

// Flat2D returns the implementation cost of an N×N 2D Swizzle-Switch.
func Flat2D(radix int, t Tech) Cost {
	side := t.trackMM(radix)
	length := 2 * side
	return Cost{
		AreaMM2:  side * side,
		FreqGHz:  1 / (fix2D + lin2D*length + rc2D*length*length),
		EnergyPJ: eFix2D + ePerMM2D*length,
		TSVs:     0,
		Feasible: true,
	}
}

// Folded returns the cost of the baseline 3D design: the 2D switch folded
// over the given number of layers ([N/L × N] per layer, paper §II-B).
// Folding keeps the wire and device capacitance of the 2D switch and adds
// TSV loading on every output bus, so it is slower than 2D.
func Folded(radix, layers int, t Tech) Cost {
	base := Flat2D(radix, t)
	base.FreqGHz = 1 / (base.CycleNS() + foldDelayPerLayer*float64(layers-1)*
		math.Pow(t.TSVPitchUM/0.8, tsvDelayK))
	base.EnergyPJ += foldEnergyPJ + t.tsvEnergyPJ()
	base.TSVs = radix * t.FlitBits
	base.AreaMM2 += t.tsvAreaMM2(radix, tsvGammaFolded)
	return base
}

// Breakdown itemizes a Hi-Rise configuration's cycle time, silicon
// area, and per-transaction energy by component, for the architecture
// analysis (where does the cycle go, what does a channel cost).
type Breakdown struct {
	// Cycle time components, ns.
	Phase1NS   float64 // local-switch evaluation (paper Fig 8 phase 1)
	Phase2NS   float64 // inter-layer sub-block evaluation (phase 2)
	TSVNS      float64 // vertical transit
	OverheadNS float64 // precharge/sense-amp overhead of both phases
	SchemeNS   float64 // CLRG counter-mux delay (zero for L-2-L LRG)

	// Area components, mm² (totals across all layers).
	LocalAreaMM2 float64
	InterAreaMM2 float64
	TSVAreaMM2   float64

	// Energy components, pJ per 128-bit transaction.
	WireEnergyPJ   float64
	FixedEnergyPJ  float64
	TSVEnergyPJ    float64
	SchemeEnergyPJ float64
}

// CycleNS returns the total cycle time.
func (b Breakdown) CycleNS() float64 {
	return b.Phase1NS + b.Phase2NS + b.TSVNS + b.OverheadNS + b.SchemeNS
}

// AreaMM2 returns the total silicon area.
func (b Breakdown) AreaMM2() float64 {
	return b.LocalAreaMM2 + b.InterAreaMM2 + b.TSVAreaMM2
}

// EnergyPJ returns the total energy per transaction.
func (b Breakdown) EnergyPJ() float64 {
	return b.WireEnergyPJ + b.FixedEnergyPJ + b.TSVEnergyPJ + b.SchemeEnergyPJ
}

// HiRiseBreakdown itemizes the cost model for one configuration.
// Non-divisible radix/layer combinations (used by the Fig 9b sweeps)
// round ports-per-layer up.
func HiRiseBreakdown(cfg topo.Config, t Tech) Breakdown {
	ports := (cfg.Radix + cfg.Layers - 1) / cfg.Layers
	l2lcPerLayer := cfg.Channels * (cfg.Layers - 1)
	subIn := l2lcPerLayer + 1

	lenLocal := t.trackMM(ports + ports + l2lcPerLayer) // inputs + all local-switch outputs
	lenIL := t.trackMM(ports + subIn)                   // sub-block span + contender buses
	paths := cfg.Layers * (cfg.Layers - 1) * cfg.Channels

	b := Breakdown{
		Phase1NS:   linHR*lenLocal + rcHR*lenLocal*lenLocal,
		Phase2NS:   linHR*lenIL + rcHR*lenIL*lenIL,
		TSVNS:      t.tsvDelay(cfg.Layers - 1),
		OverheadNS: 2 * fixPhaseHR,

		LocalAreaMM2: float64(cfg.Layers) * t.trackMM(ports+l2lcPerLayer) * t.trackMM(ports),
		InterAreaMM2: float64(cfg.Layers) * t.trackMM(ports) * t.trackMM(subIn),
		TSVAreaMM2:   t.tsvAreaMM2(paths, tsvGammaHiRise),

		WireEnergyPJ:  ePerMMHR * (lenLocal + lenIL),
		FixedEnergyPJ: ePerMMHR,
		TSVEnergyPJ:   t.tsvEnergyPJ(),
	}
	if cfg.Scheme == topo.CLRG || cfg.Scheme == topo.WLRG {
		b.SchemeNS = clrgDelayNS
		b.SchemeEnergyPJ = clrgEnergyPJ
	}
	return b
}

// HiRise returns the implementation cost of a Hi-Rise switch with the
// given configuration. The arbitration scheme affects delay and energy:
// CLRG adds its counter muxes; WLRG is reported with CLRG-equivalent
// timing but flagged infeasible, as in the paper, which omits it from
// Table V ("its implementation is infeasible").
func HiRise(cfg topo.Config, t Tech) Cost {
	b := HiRiseBreakdown(cfg, t)
	return Cost{
		AreaMM2:  b.AreaMM2(),
		FreqGHz:  1 / b.CycleNS(),
		EnergyPJ: b.EnergyPJ(),
		TSVs:     cfg.Layers * (cfg.Layers - 1) * cfg.Channels * t.FlitBits,
		Feasible: cfg.Scheme != topo.WLRG,
	}
}

// Of returns the cost of any simulator configuration: Layers <= 1 selects
// the flat 2D switch, otherwise Hi-Rise.
func Of(cfg topo.Config, t Tech) Cost {
	if cfg.Layers <= 1 {
		return Flat2D(cfg.Radix, t)
	}
	return HiRise(cfg, t)
}

// Tbps converts an accepted flit rate (flits/cycle across the whole
// switch) into terabits per second at the switch's frequency.
func Tbps(flitsPerCycle float64, c Cost, t Tech) float64 {
	return flitsPerCycle * float64(t.FlitBits) * c.FreqGHz / 1e3
}
