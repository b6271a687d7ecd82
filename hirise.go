// Package hirise is a from-scratch reproduction of "Hi-Rise: A High-Radix
// Switch for 3D Integration with Single-cycle Arbitration" (Jeloka, Das,
// Dreslinski, Mudge, Blaauw — MICRO 2014).
//
// It provides cycle-accurate behavioural models of the Hi-Rise 3D
// hierarchical switch and its baselines (the flat 2D Swizzle-Switch and
// the 3D folded switch), the paper's arbitration schemes (LRG, baseline
// layer-to-layer LRG, Weighted LRG, and the contributed Class-based LRG),
// a calibrated 32 nm physical cost model (area, frequency, energy, TSVs),
// a flit-level network simulator with the paper's traffic patterns, and a
// trace-driven 64-core system model — everything needed to regenerate the
// paper's tables and figures (see cmd/hirise-bench).
//
// This root package is the public facade: it re-exports the stable
// surface of the internal packages so applications import a single path.
//
//	cfg := hirise.DefaultConfig()        // 64-radix, 4-layer, 4-channel, CLRG
//	sw, err := hirise.New(cfg)           // behavioural switch model
//	cost := hirise.CostOf(cfg, hirise.Tech32nm()) // area/frequency/energy
//	res, err := hirise.Simulate(hirise.SimConfig{
//	    Switch:  sw,
//	    Traffic: hirise.UniformTraffic{Radix: cfg.Radix},
//	    Load:    0.1,
//	})
package hirise

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/reprolab/hirise/internal/cache"
	"github.com/reprolab/hirise/internal/core"
	"github.com/reprolab/hirise/internal/crossbar"
	"github.com/reprolab/hirise/internal/experiments"
	"github.com/reprolab/hirise/internal/fabric"
	"github.com/reprolab/hirise/internal/fault"
	"github.com/reprolab/hirise/internal/manycore"
	"github.com/reprolab/hirise/internal/obs"
	"github.com/reprolab/hirise/internal/phys"
	"github.com/reprolab/hirise/internal/sched"
	"github.com/reprolab/hirise/internal/sim"
	"github.com/reprolab/hirise/internal/tele"
	"github.com/reprolab/hirise/internal/topo"
	"github.com/reprolab/hirise/internal/trace"
	"github.com/reprolab/hirise/internal/traffic"
	"github.com/reprolab/hirise/internal/version"
)

// ModelVersion fingerprints the behavioural and cost models. It is
// folded into every content-addressed result-store key (internal/store,
// cmd/hirise-served, the CLIs' -store flag), so bumping it invalidates
// all cached results at once. Bump it on any change that alters
// simulation output; refactors that keep outputs byte-identical must
// not bump it.
const ModelVersion = version.Model

// Configuration types.
type (
	// Config describes a Hi-Rise switch: radix, layers, channel
	// multiplicity, allocation policy, and arbitration scheme.
	Config = topo.Config
	// AllocPolicy selects the L2LC channel allocation policy.
	AllocPolicy = topo.AllocPolicy
	// Scheme selects the arbitration scheme.
	Scheme = topo.Scheme
	// Grant is one connection formed by an arbitration cycle.
	Grant = topo.Grant
)

// Arbitration schemes (paper §III-B).
const (
	// LRG is flat least-recently-granted (2D and folded switches).
	LRG = topo.LRG
	// L2LLRG is the baseline hierarchical layer-to-layer LRG.
	L2LLRG = topo.L2LLRG
	// WLRG is weighted LRG (fair but hardware-infeasible).
	WLRG = topo.WLRG
	// CLRG is the paper's class-based LRG.
	CLRG = topo.CLRG
	// ISLIP1 is the single-iteration iSLIP *analog* used by the §VII
	// related-work ablation: round-robin pointers on the Hi-Rise
	// two-stage structure, NOT the real VOQ algorithm (that is ISLIP).
	ISLIP1 = topo.ISLIP1
	// ISLIP is canonical accept-gated multi-iteration iSLIP on the VOQ
	// crossbar mode (SimulateVOQ); rejected by New.
	ISLIP = topo.ISLIP
	// Wavefront is the rotating-priority wavefront allocator on the VOQ
	// crossbar mode; rejected by New.
	Wavefront = topo.Wavefront
	// MWM is the exact maximum-weight-matching reference scheduler on
	// the VOQ crossbar mode; rejected by New.
	MWM = topo.MWM
)

// Channel allocation policies (paper §III-A).
const (
	// InputBinned fixes each input's channel by its local index.
	InputBinned = topo.InputBinned
	// OutputBinned fixes the channel by the destination's local index.
	OutputBinned = topo.OutputBinned
	// PriorityBased lets every input contend for every channel.
	PriorityBased = topo.PriorityBased
)

// DefaultConfig returns the paper's headline configuration: 64-radix,
// 4-layer, 4-channel, input-binned, CLRG with 3 classes.
func DefaultConfig() Config { return topo.Default64() }

// Switch models.
type (
	// Switch is the Hi-Rise hierarchical switch model.
	Switch = core.Switch
	// Crossbar is the flat 2D Swizzle-Switch model (also used, folded,
	// as the naive 3D baseline).
	Crossbar = crossbar.Switch
)

// New returns a Hi-Rise switch for the configuration.
func New(cfg Config) (*Switch, error) { return core.New(cfg) }

// New2D returns the 2D Swizzle-Switch baseline.
func New2D(radix int) *Crossbar { return crossbar.New(radix) }

// NewFolded returns the 3D folded baseline (cycle-identical to 2D;
// physical cost differs).
func NewFolded(radix, layers int) *Crossbar { return crossbar.NewFolded(radix, layers) }

// Physical cost modeling.
type (
	// Tech holds process and TSV technology parameters.
	Tech = phys.Tech
	// Cost is a switch's area, frequency, energy, and TSV count.
	Cost = phys.Cost
)

// Tech32nm returns the paper's 32 nm SOI evaluation technology.
func Tech32nm() Tech { return phys.Default32nm() }

// CostOf returns the physical cost of a configuration (Layers <= 1 is the
// flat 2D switch).
func CostOf(cfg Config, t Tech) Cost { return phys.Of(cfg, t) }

// FoldedCost returns the folded baseline's physical cost.
func FoldedCost(radix, layers int, t Tech) Cost { return phys.Folded(radix, layers, t) }

// Tbps converts an accepted flit rate (flits/cycle across the switch)
// into terabits per second at the given cost's clock.
func Tbps(flitsPerCycle float64, c Cost, t Tech) float64 { return phys.Tbps(flitsPerCycle, c, t) }

// Simulation.
type (
	// SimConfig parameterizes a network simulation run.
	SimConfig = sim.Config
	// SimResult is a run's measurements.
	SimResult = sim.Result
	// SimSwitch is the interface the simulator drives (implemented by
	// Switch and Crossbar).
	SimSwitch = sim.Switch
	// TrafficPattern produces offered traffic for the simulator.
	TrafficPattern = sim.Traffic
)

// Simulate runs one network simulation.
func Simulate(cfg SimConfig) (SimResult, error) { return sim.Run(cfg) }

// SaturationThroughput measures the fully-backlogged accepted flit rate.
func SaturationThroughput(cfg SimConfig) (float64, error) { return sim.SaturationThroughput(cfg) }

// LoadSweep simulates the base configuration at each offered load on at
// most workers concurrent runs (0 selects all CPUs, 1 forces serial) and
// returns the results in load order. Each point runs a fresh switch from
// newSwitch under a seed derived from (base.Seed, point index), so the
// results are identical at every worker count. newTraffic, when non-nil,
// gives each point its own traffic pattern; it is required for stateful
// patterns such as BurstyTraffic. base.Obs is ignored: points run
// concurrently and an Observer's sinks are single-writer.
func LoadSweep(base SimConfig, newSwitch func() SimSwitch, newTraffic func() TrafficPattern, loads []float64, workers int) ([]SimResult, error) {
	return sim.LoadSweep(base, newSwitch, newTraffic, loads, workers)
}

// VOQ switch mode and the input-queued scheduler zoo (internal/sched):
// per-(input, output) virtual output queues on a flat crossbar with an
// internal speedup S, scheduled per phase by canonical multi-iteration
// iSLIP, a wavefront allocator, or the exact MWM reference. See the
// sched-shootout experiment and DESIGN.md's "VOQ mode" section.
type (
	// Scheduler computes one crossbar matching per VOQ scheduling phase.
	Scheduler = sched.Scheduler
	// VOQSimConfig parameterizes a VOQ-mode simulation run.
	VOQSimConfig = sim.VOQConfig
)

// NewISLIPScheduler returns canonical iSLIP over n ports running iters
// grant/accept iterations per phase (pointers advance only on accepted
// first-iteration grants).
func NewISLIPScheduler(n, iters int) Scheduler { return sched.NewISLIP(n, iters) }

// NewWavefrontScheduler returns a rotating-priority wavefront allocator
// over n ports.
func NewWavefrontScheduler(n int) Scheduler { return sched.NewWavefront(n) }

// NewMWMScheduler returns the exact maximum-weight-matching reference
// scheduler (queue-length weights, O(n³) Hungarian) over n ports.
func NewMWMScheduler(n int) Scheduler { return sched.NewMWM(n) }

// NewScheduler builds the scheduler a VOQ-only Scheme names (ISLIP,
// Wavefront, MWM) over n ports; iters applies to ISLIP only (0 selects
// 2 iterations, the shootout's default).
func NewScheduler(s Scheme, n, iters int) (Scheduler, error) {
	switch s {
	case topo.ISLIP:
		if iters <= 0 {
			iters = 2
		}
		return sched.NewISLIP(n, iters), nil
	case topo.Wavefront:
		return sched.NewWavefront(n), nil
	case topo.MWM:
		return sched.NewMWM(n), nil
	}
	return nil, fmt.Errorf("hirise: scheme %v is not a VOQ scheduler (see New for hierarchical schemes)", s)
}

// SimulateVOQ runs one VOQ-mode simulation.
func SimulateVOQ(cfg VOQSimConfig) (SimResult, error) { return sim.RunVOQ(cfg) }

// Fault injection & resilience (internal/fault): deterministic seeded
// fault plans attached via SimConfig.Faults, with the self-checking
// invariant layer enabled by SimConfig.Check.
type (
	// Fault is one scheduled resource fault (permanent or transient).
	Fault = fault.Fault
	// FaultKind selects the faulted resource class.
	FaultKind = fault.Kind
	// FaultPlan is an immutable, validated fault schedule.
	FaultPlan = fault.Plan
	// FaultSpec derives a deterministic fault plan from a seed and a
	// campaign name.
	FaultSpec = fault.Spec
	// FaultStats reports a run's fault-plane activity (SimResult.Fault).
	FaultStats = sim.FaultStats
)

// Fault kinds.
const (
	// FaultChannel faults a layer-to-layer channel (lossy when
	// transient, fail-stop when permanent).
	FaultChannel = fault.Channel
	// FaultInput fail-stops an input port.
	FaultInput = fault.Input
	// FaultOutput fail-stops an output port.
	FaultOutput = fault.Output
	// FaultCrosspoint fail-stops one crossbar cross-point.
	FaultCrosspoint = fault.Crosspoint
)

// NewFaultPlan validates and orders the given faults into a plan.
func NewFaultPlan(faults ...Fault) (*FaultPlan, error) { return fault.NewPlan(faults...) }

// Observability (internal/obs): deterministic switch-internals metrics,
// flit-lifecycle tracing, and arbitration fairness auditing. Attach an
// Observer via SimConfig.Obs or SystemConfig.Obs; a nil Observer (the
// default) keeps every hook allocation-free.
type (
	// Observer bundles the optional sinks a simulation writes to.
	Observer = obs.Observer
	// MetricsRegistry accumulates named counters, gauges, and
	// fixed-bucket histograms.
	MetricsRegistry = obs.Registry
	// TraceRecorder captures flit lifecycle events keyed by simulated
	// cycle, serializable as JSONL or Chrome trace-event JSON.
	TraceRecorder = obs.Recorder
	// TraceEvent is one recorded lifecycle event.
	TraceEvent = obs.Event
	// FairnessAudit accumulates per-(input, class) grant/denial and
	// starvation-streak counters inside the arbiters.
	FairnessAudit = obs.FairnessAudit
	// FairnessReport is the aggregated view of a FairnessAudit.
	FairnessReport = obs.FairnessReport
	// ProfileConfig names host-side profiling outputs (pprof,
	// runtime/trace, runtime/metrics) for CLI runs.
	ProfileConfig = obs.ProfileConfig
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewTraceRecorder returns a bounded lifecycle-event recorder;
// maxEvents <= 0 selects the default cap.
func NewTraceRecorder(maxEvents int) *TraceRecorder { return obs.NewRecorder(maxEvents) }

// NewFairnessAudit returns an audit over the given primary-input and
// priority-class counts (classes is 1 for class-less schemes).
func NewFairnessAudit(inputs, classes int) *FairnessAudit {
	return obs.NewFairnessAudit(inputs, classes)
}

// WriteTraceJSONL serializes per-run recorders, in run order, as JSONL.
func WriteTraceJSONL(w io.Writer, runs []*TraceRecorder) error { return obs.WriteJSONL(w, runs) }

// WriteChromeTrace serializes per-run recorders as one Chrome
// trace-event JSON document loadable in Perfetto (ui.perfetto.dev).
func WriteChromeTrace(w io.Writer, runs []*TraceRecorder) error { return obs.WriteChromeTrace(w, runs) }

// WriteMetricsJSON serializes per-run registries, in run order, as one
// JSON array.
func WriteMetricsJSON(w io.Writer, runs []*MetricsRegistry) error {
	return obs.WriteRegistriesJSON(w, runs)
}

// ValidateChromeTrace checks Chrome trace-event JSON produced by
// WriteChromeTrace and returns its event count.
func ValidateChromeTrace(data []byte) (int, error) { return obs.ValidateChromeTrace(data) }

// ValidateTraceJSONL checks a JSONL trace stream produced by
// WriteTraceJSONL and returns its event count.
func ValidateTraceJSONL(r io.Reader) (int, error) { return obs.ValidateJSONL(r) }

// Time-series telemetry (internal/tele): fixed-cadence windowed counter
// and gauge tracks sampled inside the simulator hot loop, with
// power-of-two decimation bounding memory for arbitrarily long runs.
// Attach a sampler via Observer.Tele; a nil sampler keeps the per-cycle
// hook to a single pointer compare.
type (
	// TelemetrySampler collects windowed samples from registered series.
	TelemetrySampler = tele.Sampler
	// TelemetrySeries is an exported snapshot of one sampled track.
	TelemetrySeries = tele.Series
)

// NewTelemetrySampler returns a sampler closing a window every
// windowCycles cycles and storing at most maxWindows samples per series
// (zero or negative arguments select the package defaults; the series
// decimate pairwise once the bound is hit).
func NewTelemetrySampler(windowCycles int64, maxWindows int) *TelemetrySampler {
	return tele.NewSampler(windowCycles, maxWindows)
}

// WriteTelemetryNDJSON serializes per-run samplers, in run order, as
// NDJSON (one line per run and series).
func WriteTelemetryNDJSON(w io.Writer, runs []*TelemetrySampler) error {
	return tele.WriteNDJSON(w, runs)
}

// ValidateTelemetryNDJSON checks a telemetry NDJSON stream produced by
// WriteTelemetryNDJSON and returns its total sample count.
func ValidateTelemetryNDJSON(r io.Reader) (int, error) { return tele.ValidateNDJSON(r) }

// WriteChromeTraceWithCounters is WriteChromeTrace plus per-window
// counter tracks ("C" events) from the per-run telemetry samplers;
// either slice may be nil or shorter than the other.
func WriteChromeTraceWithCounters(w io.Writer, runs []*TraceRecorder, samps []*TelemetrySampler) error {
	return obs.WriteChromeTraceWithCounters(w, runs, samps)
}

// SteadyStateMSER applies the Marginal Standard Error Rule to a sampled
// series: it returns the suggested truncation point (in samples) and
// whether the series reached steady state. See SimConfig.ConvergeStop
// for the in-simulator use.
func SteadyStateMSER(values []float64) (cut int, converged bool) { return tele.MSER(values) }

// StartProfiles starts the configured host-side profilers; the returned
// stop function (call exactly once) finishes them.
func StartProfiles(pc ProfileConfig) (func() error, error) { return obs.StartProfiles(pc) }

// Heartbeat writes progress() to w every interval until the returned
// stop function is called. An interval <= 0 makes it a no-op.
func Heartbeat(w io.Writer, interval time.Duration, progress func() string) (stop func()) {
	return obs.Heartbeat(w, interval, progress)
}

// Traffic patterns (paper §V, §VI).
type (
	// UniformTraffic is uniform random traffic.
	UniformTraffic = traffic.Uniform
	// HotspotTraffic directs every input at one output.
	HotspotTraffic = traffic.Hotspot
	// FixedTraffic injects fixed input->output flows.
	FixedTraffic = traffic.Fixed
	// BurstyTraffic modulates uniform traffic with on/off bursts.
	BurstyTraffic = traffic.Bursty
	// PermutationTraffic sends each input to a fixed distinct output.
	PermutationTraffic = traffic.Permutation
	// ShiftTraffic sends input i to output (i+By) mod N — the classic
	// adversarial permutation for multi-hop fabrics.
	ShiftTraffic = traffic.Shift
)

// AdversarialTraffic returns the paper's §III-B worked adversarial
// pattern.
func AdversarialTraffic() FixedTraffic { return traffic.Adversarial() }

// NewBurstyTraffic returns bursty traffic with the given mean burst
// length.
func NewBurstyTraffic(radix int, meanBurst float64) *BurstyTraffic {
	return traffic.NewBursty(radix, meanBurst)
}

// NewPermutationTraffic returns a random fixed permutation pattern.
func NewPermutationTraffic(radix int, seed uint64) PermutationTraffic {
	return traffic.NewRandomPermutation(radix, seed)
}

// Many-core system model (paper §VI-D).
type (
	// SystemConfig holds the Table III system parameters.
	SystemConfig = manycore.Config
	// System is a 64-core system instance.
	System = manycore.System
	// SystemResult reports IPC and network statistics.
	SystemResult = manycore.Result
	// Benchmark characterizes one application's memory behaviour.
	Benchmark = trace.Benchmark
	// Mix is one of Table VI's multi-programmed workloads.
	Mix = trace.Mix
	// CacheConfig describes a cache geometry for the address-driven
	// system mode (SystemConfig.AddressMode).
	CacheConfig = cache.Config
)

// L1DCache and L2BankCache return the paper's Table III cache
// geometries.
func L1DCache() CacheConfig { return cache.L1D() }

// L2BankCache returns one shared-L2 bank's geometry.
func L2BankCache() CacheConfig { return cache.L2Bank() }

// NewSystem builds a many-core system over the given switch with the
// given per-core benchmark assignment.
func NewSystem(cfg SystemConfig, sw SimSwitch, benches []Benchmark) (*System, error) {
	return manycore.New(cfg, sw, benches)
}

// Benchmarks returns the application catalog behind Table VI.
func Benchmarks() []Benchmark { return trace.Catalog() }

// Mixes returns the paper's eight Table VI workload mixes.
func Mixes() []Mix { return trace.TableVIMixes() }

// Multi-switch fabric (internal/fabric): a first-class interconnect
// simulator where every router is a full sim.Switch wired by a pluggable
// topology (mesh, flattened butterfly, dragonfly) with credit-based
// link-level flow control, minimal or Valiant routing, VC-class deadlock
// avoidance, a static link/router fail-set plane, and an always-on
// deadlock watchdog. A 1-node fabric reproduces Simulate byte for byte.
type (
	// FabricConfig parameterizes one fabric simulation run.
	FabricConfig = fabric.Config
	// FabricResult is a fabric run's measurements.
	FabricResult = fabric.Result
	// FabricTopology wires a fabric's routers; FabricMesh,
	// FabricFlattenedButterfly, and FabricDragonfly are the instances.
	FabricTopology = fabric.Topology
	// FabricMesh is a W×H 2D mesh with XY dimension-ordered routing.
	FabricMesh = fabric.Mesh
	// FabricFlattenedButterfly has direct row and column links.
	FabricFlattenedButterfly = fabric.FlattenedButterfly
	// FabricDragonfly is a two-level group topology with global links.
	FabricDragonfly = fabric.Dragonfly
	// FabricRouting selects minimal or Valiant route computation.
	FabricRouting = fabric.Routing
	// FabricFaultSpec derives a deterministic static fail-set from a seed.
	FabricFaultSpec = fabric.FaultSpec
	// FabricFaultSet is a built, immutable fail-set (FabricConfig.Faults).
	FabricFaultSet = fabric.FaultSet
)

// Fabric routing policies.
const (
	// FabricMinimal routes every packet along a shortest path.
	FabricMinimal = fabric.Minimal
	// FabricValiant routes via a random intermediate waypoint.
	FabricValiant = fabric.Valiant
)

// ParseFabricRouting maps the CLI spelling (min | valiant) to a routing.
func ParseFabricRouting(s string) (FabricRouting, error) { return fabric.ParseRouting(s) }

// SimulateFabric runs one multi-switch fabric simulation.
func SimulateFabric(cfg FabricConfig) (FabricResult, error) { return fabric.Run(cfg) }

// Experiments.
type (
	// ExperimentTable is a rendered experiment result.
	ExperimentTable = experiments.Table
	// ExperimentOpts tunes experiment fidelity.
	ExperimentOpts = experiments.Opts
	// ExperimentCacheKey is the part of ExperimentOpts that determines
	// an experiment's output — what result caches hash, excluding
	// scheduling knobs like Workers.
	ExperimentCacheKey = experiments.CacheKey
)

// Experiments lists the available experiment IDs (one per paper table and
// figure, plus ablations).
func Experiments() []string { return experiments.IDs() }

// RunExperiment regenerates one paper artifact, or returns the first
// error one of its simulations met. It cannot be cancelled; use
// RunExperimentCtx for that.
func RunExperiment(id string, opts ExperimentOpts) (*ExperimentTable, error) {
	return experiments.RunCtx(context.TODO(), id, opts)
}

// RunExperimentCtx is RunExperiment under a cancellable context: the
// sweep stops within one simulation point of ctx's cancellation and
// returns an error wrapping ctx.Err(), with no table.
func RunExperimentCtx(ctx context.Context, id string, opts ExperimentOpts) (*ExperimentTable, error) {
	return experiments.RunCtx(ctx, id, opts)
}

// DefaultExperimentOpts returns publication fidelity; QuickExperimentOpts
// a fast smoke-run fidelity.
func DefaultExperimentOpts() ExperimentOpts { return experiments.DefaultOpts() }

// QuickExperimentOpts returns reduced-fidelity options for smoke runs.
func QuickExperimentOpts() ExperimentOpts { return experiments.QuickOpts() }
