// Command hirise-sim runs a single network simulation of one switch
// configuration under one traffic pattern and prints its measurements —
// the exploratory companion to cmd/hirise-bench's fixed experiments.
//
// Examples:
//
//	hirise-sim -design hirise -channels 4 -scheme clrg -traffic uniform -load 0.15
//	hirise-sim -design 2d -traffic hotspot -load 0.002 -perinput
//	hirise-sim -design hirise -channels 1 -scheme l2l -traffic adversarial -load 1
//
// VOQ crossbar mode (flat virtual-output-queued switch driven by the
// input-queued scheduler zoo, no 3D structure or physical model):
//
//	hirise-sim -design voq -sched islip -iters 2 -traffic uniform -load 1
//	hirise-sim -design voq -sched wavefront -speedup 2 -sweep 0.1:1.0:0.1
//	hirise-sim -design voq -sched mwm -radix 16 -measure 5000 -load 0.9
//
// Multi-switch fabric mode (every router a full switch wired by a
// pluggable topology with credit-based link flow control and VC-class
// deadlock avoidance):
//
//	hirise-sim -design fabric -topo mesh -nodes 16 -conc 4 -load 0.2
//	hirise-sim -design fabric -topo dragonfly -groups 9 -groupsize 4 -globalports 2 -routing valiant -traffic shift -load 1 -check
//	hirise-sim -design fabric -topo fbfly -mesh-w 4 -mesh-h 4 -sweep 0.1:1.0:0.1 -parallel 4
//	hirise-sim -design fabric -topo mesh -lanes 2 -fail-links 4 -fail-routers 1 -check
//
// Fault injection (hirise design only; deterministic in the fault seed):
//
//	hirise-sim -fail-channels 8 -load 1 -check
//	hirise-sim -fault-rate 0.0005 -fault-repair 64 -sweep 0.05:0.3:0.05 -check
//
// Observability (all output to side files or stderr; stdout is
// byte-identical to an unobserved run):
//
//	hirise-sim -traffic hotspot -load 0.05 -trace-chrome trace.json -fairness fairness.txt
//	hirise-sim -sweep 0.01:0.3:0.01 -metrics metrics.json -heartbeat 10s
//	hirise-sim -sweep 0.01:0.5:0.005 -cpuprofile cpu.pprof -runmetrics rt.json
//
// Time-series telemetry (windowed counter/gauge tracks from the hot
// loop; -tele-chrome counter tracks load in ui.perfetto.dev alongside
// -trace-chrome slices) and MSER steady-state early exit:
//
//	hirise-sim -load 0.2 -tele-ndjson tele.ndjson -tele-window 256
//	hirise-sim -sweep 0.05:0.3:0.05 -tele-chrome counters.json -trace-chrome trace.json
//	hirise-sim -load 0.1 -measure 500000 -converge-stop
//
// -store DIR caches each run's stdout in a content-addressed result
// store keyed by the full configuration, the loads, and the model
// version, so repeating a run replays it byte-identically without
// simulating. Observability sinks record switch internals, so runs with
// any obs flag bypass the store.
//
// SIGINT/SIGTERM cancels the run within one sweep point (or a few
// thousand cycles of a single run) and removes partially-written
// profile side files before exiting non-zero.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"

	"github.com/reprolab/hirise"
	"github.com/reprolab/hirise/internal/store"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// writeFile creates path and runs fn over it, failing loudly on any
// error — observability output that silently vanishes is worse than
// none.
func writeFile(path string, fn func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fail("%v", err)
	}
	if err := fn(f); err != nil {
		f.Close()
		fail("writing %s: %v", path, err)
	}
	if err := f.Close(); err != nil {
		fail("writing %s: %v", path, err)
	}
}

func main() {
	var (
		design   = flag.String("design", "hirise", "switch design: 2d | folded | hirise | voq | fabric")
		radix    = flag.Int("radix", 64, "switch radix")
		layers   = flag.Int("layers", 4, "stacked layers (folded, hirise)")
		channels = flag.Int("channels", 4, "L2LC multiplicity (hirise)")
		scheme   = flag.String("scheme", "clrg", "arbitration: l2l | wlrg | clrg (hirise)")
		alloc    = flag.String("alloc", "input", "channel allocation: input | output | priority")
		classes  = flag.Int("classes", 3, "CLRG class count")
		pattern  = flag.String("traffic", "uniform", "uniform | hotspot | adversarial | bursty | permutation | bitrev | interlayer | layerlocal | binadv")
		target   = flag.Int("target", 63, "hotspot target output")
		burst    = flag.Float64("burst", 8, "mean burst length for bursty traffic")
		load     = flag.Float64("load", 0.1, "offered load, packets/cycle/input")
		warmup   = flag.Int64("warmup", 10000, "warmup cycles")
		measure  = flag.Int64("measure", 50000, "measurement cycles")
		seed     = flag.Uint64("seed", 1, "random seed")
		vcs      = flag.Int("vcs", 4, "virtual channels per input")
		flits    = flag.Int("flits", 4, "flits per packet")
		perInput = flag.Bool("perinput", false, "print per-input latency and throughput")

		// VOQ crossbar mode (-design voq): input-queued scheduler zoo.
		schedName = flag.String("sched", "islip", "VOQ scheduler: islip | wavefront | mwm (mwm is O(n^3) per cycle: keep -radix or the windows small)")
		iters     = flag.Int("iters", 2, "iSLIP iterations per scheduling phase (-sched islip)")
		speedupS  = flag.Int("speedup", 1, "internal crossbar speedup S: scheduling phases per cell time")
		voqCap    = flag.Int("voqcap", 32, "per-(input,output) VOQ capacity in cells")
		outqCap   = flag.Int("outqcap", 16, "output queue capacity in cells (binds when speedup > 1)")

		// Multi-switch fabric mode (-design fabric): every router a full
		// switch wired by a pluggable topology (fabric.go).
		topoName    = flag.String("topo", "mesh", "fabric topology: mesh | fbfly | dragonfly (-design fabric)")
		nodes       = flag.Int("nodes", 0, "fabric router count; square grids take W=H=sqrt(N), dragonfly geometry must agree (0 = use the shape flags)")
		meshW       = flag.Int("mesh-w", 4, "fabric grid width (mesh, fbfly)")
		meshH       = flag.Int("mesh-h", 4, "fabric grid height (mesh, fbfly)")
		conc        = flag.Int("conc", 2, "fabric cores per router")
		lanes       = flag.Int("lanes", 1, "fabric parallel lanes per logical link")
		groups      = flag.Int("groups", 9, "dragonfly group count")
		groupSize   = flag.Int("groupsize", 4, "dragonfly routers per group")
		globalPorts = flag.Int("globalports", 2, "dragonfly global link bundles per router (groupsize*globalports must equal groups-1)")
		routing     = flag.String("routing", "min", "fabric routing: min | valiant")
		failLinks   = flag.Int("fail-links", 0, "fabric: permanently fail this many link lanes, chosen deterministically from the fault seed (at most lanes-1 per bundle, so routing reroutes around every one)")
		failRouters = flag.Int("fail-routers", 0, "fabric: fail-stop this many routers (flows they sever retire as dead flows)")

		sweep    = flag.String("sweep", "", "sweep loads lo:hi:step (packets/cycle/input) instead of a single run")
		workers  = flag.Int("parallel", 0, "concurrent sweep points (0 = all CPUs, 1 = serial); results are identical at any value")
		storeDir = flag.String("store", "",
			"cache stdout in this content-addressed result store; repeated runs replay byte-identically (bypassed when any obs flag is set)")

		// Fault plane: deterministic seeded fault injection (hirise only).
		faultSeed = flag.Uint64("fault-seed", 0, "fault-plane seed (0 = use -seed)")
		failCh    = flag.Int("fail-channels", 0, "permanently fail this many L2LCs, chosen deterministically from the fault seed")
		faultRate = flag.Float64("fault-rate", 0, "per-channel transient outage probability per cycle (lossy links; sources retransmit)")
		faultRep  = flag.Int64("fault-repair", 0, "mean transient outage length in cycles (0 = default)")
		check     = flag.Bool("check", false, "run the self-checking invariant layer (failed-resource grants and flit conservation)")

		// Observability: switch-internals sinks, written to side files.
		traceJSONL  = flag.String("trace-jsonl", "", "write flit lifecycle events as JSON Lines to this file")
		traceChrome = flag.String("trace-chrome", "", "write flit lifecycle events as Chrome trace-event JSON (load in ui.perfetto.dev) to this file")
		traceMax    = flag.Int("trace-max", 0, "max recorded events per run (0 = default cap); excess is counted, not recorded")
		metricsOut  = flag.String("metrics", "", "write the metrics registry as JSON to this file (sweeps: one array entry per point)")
		fairnessOut = flag.String("fairness", "", "write the arbitration fairness report to this file (sweeps: one section per point)")

		// Time-series telemetry: windowed counter/gauge tracks sampled in
		// the simulator hot loop (internal/tele).
		teleNDJSON = flag.String("tele-ndjson", "", "write windowed telemetry time series as NDJSON to this file (one line per run and series)")
		teleChrome = flag.String("tele-chrome", "", "write telemetry counter tracks as Chrome trace-event JSON (load in ui.perfetto.dev) to this file")
		teleWindow = flag.Int64("tele-window", 0, "telemetry window length in cycles (0 = 256)")
		teleMax    = flag.Int("tele-max", 0, "max stored telemetry windows per series; older windows decimate pairwise (0 = 512)")
		convStop   = flag.Bool("converge-stop", false,
			"stop each run early once the MSER steady-state detector converges on the delivery-rate series (deterministic; changes results, so stored keys differ)")

		// Host-side profiling of the simulator process itself.
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
		exectrace  = flag.String("exectrace", "", "write a runtime execution trace (go tool trace) to this file")
		runmetrics = flag.String("runmetrics", "", "write a runtime/metrics JSON snapshot to this file at exit")
		heartbeat  = flag.Duration("heartbeat", 0, "print progress to stderr at this interval (0 = off)")
	)
	flag.Parse()

	// Shape checks the simulators would otherwise hit as a panic. The
	// fabric design takes its size from the topology flags and checks
	// -target against its core count itself (fabric.go).
	if strings.ToLower(*design) != "fabric" {
		if *radix < 1 {
			fail("-radix %d: need at least 1 port", *radix)
		}
		if strings.ToLower(*pattern) == "hotspot" && (*target < 0 || *target >= *radix) {
			fail("-target %d outside the radix-%d switch's outputs 0..%d", *target, *radix, *radix-1)
		}
	}

	// SIGINT/SIGTERM cancels ctx; the simulator polls it between cycles
	// and the sweep pool skips pending points.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	stopProfiles, err := hirise.StartProfiles(hirise.ProfileConfig{
		CPUProfile: *cpuprofile, MemProfile: *memprofile,
		ExecTrace: *exectrace, RuntimeMetrics: *runmetrics,
	})
	if err != nil {
		fail("%v", err)
	}

	cfg := hirise.Config{
		Radix: *radix, Layers: *layers, Channels: *channels, Classes: *classes,
	}
	switch strings.ToLower(*scheme) {
	case "l2l", "lrg":
		cfg.Scheme = hirise.L2LLRG
	case "wlrg":
		cfg.Scheme = hirise.WLRG
	case "clrg":
		cfg.Scheme = hirise.CLRG
	default:
		fail("unknown scheme %q", *scheme)
	}
	switch strings.ToLower(*alloc) {
	case "input":
		cfg.Alloc = hirise.InputBinned
	case "output":
		cfg.Alloc = hirise.OutputBinned
	case "priority":
		cfg.Alloc = hirise.PriorityBased
	default:
		fail("unknown allocation %q", *alloc)
	}

	// Normalize the design and compute its physical cost once so that
	// makeSwitch is a pure factory, safe to call from concurrent sweep
	// points.
	tech := hirise.Tech32nm()
	var cost hirise.Cost
	switch strings.ToLower(*design) {
	case "2d":
		cfg.Layers = 1
		cost = hirise.CostOf(cfg, tech)
	case "folded":
		cost = hirise.FoldedCost(*radix, *layers, tech)
	case "hirise":
		if _, err := hirise.New(cfg); err != nil {
			fail("%v", err)
		}
		cost = hirise.CostOf(cfg, tech)
	case "voq":
		// Flat VOQ crossbar (voq.go): no hierarchical structure and no
		// physical model; cost stays unused. The scheduler flags are
		// validated below once the voqCLI is assembled.
	case "fabric":
		// Multi-switch fabric (fabric.go): topology and routing flags are
		// validated below once the fabricCLI is assembled; no physical
		// model (the fabric studies interconnects, not one die stack).
	default:
		fail("unknown design %q", *design)
	}
	isVOQ := strings.ToLower(*design) == "voq"
	isFabric := strings.ToLower(*design) == "fabric"
	if (*failLinks > 0 || *failRouters > 0) && !isFabric {
		fail("-fail-links/-fail-routers need -design fabric (use -fail-channels for the hirise fault plane)")
	}
	// Fault plane: build the plan once (it is immutable and shared by
	// concurrent sweep points). Only the Hi-Rise design has L2LCs to
	// fault. With no fault flags set, faultPlan stays nil and every code
	// path below — including stdout — is identical to a fault-free build.
	var faultPlan *hirise.FaultPlan
	if *failCh > 0 || *faultRate > 0 {
		if strings.ToLower(*design) != "hirise" {
			fail("fault injection needs -design hirise (the %s design has no L2LCs)", *design)
		}
		fseed := *faultSeed
		if fseed == 0 {
			fseed = *seed
		}
		plan, err := hirise.FaultSpec{
			Seed: fseed, Campaign: "hirise-sim", Cfg: cfg,
			FailChannels:  *failCh,
			TransientRate: *faultRate, RepairMean: *faultRep,
			Horizon: *warmup + *measure,
		}.Build()
		if err != nil {
			fail("%v", err)
		}
		faultPlan = plan
	}

	makeSwitch := func() hirise.SimSwitch {
		switch strings.ToLower(*design) {
		case "2d":
			return hirise.New2D(*radix)
		case "folded":
			return hirise.NewFolded(*radix, *layers)
		default:
			s, err := hirise.New(cfg)
			if err != nil {
				panic(err) // validated above
			}
			return s
		}
	}
	makeTraffic := func() hirise.TrafficPattern {
		switch strings.ToLower(*pattern) {
		case "uniform":
			return hirise.UniformTraffic{Radix: *radix}
		case "hotspot":
			return hirise.HotspotTraffic{Target: *target}
		case "adversarial":
			return hirise.AdversarialTraffic()
		case "bursty":
			return hirise.NewBurstyTraffic(*radix, *burst)
		case "permutation":
			return hirise.NewPermutationTraffic(*radix, *seed)
		case "bitrev":
			return hirise.BitReverseTraffic(*radix)
		case "interlayer":
			return hirise.InterLayerTraffic(cfg)
		case "layerlocal":
			return hirise.LayerLocalTraffic(cfg)
		case "binadv":
			return hirise.BinAdversarialTraffic(cfg)
		default:
			fail("unknown traffic %q", *pattern)
			return nil
		}
	}

	// Observability sinks: a nil observer (no obs flag set) keeps the
	// simulator on its allocation-free disabled path. The fairness audit
	// is class-aware only where classes exist: a Hi-Rise CLRG switch.
	wantTrace := *traceJSONL != "" || *traceChrome != ""
	wantTele := *teleNDJSON != "" || *teleChrome != ""
	auditClasses := 1
	if strings.ToLower(*design) == "hirise" && cfg.Scheme == hirise.CLRG {
		auditClasses = *classes
	}
	newObserver := func() *hirise.Observer {
		o := &hirise.Observer{}
		if *metricsOut != "" {
			o.Metrics = hirise.NewMetricsRegistry()
		}
		if wantTrace {
			o.Trace = hirise.NewTraceRecorder(*traceMax)
		}
		if *fairnessOut != "" {
			o.Fairness = hirise.NewFairnessAudit(*radix, auditClasses)
		}
		if wantTele {
			o.Tele = hirise.NewTelemetrySampler(*teleWindow, *teleMax)
		}
		if o.Metrics == nil && o.Trace == nil && o.Fairness == nil && o.Tele == nil {
			return nil
		}
		return o
	}
	// writeObsOutputs merges per-run sinks in run order — the order that
	// keeps every artifact byte-identical at any -parallel value — and
	// writes the requested side files. labels annotate fairness sections
	// for sweeps (nil for a single run).
	writeObsOutputs := func(observers []*hirise.Observer, labels []float64) {
		recs := make([]*hirise.TraceRecorder, len(observers))
		regs := make([]*hirise.MetricsRegistry, len(observers))
		samps := make([]*hirise.TelemetrySampler, len(observers))
		for i, o := range observers {
			if o != nil {
				recs[i], regs[i], samps[i] = o.Trace, o.Metrics, o.Tele
			}
		}
		if *traceJSONL != "" {
			writeFile(*traceJSONL, func(w io.Writer) error { return hirise.WriteTraceJSONL(w, recs) })
		}
		if *traceChrome != "" {
			// With telemetry on, the flit slices and the counter tracks
			// land in one document; without, the output is byte-identical
			// to plain WriteChromeTrace.
			writeFile(*traceChrome, func(w io.Writer) error {
				return hirise.WriteChromeTraceWithCounters(w, recs, samps)
			})
		}
		if *teleNDJSON != "" {
			writeFile(*teleNDJSON, func(w io.Writer) error { return hirise.WriteTelemetryNDJSON(w, samps) })
		}
		if *teleChrome != "" {
			writeFile(*teleChrome, func(w io.Writer) error {
				return hirise.WriteChromeTraceWithCounters(w, nil, samps)
			})
		}
		if *metricsOut != "" {
			writeFile(*metricsOut, func(w io.Writer) error {
				if labels == nil && len(regs) == 1 {
					return regs[0].WriteJSON(w)
				}
				return hirise.WriteMetricsJSON(w, regs)
			})
		}
		if *fairnessOut != "" {
			writeFile(*fairnessOut, func(w io.Writer) error {
				for i, o := range observers {
					if o == nil || o.Fairness == nil {
						continue
					}
					if labels != nil {
						if _, err := fmt.Fprintf(w, "== load %.4f ==\n", labels[i]); err != nil {
							return err
						}
					}
					if err := o.Fairness.Report().WriteText(w); err != nil {
						return err
					}
				}
				return nil
			})
		}
	}

	if !isFabric {
		makeTraffic() // reject unknown patterns before anything runs
		// (the fabric builds traffic over its cores and validates its own
		// pattern set in fabricCLI.base)
	}

	var loads []float64
	if *sweep != "" {
		lo, hi, step, err := parseSweep(*sweep)
		if err != nil {
			fail("%v", err)
		}
		for load := lo; load <= hi+1e-12; load += step {
			loads = append(loads, load)
		}
	}

	// runSweep simulates every load and prints the sweep table to w.
	runSweep := func(ctx context.Context, w io.Writer) error {
		observers := make([]*hirise.Observer, len(loads))
		var obsFor func(i int) *hirise.Observer
		if newObserver() != nil {
			for i := range observers {
				observers[i] = newObserver()
			}
			obsFor = func(i int) *hirise.Observer { return observers[i] }
		}
		var started atomic.Int64
		countedMakeSwitch := func() hirise.SimSwitch {
			started.Add(1)
			return makeSwitch()
		}
		stopHB := hirise.Heartbeat(os.Stderr, *heartbeat, func() string {
			return fmt.Sprintf("%d/%d sweep points started", started.Load(), len(loads))
		})
		results, err := hirise.LoadSweepObserved(hirise.SimConfig{
			PacketFlits: *flits, VCs: *vcs,
			Warmup: *warmup, Measure: *measure, Seed: *seed,
			Faults: faultPlan, Check: *check,
			ConvergeStop: *convStop,
			Ctx:          ctx,
		}, countedMakeSwitch, makeTraffic, loads, *workers, obsFor)
		stopHB()
		if err != nil {
			return err
		}
		if obsFor != nil {
			writeObsOutputs(observers, loads)
		}
		fmt.Fprintf(w, "%-14s %-12s %-12s %-10s %-8s %s",
			"load(pkt/cyc)", "load(pkt/ns)", "tput(pkt/ns)", "lat(ns)", "p99(cyc)", "state")
		if faultPlan != nil {
			fmt.Fprintf(w, "      faults(drop/retx/lost)")
		}
		fmt.Fprintln(w)
		for i, res := range results {
			state := "ok"
			if res.Saturated() {
				state = "saturated"
			}
			fmt.Fprintf(w, "%-14.4f %-12.4f %-12.2f %-10.2f %-8.0f %s",
				loads[i], loads[i]*cost.FreqGHz, res.AcceptedPackets*cost.FreqGHz,
				res.AvgLatency*cost.CycleNS(), res.P99Latency, state)
			if fs := res.Fault; fs != nil {
				fmt.Fprintf(w, "%*s %d/%d/%d", 9-len(state), "",
					fs.FlitsDropped, fs.Retransmissions, fs.RetryExhausted+fs.DeadFlows)
			}
			fmt.Fprintln(w)
		}
		return nil
	}

	// runSingle simulates one load and prints the report to w.
	runSingle := func(ctx context.Context, w io.Writer) error {
		sw := makeSwitch()
		traf := makeTraffic()
		observer := newObserver()

		stopHB := hirise.Heartbeat(os.Stderr, *heartbeat, func() string { return "simulating" })
		res, err := hirise.Simulate(hirise.SimConfig{
			Switch: sw, Traffic: traf, Load: *load,
			PacketFlits: *flits, VCs: *vcs,
			Warmup: *warmup, Measure: *measure, Seed: *seed,
			Faults: faultPlan, Check: *check,
			ConvergeStop: *convStop,
			Obs:          observer, Ctx: ctx,
		})
		stopHB()
		if err != nil {
			return err
		}
		if observer != nil {
			writeObsOutputs([]*hirise.Observer{observer}, nil)
		}

		fmt.Fprintf(w, "design      %s (%s)\n", *design, cfg)
		fmt.Fprintf(w, "physical    %.3f mm2, %.2f GHz, %.0f pJ/transaction, %d TSVs\n",
			cost.AreaMM2, cost.FreqGHz, cost.EnergyPJ, cost.TSVs)
		fmt.Fprintf(w, "traffic     %s @ %.4f packets/cycle/input (%.4f packets/ns/input)\n",
			*pattern, *load, *load*cost.FreqGHz)
		fmt.Fprintf(w, "accepted    %.3f packets/cycle = %.2f packets/ns = %.2f Tbps\n",
			res.AcceptedPackets, res.AcceptedPackets*cost.FreqGHz,
			hirise.Tbps(res.AcceptedFlits, cost, tech))
		fmt.Fprintf(w, "latency     avg %.1f cycles (%.2f ns), p50 %.0f, p99 %.0f\n",
			res.AvgLatency, res.AvgLatency*cost.CycleNS(), res.P50Latency, res.P99Latency)
		fmt.Fprintf(w, "packets     injected %d, delivered %d, dropped-at-source %d%s\n",
			res.Injected, res.Delivered, res.DroppedInjections,
			map[bool]string{true: "  (saturated)", false: ""}[res.Saturated()])
		// The steady-state verdict exists only when a sampler ran; the
		// line is gated the same way so an untelemetered run's stdout is
		// byte-identical to pre-telemetry builds.
		if (observer != nil && observer.Tele != nil) || *convStop {
			fmt.Fprintf(w, "steady      converged=%v suggested-warmup=%d cycles\n",
				res.Converged, res.WarmupCycles)
		}
		if fs := res.Fault; fs != nil {
			fmt.Fprintf(w, "faults      plan %d, applied %d fail / %d repair; flits dropped %d, retransmitted %d, retry-exhausted %d, dead flows %d\n",
				faultPlan.Len(), fs.FailEvents, fs.RepairEvents,
				fs.FlitsDropped, fs.Retransmissions, fs.RetryExhausted, fs.DeadFlows)
		}
		if *perInput {
			fmt.Fprintln(w, "\ninput  latency(cycles)  packets/cycle")
			for i := range res.PerInputLatency {
				fmt.Fprintf(w, "%5d  %15.1f  %13.5f\n", i, res.PerInputLatency[i], res.PerInputPackets[i])
			}
		}
		return nil
	}

	vc := voqCLI{
		radix: *radix, schedName: strings.ToLower(*schedName), iters: *iters,
		speedup: *speedupS, voqCap: *voqCap, outQCap: *outqCap,
		load: *load, loads: loads, warmup: *warmup, measure: *measure,
		convergeStop: *convStop,
		seed:         *seed, workers: *workers, perInput: *perInput, heartbeat: *heartbeat,
		pattern: strings.ToLower(*pattern), target: *target, burst: *burst,
		makeTraffic: makeTraffic, newObserver: newObserver, writeObs: writeObsOutputs,
	}
	fc := fabricCLI{
		topoName: strings.ToLower(*topoName), nodes: *nodes,
		meshW: *meshW, meshH: *meshH, conc: *conc, lanes: *lanes,
		groups: *groups, groupSize: *groupSize, globalPorts: *globalPorts,
		routingName: strings.ToLower(*routing), vcs: *vcs, flits: *flits,
		load: *load, loads: loads, warmup: *warmup, measure: *measure,
		seed: *seed, workers: *workers, check: *check, heartbeat: *heartbeat,
		faultSeed: *faultSeed, failLinks: *failLinks, failRouters: *failRouters,
		pattern: strings.ToLower(*pattern), target: *target,
		newObserver: newObserver, writeObs: writeObsOutputs,
	}
	runOutput := runSingle
	if *sweep != "" {
		runOutput = runSweep
	}
	if isVOQ {
		if _, serr := vc.newSched(); serr != nil {
			fail("%v", serr)
		}
		runOutput = vc.runSingle
		if *sweep != "" {
			runOutput = vc.runSweep
		}
	}
	if isFabric {
		// Reject bad topology/routing/traffic flags before the store path.
		if _, ferr := fc.base(ctx); ferr != nil {
			fail("%v", ferr)
		}
		runOutput = fc.runSingle
		if *sweep != "" {
			runOutput = fc.runSweep
		}
	}

	obsActive := newObserver() != nil
	switch {
	case *storeDir != "" && obsActive:
		fmt.Fprintln(os.Stderr, "note: observability flags record switch internals, bypassing -store")
		fallthrough
	case *storeDir == "":
		err = runOutput(ctx, os.Stdout)
	default:
		var st *store.Store
		if st, err = store.Open(*storeDir, store.Options{}); err != nil {
			fail("%v", err)
		}
		var key store.Key
		var kerr error
		switch {
		case isFabric:
			key, kerr = fc.storeKey(st)
		case isVOQ:
			key, kerr = vc.storeKey(st)
		default:
			key, kerr = st.KeyOf("sim", struct {
				Design, Scheme, Alloc, Traffic   string
				Radix, Layers, Channels, Classes int
				Target, VCs, Flits               int
				Burst, Load                      float64
				Loads                            []float64
				PerInput                         bool
				Warmup, Measure                  int64
				Seed                             uint64
				FaultSeed                        uint64
				FailChannels                     int
				FaultRate                        float64
				FaultRepair                      int64
				Check                            bool
				// omitempty keeps keys hashed before the flag existed
				// valid for full-length runs.
				ConvergeStop bool `json:"converge_stop,omitempty"`
			}{
				strings.ToLower(*design), strings.ToLower(*scheme), strings.ToLower(*alloc), strings.ToLower(*pattern),
				*radix, *layers, *channels, *classes,
				*target, *vcs, *flits,
				*burst, *load,
				loads,
				*perInput,
				*warmup, *measure,
				*seed,
				*faultSeed,
				*failCh,
				*faultRate,
				*faultRep,
				*check,
				*convStop,
			})
		}
		if kerr != nil {
			fail("%v", kerr)
		}
		var data []byte
		var hit bool
		data, hit, err = st.GetOrCompute(ctx, key, func(cctx context.Context) ([]byte, error) {
			var b bytes.Buffer
			if rerr := runOutput(cctx, &b); rerr != nil {
				return nil, rerr
			}
			return b.Bytes(), nil
		})
		if err == nil {
			os.Stdout.Write(data)
			if hit {
				fmt.Fprintln(os.Stderr, "(served from store)")
			}
		}
	}

	if perr := stopProfiles(); perr != nil && err == nil {
		err = perr
	}
	if errors.Is(err, context.Canceled) {
		// CPU profiles and execution traces stream during the run, so an
		// interrupted run leaves them truncated — remove them. Obs side
		// files are only written after a successful run, so none exist.
		removePartials(os.Stderr, *cpuprofile, *memprofile, *exectrace, *runmetrics)
		fail("hirise-sim: interrupted")
	}
	if err != nil {
		fail("%v", err)
	}
}

// removePartials deletes the side files an interrupted run may have
// left half-written (missing files are fine).
func removePartials(errw io.Writer, paths ...string) {
	for _, p := range paths {
		if p == "" {
			continue
		}
		if err := os.Remove(p); err == nil {
			fmt.Fprintf(errw, "removed partial %s\n", p)
		} else if !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintf(errw, "removing partial %s: %v\n", p, err)
		}
	}
}

// parseSweep parses "lo:hi:step".
func parseSweep(s string) (lo, hi, step float64, err error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("sweep %q: want lo:hi:step", s)
	}
	vals := make([]float64, 3)
	for i, p := range parts {
		v, perr := strconv.ParseFloat(p, 64)
		if perr != nil {
			return 0, 0, 0, fmt.Errorf("sweep %q: %v", s, perr)
		}
		vals[i] = v
	}
	if vals[2] <= 0 || vals[1] < vals[0] {
		return 0, 0, 0, fmt.Errorf("sweep %q: need step > 0 and hi >= lo", s)
	}
	return vals[0], vals[1], vals[2], nil
}
