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
	"time"

	"github.com/reprolab/hirise"
	"github.com/reprolab/hirise/internal/pool"
	"github.com/reprolab/hirise/internal/spec"
	"github.com/reprolab/hirise/internal/store"
)

// writeFile creates path and runs fn over it, failing loudly on any
// error — observability output that silently vanishes is worse than
// none.
func writeFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %v", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing %s: %v", path, err)
	}
	return nil
}

// storeOpts opens the -store result store. Tests pin its ModelVersion
// so the store-key goldens outlive model bumps.
var storeOpts store.Options

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, prints the report to stdout
// and diagnostics to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, format+"\n", args...)
		return 1
	}
	fs := flag.NewFlagSet("hirise-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	d := spec.Default
	var (
		design   = fs.String("design", d.Design, "switch design: 2d | folded | hirise | voq | fabric")
		radix    = fs.Int("radix", d.Radix, "switch radix")
		layers   = fs.Int("layers", d.Layers, "stacked layers (folded, hirise)")
		channels = fs.Int("channels", d.Channels, "L2LC multiplicity (hirise)")
		scheme   = fs.String("scheme", d.Scheme, "arbitration: l2l | wlrg | clrg (hirise)")
		alloc    = fs.String("alloc", d.Alloc, "channel allocation: input | output | priority")
		classes  = fs.Int("classes", d.Classes, "CLRG class count")
		pattern  = fs.String("traffic", d.Traffic, "uniform | hotspot | adversarial | bursty | permutation | bitrev | interlayer | layerlocal | binadv")
		target   = fs.Int("target", d.Radix-1, "hotspot target output")
		burst    = fs.Float64("burst", d.Burst, "mean burst length for bursty traffic")
		load     = fs.Float64("load", 0.1, "offered load, packets/cycle/input")
		warmup   = fs.Int64("warmup", d.Warmup, "warmup cycles")
		measure  = fs.Int64("measure", d.Measure, "measurement cycles")
		seed     = fs.Uint64("seed", d.Seed, "random seed")
		vcs      = fs.Int("vcs", d.VCs, "virtual channels per input")
		flits    = fs.Int("flits", d.Flits, "flits per packet")
		perInput = fs.Bool("perinput", false, "print per-input latency and throughput")

		// VOQ crossbar mode (-design voq): input-queued scheduler zoo.
		schedName = fs.String("sched", "islip", "VOQ scheduler: islip | wavefront | mwm (mwm is O(n^3) per cycle: keep -radix or the windows small)")
		iters     = fs.Int("iters", 2, "iSLIP iterations per scheduling phase (-sched islip)")
		speedupS  = fs.Int("speedup", 1, "internal crossbar speedup S: scheduling phases per cell time")
		voqCap    = fs.Int("voqcap", 32, "per-(input,output) VOQ capacity in cells")
		outqCap   = fs.Int("outqcap", 16, "output queue capacity in cells (binds when speedup > 1)")

		// Multi-switch fabric mode (-design fabric): every router a full
		// switch wired by a pluggable topology (fabric.go).
		topoName    = fs.String("topo", "mesh", "fabric topology: mesh | fbfly | dragonfly (-design fabric)")
		nodes       = fs.Int("nodes", 0, "fabric router count; square grids take W=H=sqrt(N), dragonfly geometry must agree (0 = use the shape flags)")
		meshW       = fs.Int("mesh-w", 4, "fabric grid width (mesh, fbfly)")
		meshH       = fs.Int("mesh-h", 4, "fabric grid height (mesh, fbfly)")
		conc        = fs.Int("conc", 2, "fabric cores per router")
		lanes       = fs.Int("lanes", 1, "fabric parallel lanes per logical link")
		groups      = fs.Int("groups", 9, "dragonfly group count")
		groupSize   = fs.Int("groupsize", 4, "dragonfly routers per group")
		globalPorts = fs.Int("globalports", 2, "dragonfly global link bundles per router (groupsize*globalports must equal groups-1)")
		routing     = fs.String("routing", "min", "fabric routing: min | valiant")
		failLinks   = fs.Int("fail-links", 0, "fabric: permanently fail this many link lanes, chosen deterministically from the fault seed (at most lanes-1 per bundle, so routing reroutes around every one)")
		failRouters = fs.Int("fail-routers", 0, "fabric: fail-stop this many routers (flows they sever retire as dead flows)")

		sweep    = fs.String("sweep", "", "sweep loads lo:hi:step (packets/cycle/input) instead of a single run")
		workers  = fs.Int("parallel", 0, "concurrent sweep points (0 = all CPUs, 1 = serial); results are identical at any value")
		storeDir = fs.String("store", "",
			"cache stdout in this content-addressed result store; repeated runs replay byte-identically (bypassed when any obs flag is set)")

		// Fault plane: deterministic seeded fault injection (hirise only).
		faultSeed = fs.Uint64("fault-seed", 0, "fault-plane seed (0 = use -seed)")
		failCh    = fs.Int("fail-channels", 0, "permanently fail this many L2LCs, chosen deterministically from the fault seed")
		faultRate = fs.Float64("fault-rate", 0, "per-channel transient outage probability per cycle (lossy links; sources retransmit)")
		faultRep  = fs.Int64("fault-repair", 0, "mean transient outage length in cycles (0 = default)")
		check     = fs.Bool("check", false, "run the self-checking invariant layer (failed-resource grants and flit conservation)")

		// Observability: switch-internals sinks, written to side files.
		traceJSONL  = fs.String("trace-jsonl", "", "write flit lifecycle events as JSON Lines to this file")
		traceChrome = fs.String("trace-chrome", "", "write flit lifecycle events as Chrome trace-event JSON (load in ui.perfetto.dev) to this file")
		traceMax    = fs.Int("trace-max", 0, "max recorded events per run (0 = default cap); excess is counted, not recorded")
		metricsOut  = fs.String("metrics", "", "write the metrics registry as JSON to this file (sweeps: one array entry per point)")
		fairnessOut = fs.String("fairness", "", "write the arbitration fairness report to this file (sweeps: one section per point)")

		// Time-series telemetry: windowed counter/gauge tracks sampled in
		// the simulator hot loop (internal/tele).
		teleNDJSON = fs.String("tele-ndjson", "", "write windowed telemetry time series as NDJSON to this file (one line per run and series)")
		teleChrome = fs.String("tele-chrome", "", "write telemetry counter tracks as Chrome trace-event JSON (load in ui.perfetto.dev) to this file")
		teleWindow = fs.Int64("tele-window", 0, "telemetry window length in cycles (0 = 256)")
		teleMax    = fs.Int("tele-max", 0, "max stored telemetry windows per series; older windows decimate pairwise (0 = 512)")
		convStop   = fs.Bool("converge-stop", false,
			"stop each run early once the MSER steady-state detector converges on the delivery-rate series (deterministic; changes results, so stored keys differ)")

		// Host-side profiling of the simulator process itself.
		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a pprof heap profile to this file at exit")
		exectrace  = fs.String("exectrace", "", "write a runtime execution trace (go tool trace) to this file")
		runmetrics = fs.String("runmetrics", "", "write a runtime/metrics JSON snapshot to this file at exit")
		heartbeat  = fs.Duration("heartbeat", 0, "print progress to stderr at this interval (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// Single-switch designs are checked and built from the spec, the VOQ
	// mode takes only its traffic from it, and the fabric checks and
	// builds its own (fabric.go).
	sp := spec.Spec{
		Design: strings.ToLower(*design), Radix: *radix, Layers: *layers, Channels: *channels, Classes: *classes,
		Scheme: strings.ToLower(*scheme), Alloc: strings.ToLower(*alloc),
		Traffic: strings.ToLower(*pattern), Target: *target, Burst: *burst, Seed: *seed,
		VCs: *vcs, Flits: *flits, Warmup: *warmup, Measure: *measure,
	}
	isVOQ, isFabric := sp.Design == "voq", sp.Design == "fabric"
	var makeSwitch func() hirise.SimSwitch
	var makeTraffic func() hirise.TrafficPattern
	var err error
	switch {
	case isVOQ:
		makeTraffic, err = sp.TrafficFactory()
	case !isFabric:
		makeSwitch, makeTraffic, err = sp.Factories()
	}
	if err != nil {
		return fail("%v", err)
	}
	var loads []float64
	if *sweep != "" {
		loads, err = parseSweep(*sweep)
	} else {
		err = spec.CheckLoads([]float64{*load})
	}
	if err != nil {
		return fail("%v", err)
	}

	// The physical cost is computed once so that makeSwitch stays a pure
	// factory. The VOQ crossbar and the fabric have no physical model.
	tech := hirise.Tech32nm()
	var cfg hirise.Config
	var cost hirise.Cost
	if makeSwitch != nil {
		cfg, cost = sp.Cost(tech)
	}
	if (*failLinks > 0 || *failRouters > 0) && !isFabric {
		return fail("-fail-links/-fail-routers need -design fabric (use -fail-channels for the hirise fault plane)")
	}
	// Fault plane: build the plan once (it is immutable and shared by
	// concurrent sweep points). Only the Hi-Rise design has L2LCs to
	// fault. With no fault flags set, faultPlan stays nil and every code
	// path below — including stdout — is identical to a fault-free build.
	var faultPlan *hirise.FaultPlan
	if *failCh > 0 || *faultRate > 0 {
		if sp.Design != "hirise" {
			return fail("fault injection needs -design hirise (the %s design has no L2LCs)", *design)
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
			return fail("%v", err)
		}
		faultPlan = plan
	}

	// Observability sinks: a nil observer (no obs flag set) keeps the
	// simulator on its allocation-free disabled path. The fairness audit
	// is class-aware only where classes exist: a Hi-Rise CLRG switch.
	wantTrace := *traceJSONL != "" || *traceChrome != ""
	wantTele := *teleNDJSON != "" || *teleChrome != ""
	auditClasses := 1
	if sp.Design == "hirise" && cfg.Scheme == hirise.CLRG {
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
	writeObsOutputs := func(observers []*hirise.Observer, labels []float64) error {
		recs := make([]*hirise.TraceRecorder, len(observers))
		regs := make([]*hirise.MetricsRegistry, len(observers))
		samps := make([]*hirise.TelemetrySampler, len(observers))
		for i, o := range observers {
			if o != nil {
				recs[i], regs[i], samps[i] = o.Trace, o.Metrics, o.Tele
			}
		}
		var err error
		write := func(path string, fn func(io.Writer) error) {
			if path != "" && err == nil {
				err = writeFile(path, fn)
			}
		}
		write(*traceJSONL, func(w io.Writer) error { return hirise.WriteTraceJSONL(w, recs) })
		// With telemetry on, the flit slices and the counter tracks land
		// in one document; without, the output is byte-identical to plain
		// WriteChromeTrace.
		write(*traceChrome, func(w io.Writer) error {
			return hirise.WriteChromeTraceWithCounters(w, recs, samps)
		})
		write(*teleNDJSON, func(w io.Writer) error { return hirise.WriteTelemetryNDJSON(w, samps) })
		write(*teleChrome, func(w io.Writer) error {
			return hirise.WriteChromeTraceWithCounters(w, nil, samps)
		})
		write(*metricsOut, func(w io.Writer) error {
			if labels == nil && len(regs) == 1 {
				return regs[0].WriteJSON(w)
			}
			return hirise.WriteMetricsJSON(w, regs)
		})
		write(*fairnessOut, func(w io.Writer) error {
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
		return err
	}

	cm := common{
		sp: sp, load: *load, loads: loads, convergeStop: *convStop, check: *check, perInput: *perInput,
		workers: *workers, heartbeat: *heartbeat, stderr: stderr,
		newObserver: newObserver, writeObs: writeObsOutputs,
	}

	// simConfig is the simulator configuration every run shares.
	simConfig := func(ctx context.Context) hirise.SimConfig {
		c := sp.SimConfig()
		c.Faults, c.Check, c.ConvergeStop, c.Ctx = faultPlan, *check, *convStop, ctx
		return c
	}

	// runSweep simulates every load and prints the sweep table to w.
	runSweep := func(ctx context.Context, w io.Writer) error {
		var started atomic.Int64
		countedMakeSwitch := func() hirise.SimSwitch {
			started.Add(1)
			return makeSwitch()
		}
		base := simConfig(ctx)
		results, err := observedSweep(ctx, cm, base.Seed, func() string {
			return fmt.Sprintf("%d/%d sweep points started", started.Load(), len(loads))
		}, func(i int, seed uint64, o *hirise.Observer) (hirise.SimResult, error) {
			c := base
			c.Switch, c.Traffic = countedMakeSwitch(), makeTraffic()
			c.Load, c.Seed, c.Obs = loads[i], seed, o
			return hirise.Simulate(c)
		})
		if err != nil {
			return err
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
		c := simConfig(ctx)
		c.Switch, c.Traffic, c.Load = makeSwitch(), makeTraffic(), *load
		res, observer, err := observed(cm, func(o *hirise.Observer) (hirise.SimResult, error) {
			c.Obs = o
			return hirise.Simulate(c)
		})
		if err != nil {
			return err
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

	// SIGINT/SIGTERM cancels ctx; the simulator polls it between cycles
	// and the sweep pool skips pending points.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	vc := voqCLI{
		common: cm, schedName: strings.ToLower(*schedName), iters: *iters,
		speedup: *speedupS, voqCap: *voqCap, outQCap: *outqCap, makeTraffic: makeTraffic,
	}
	fc := fabricCLI{
		common: cm, topoName: strings.ToLower(*topoName), nodes: *nodes,
		meshW: *meshW, meshH: *meshH, conc: *conc, lanes: *lanes,
		groups: *groups, groupSize: *groupSize, globalPorts: *globalPorts,
		routingName: strings.ToLower(*routing),
		faultSeed:   *faultSeed, failLinks: *failLinks, failRouters: *failRouters,
	}
	// Reject bad scheduler, topology, routing and fabric traffic flags
	// before the store path.
	runOutput, sweepOutput := runSingle, runSweep
	switch {
	case isVOQ:
		_, err = vc.newSched()
		runOutput, sweepOutput = vc.runSingle, vc.runSweep
	case isFabric:
		_, err = fc.base(ctx)
		runOutput, sweepOutput = fc.runSingle, fc.runSweep
	}
	if err != nil {
		return fail("%v", err)
	}
	if *sweep != "" {
		runOutput = sweepOutput
	}

	var st *store.Store
	var key store.Key
	switch {
	case *storeDir != "" && newObserver() != nil:
		fmt.Fprintln(stderr, "note: observability flags record switch internals, bypassing -store")
	case *storeDir != "":
		if st, err = store.Open(*storeDir, storeOpts); err != nil {
			return fail("%v", err)
		}
		switch {
		case isFabric:
			key, err = fc.storeKey(st)
		case isVOQ:
			key, err = vc.storeKey(st)
		default:
			key, err = st.KeyOf("sim", struct {
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
				sp.Design, sp.Scheme, sp.Alloc, sp.Traffic,
				sp.Radix, sp.Layers, sp.Channels, sp.Classes,
				sp.Target, sp.VCs, sp.Flits,
				sp.Burst, *load,
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
		if err != nil {
			return fail("%v", err)
		}
	}

	stopProfiles, err := hirise.StartProfiles(hirise.ProfileConfig{
		CPUProfile: *cpuprofile, MemProfile: *memprofile,
		ExecTrace: *exectrace, RuntimeMetrics: *runmetrics,
	})
	if err != nil {
		return fail("%v", err)
	}
	if st == nil {
		err = runOutput(ctx, stdout)
	} else {
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
			stdout.Write(data)
			if hit {
				fmt.Fprintln(stderr, "(served from store)")
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
		removePartials(stderr, *cpuprofile, *memprofile, *exectrace, *runmetrics)
		return fail("hirise-sim: interrupted")
	}
	if err != nil {
		return fail("%v", err)
	}
	return 0
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

// common is what every design mode shares: the spec its flags filled,
// the loads, and the output plumbing.
type common struct {
	sp           spec.Spec
	load         float64
	loads        []float64
	convergeStop bool
	check        bool
	perInput     bool
	workers      int
	heartbeat    time.Duration
	stderr       io.Writer
	newObserver  func() *hirise.Observer
	writeObs     func(observers []*hirise.Observer, labels []float64) error
}

// observed runs one simulation under the heartbeat with the observer
// the obs flags ask for (nil for none), then writes the side files.
func observed[R any](c common, run func(*hirise.Observer) (R, error)) (R, *hirise.Observer, error) {
	o := c.newObserver()
	stopHB := hirise.Heartbeat(c.stderr, c.heartbeat, func() string { return "simulating" })
	res, err := run(o)
	stopHB()
	if err == nil && o != nil {
		err = c.writeObs([]*hirise.Observer{o}, nil)
	}
	return res, o, err
}

// observedSweep runs point for every load through pool.Sweep under the
// heartbeat, then writes the side files. Each point gets its own
// observer when any obs flag is set and nil otherwise: points run
// concurrently and obs sinks are single-writer.
func observedSweep[R any](ctx context.Context, c common, seed uint64, progress func() string, point func(i int, seed uint64, o *hirise.Observer) (R, error)) ([]R, error) {
	observers := make([]*hirise.Observer, len(c.loads))
	for i := range observers {
		observers[i] = c.newObserver()
	}
	stopHB := hirise.Heartbeat(c.stderr, c.heartbeat, progress)
	res, err := pool.Sweep(ctx, len(c.loads), c.workers, seed, func(i int, seed uint64) (R, error) {
		return point(i, seed, observers[i])
	})
	stopHB()
	if err == nil && observers[0] != nil {
		err = c.writeObs(observers, c.loads)
	}
	return res, err
}

// parseSweep parses "lo:hi:step" into the sweep's loads.
func parseSweep(s string) ([]float64, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return nil, fmt.Errorf("sweep %q: want lo:hi:step", s)
	}
	var v [3]float64
	for i, p := range parts {
		f, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("sweep %q: %v", s, err)
		}
		v[i] = f
	}
	return spec.Sweep(v[0], v[1], v[2])
}
