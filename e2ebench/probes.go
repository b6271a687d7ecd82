package main

import (
	"fmt"
	"time"

	"github.com/reprolab/hirise/internal/bitvec"
	"github.com/reprolab/hirise/internal/core"
	"github.com/reprolab/hirise/internal/crossbar"
	"github.com/reprolab/hirise/internal/fabric"
	"github.com/reprolab/hirise/internal/prng"
	"github.com/reprolab/hirise/internal/sched"
	"github.com/reprolab/hirise/internal/sim"
	"github.com/reprolab/hirise/internal/topo"
	"github.com/reprolab/hirise/internal/traffic"
)

// A probe times repeated calls into one layer's public function, shaped
// like the work the workloads give that layer. op runs one call and
// returns how many units (cycles, arbitrations, matchings) it covered.
type probe struct {
	name string
	op   func() (units int, err error)
}

const (
	probeBudget   = 200 * time.Millisecond
	probeMinCalls = 5
)

// hiriseCfg is the switch of the serve_cold specs and the sim probe.
func hiriseCfg() topo.Config {
	return topo.Config{Radix: 64, Layers: 4, Channels: 4, Classes: 3, Scheme: topo.CLRG, Alloc: topo.InputBinned}
}

// arbitrator is the arbitration surface core and crossbar switches share.
type arbitrator interface {
	Arbitrate(req []int) []topo.Grant
	Release(in int)
}

// arbitrateOp runs cycles arbitration cycles under rotating contention:
// every input requests a random output and grants are released every
// fourth cycle.
func arbitrateOp(sw arbitrator, radix, cycles int) func() (int, error) {
	src := prng.New(7)
	req := make([]int, radix)
	var holding []int
	return func() (int, error) {
		for c := 0; c < cycles; c++ {
			for i := range req {
				req[i] = src.Intn(radix)
			}
			for _, g := range sw.Arbitrate(req) {
				holding = append(holding, g.In)
			}
			if c%4 == 3 {
				for _, in := range holding {
					sw.Release(in)
				}
				holding = holding[:0]
			}
		}
		return cycles, nil
	}
}

// scheduleOp runs calls matchings over a fixed ~25% dense request
// matrix with queue-length weights.
func scheduleOp(s sched.Scheduler, calls int) func() (int, error) {
	n := s.N()
	src := prng.New(7)
	req := make([]bitvec.Vec, n)
	qlen := make([]int32, n*n)
	match := make([]int, n)
	for i := range req {
		req[i] = bitvec.New(n)
		for o := 0; o < n; o++ {
			if src.Bernoulli(0.25) {
				req[i].Set(o)
				qlen[i*n+o] = int32(1 + src.Intn(8))
			}
		}
	}
	return func() (int, error) {
		for c := 0; c < calls; c++ {
			s.Schedule(req, qlen, match)
		}
		return calls, nil
	}
}

func probes() []probe {
	core64, err := core.New(hiriseCfg())
	if err != nil {
		panic(err) // a constant, valid configuration
	}
	var seed uint64
	next := func() uint64 { seed++; return seed }
	const warmup, measure = 100, 500
	df := fabric.Dragonfly{Groups: 9, GroupSize: 8, GlobalPorts: 1, Conc: 2, Lanes: 1}
	return []probe{
		{"core.arbitrate.ns", arbitrateOp(core64, 64, 256)},
		{"crossbar.arbitrate.ns", arbitrateOp(crossbar.New(64), 64, 256)},
		{"sim.run.ns_per_cycle", func() (int, error) {
			sw, err := core.New(hiriseCfg())
			if err != nil {
				return 0, err
			}
			_, err = sim.Run(sim.Config{Switch: sw, Traffic: traffic.Uniform{Radix: 64}, Load: 0.2,
				PacketFlits: 4, VCs: 4, Warmup: warmup, Measure: measure, Seed: next()})
			return warmup + measure, err
		}},
		{"sim.batch.ns_per_replica_cycle", func() (int, error) {
			seeds := []uint64{next(), next(), next(), next(), next()}
			_, err := sim.BatchRun(sim.Config{Traffic: traffic.Uniform{Radix: 64}, Load: 1.0, Warmup: warmup, Measure: measure},
				func() sim.Switch { return crossbar.New(64) }, nil, seeds)
			return len(seeds) * (warmup + measure), err
		}},
		{"sim.voq.ns_per_cycle", func() (int, error) {
			_, err := sim.RunVOQ(sim.VOQConfig{Radix: 64, Sched: sched.NewISLIP(64, 2), Traffic: traffic.Uniform{Radix: 64},
				Load: 0.95, Warmup: warmup, Measure: measure, Seed: next()})
			return warmup + measure, err
		}},
		{"sched.islip.ns", scheduleOp(sched.NewISLIP(64, 2), 64)},
		{"sched.wavefront.ns", scheduleOp(sched.NewWavefront(64), 64)},
		{"fabric.run.ns_per_router_cycle", func() (int, error) {
			_, err := fabric.Run(fabric.Config{Topo: df, Routing: fabric.Minimal, Traffic: traffic.Uniform{Radix: df.Nodes() * df.Conc},
				Load: 1.0, Warmup: warmup, Measure: measure, Seed: next()})
			return df.Nodes() * (warmup + measure), err
		}},
	}
}

// runProbes runs every probe for probeBudget (and at least
// probeMinCalls calls) and returns each one's median ns per unit, with
// a span per probe.
func runProbes(tr *tracer) (map[string]float64, error) {
	out := map[string]float64{}
	for _, p := range probes() {
		var per []float64
		start := time.Now()
		for len(per) < probeMinCalls || time.Since(start) < probeBudget {
			t0 := time.Now()
			units, err := p.op()
			if err != nil {
				return nil, fmt.Errorf("probe %s: %w", p.name, err)
			}
			per = append(per, float64(time.Since(t0).Nanoseconds())/float64(units))
		}
		out[p.name] = median(per)
		tr.span("probe", p.name, 1, start, time.Now(), map[string]any{"calls": len(per)})
	}
	return out, nil
}
