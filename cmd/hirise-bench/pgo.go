package main

import (
	"fmt"
	"os"
	"runtime/pprof"

	"github.com/reprolab/hirise/internal/core"
	"github.com/reprolab/hirise/internal/crossbar"
	"github.com/reprolab/hirise/internal/fabric"
	"github.com/reprolab/hirise/internal/sim"
	"github.com/reprolab/hirise/internal/topo"
	"github.com/reprolab/hirise/internal/traffic"
)

// runPGOProfile executes a representative slice of the simulator's hot
// paths under the CPU profiler and writes the pprof profile to path.
// Committing the output as cmd/hirise-bench/default.pgo lets `go build
// -pgo=auto` (the toolchain default) profile-guide every later build of
// this command; regenerate it with `hirise-bench -pgo-profile
// cmd/hirise-bench/default.pgo` after significant hot-loop changes.
//
// The workload mirrors where campaign wall-clock actually goes, so the
// compiler optimizes for the same mix CI and users run: the
// single-switch engine on the stock LRG crossbar (fused arbitration)
// through the campaign arm — one sim.Run per replicate — and on the
// Hi-Rise CLRG switch (core.Arbitrate through the engine), plus one
// saturated dragonfly fabric run (routing, credits, and VC
// arbitration).
func runPGOProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("pgo profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("pgo profile: %w", err)
	}
	workErr := pgoWorkload()
	pprof.StopCPUProfile()
	if cerr := f.Close(); cerr != nil && workErr == nil {
		workErr = cerr
	}
	if workErr != nil {
		return fmt.Errorf("pgo profile: %w", workErr)
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func pgoWorkload() error {
	cfg := campaignCfg()

	// Campaign arm: one sim.Run per replicate with a fresh switch.
	for round := 0; round < 4; round++ {
		for point := 0; point < campaignPoints; point++ {
			for _, seed := range campaignSeeds(point) {
				c := cfg
				c.Switch = crossbar.New(64)
				c.Seed = seed
				if _, err := sim.Run(c); err != nil {
					return err
				}
			}
		}
	}

	// Hi-Rise CLRG: the engine's generic arbitration path.
	newHiRise := func() sim.Switch {
		sw, err := core.New(topo.Default64())
		if err != nil {
			panic(err)
		}
		return sw
	}
	for point := 0; point < campaignPoints; point++ {
		if _, err := sim.BatchRun(cfg, newHiRise, nil, campaignSeeds(point)); err != nil {
			return err
		}
	}

	// Saturated dragonfly fabric: the multi-switch hot loop.
	d := fabric.Dragonfly{Groups: 9, GroupSize: 8, GlobalPorts: 1, Conc: 2, Lanes: 1}
	_, err := fabric.Run(fabric.Config{
		Topo: d, Routing: fabric.Minimal,
		Traffic: traffic.Uniform{Radix: d.Nodes() * d.Conc},
		Load:    1.0, Warmup: 200, Measure: 800,
	})
	return err
}
