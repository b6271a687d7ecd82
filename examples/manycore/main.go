// Many-core system study: runs one of the paper's Table VI workload
// mixes on a 64-core system, once with the 2D Swizzle-Switch and once
// with Hi-Rise, and reports per-mix speedup — the §VI-D experiment as a
// library user would script it.
package main

import (
	"flag"
	"fmt"
	"log"

	"github.com/reprolab/hirise"
)

func main() {
	mixName := flag.String("mix", "Mix8", "workload mix (Mix1..Mix8)")
	addrMode := flag.Bool("addr", false, "address-driven mode: real L1/L2 tags instead of MPKI coin flips")
	flag.Parse()

	var mix hirise.Mix
	found := false
	for _, m := range hirise.Mixes() {
		if m.Name == *mixName {
			mix, found = m, true
		}
	}
	if !found {
		log.Fatalf("unknown mix %q", *mixName)
	}

	benches, err := mix.Assign(64, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: avg MPKI %.1f, applications:", mix.Name, mix.AvgMPKI())
	for _, p := range mix.Parts {
		fmt.Printf(" %s(%d)", p.Bench, p.Count)
	}
	fmt.Println()

	tech := hirise.Tech32nm()
	run := func(sw hirise.SimSwitch, ghz float64) hirise.SystemResult {
		sys, err := hirise.NewSystem(hirise.SystemConfig{
			SwitchGHz:   ghz,
			AddressMode: *addrMode,
			Warmup:      20000, Measure: 100000, Seed: 7,
		}, sw, benches)
		if err != nil {
			log.Fatal(err)
		}
		r, err := sys.Run()
		if err != nil {
			log.Fatal(err)
		}
		return r
	}

	d2Cost := hirise.CostOf(hirise.Config{Radix: 64, Layers: 1}, tech)
	r2 := run(hirise.New2D(64), d2Cost.FreqGHz)

	cfg := hirise.DefaultConfig()
	hrSwitch, err := hirise.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	hrCost := hirise.CostOf(cfg, tech)
	rh := run(hrSwitch, hrCost.FreqGHz)

	fmt.Printf("\n                       2D @ %.2fGHz    Hi-Rise @ %.2fGHz\n", d2Cost.FreqGHz, hrCost.FreqGHz)
	fmt.Printf("system IPC             %10.1f    %10.1f\n", r2.SystemIPC, rh.SystemIPC)
	fmt.Printf("avg net latency (cyc)  %10.1f    %10.1f\n", r2.AvgNetLatency, rh.AvgNetLatency)
	fmt.Printf("network packets        %10d    %10d\n", r2.NetPackets, rh.NetPackets)
	fmt.Printf("memory accesses        %10d    %10d\n", r2.MemAccesses, rh.MemAccesses)
	if *addrMode {
		fmt.Printf("measured L1 MPKI       %10.1f    %10.1f  (catalog %.1f)\n",
			r2.AvgL1MPKI, rh.AvgL1MPKI, mix.AvgMPKI())
	}
	fmt.Printf("\nspeedup: %.3f (paper Table VI reports %.2f for %s)\n",
		rh.SystemIPC/r2.SystemIPC, mix.PaperSpeedup, mix.Name)
}
