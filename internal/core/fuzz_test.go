package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/reprolab/hirise/internal/arb"
	"github.com/reprolab/hirise/internal/crossbar"
	"github.com/reprolab/hirise/internal/prng"
	"github.com/reprolab/hirise/internal/topo"
)

// oracleConfigs returns every Hi-Rise configuration the oracles below
// cover: the five hierarchical schemes times the three channel
// allocations, at radix 64 over 4 layers with 4 channels (the paper's
// design point), 16/2/1, 48/3/2 and 128/4/8.
func oracleConfigs() []topo.Config {
	var cfgs []topo.Config
	for _, shape := range [][3]int{{64, 4, 4}, {16, 2, 1}, {48, 3, 2}, {128, 4, 8}} {
		for _, scheme := range []topo.Scheme{topo.LRG, topo.L2LLRG, topo.WLRG, topo.CLRG, topo.ISLIP1} {
			for _, alloc := range []topo.AllocPolicy{topo.InputBinned, topo.OutputBinned, topo.PriorityBased} {
				cfgs = append(cfgs, topo.Config{
					Radix: shape[0], Layers: shape[1], Channels: shape[2],
					Alloc: alloc, Scheme: scheme, Classes: 3,
				})
			}
		}
	}
	return cfgs
}

// holds tracks connections for a driven switch: each grant is held for
// a drawn number of cycles and then released.
type holds struct {
	until []int // per input: the cycle its connection is released, or -1
}

func newHolds(n int) *holds {
	h := &holds{until: make([]int, n)}
	for i := range h.until {
		h.until[i] = -1
	}
	return h
}

// expire returns the inputs whose connections end at cycle c.
func (h *holds) expire(c int) []int {
	var done []int
	for in, u := range h.until {
		if u == c {
			done = append(done, in)
			h.until[in] = -1
		}
	}
	return done
}

// faultOp applies one runtime fault or repair, chosen by op, to sw and
// returns its error text ("" for nil) so two switches can be compared.
func faultOp(sw *Switch, op, arg int) string {
	cfg := sw.Config()
	var err error
	switch op % 6 {
	case 0:
		err = sw.FailChannel(arg % cfg.NumL2LC())
	case 1:
		err = sw.RestoreChannel(arg % cfg.NumL2LC())
	case 2:
		err = sw.FailInput(arg % cfg.Radix)
	case 3:
		err = sw.RestoreInput(arg % cfg.Radix)
	case 4:
		err = sw.FailOutput(arg % cfg.Radix)
	case 5:
		err = sw.RestoreOutput(arg % cfg.Radix)
	}
	if err != nil {
		return err.Error()
	}
	return ""
}

// differential drives a Switch and its full-scan reference through the
// same request stream: each stream byte sets the request density of
// four cycles, grants are held for 1–5 cycles, and about one cycle in
// eight fails or restores a channel, an input or an output. Grants and
// Stats must be equal after every cycle.
func differential(t *testing.T, cfg topo.Config, seed uint64, stream []byte) {
	fast, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRefSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.Radix
	src := prng.New(seed)
	req := make([]int, n)
	h := newHolds(n)
	cycle := 0
	for _, b := range stream {
		dens := float64(b) / 255
		for k := 0; k < 4; k++ {
			cycle++
			for _, in := range h.expire(cycle) {
				fast.Release(in)
				ref.Release(in)
			}
			if src.Intn(8) == 0 {
				op, arg := src.Intn(6), src.Intn(1<<20)
				if fe, re := faultOp(fast, op, arg), faultOp(ref.Switch, op, arg); fe != re {
					t.Fatalf("%v cycle %d: fault op %d(%d): %q vs reference %q", cfg, cycle, op, arg, fe, re)
				}
			}
			for i := range req {
				req[i] = -1
				if src.Bernoulli(dens) {
					req[i] = src.Intn(n)
				}
			}
			got := slices.Clone(fast.Arbitrate(req))
			want := ref.Arbitrate(req)
			if !slices.Equal(got, want) {
				t.Fatalf("%v cycle %d: grants %v, reference %v (requests %v)", cfg, cycle, got, want, req)
			}
			for _, g := range got {
				h.until[g.In] = cycle + 1 + src.Intn(5)
			}
			if gs, rs := fast.Stats(), ref.Stats(); !reflect.DeepEqual(gs, rs) {
				t.Fatalf("%v cycle %d: stats %+v, reference %+v", cfg, cycle, gs, rs)
			}
		}
	}
}

// FuzzArbitrateMatchesReference pins Switch.Arbitrate, which clears,
// grants and walks only what a cycle's requests touched, to the
// full-scan reference in ref_test.go, for every scheme, allocation and
// oracle shape, with holds, releases and runtime port and channel
// faults in the stream.
func FuzzArbitrateMatchesReference(f *testing.F) {
	f.Add(uint64(1), []byte{0x10, 0x40, 0xB3, 0xFF, 0xFF, 0x80, 0x02, 0xE0})
	f.Add(uint64(7), []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xC0, 0xC0, 0x30, 0xFF})
	f.Add(uint64(42), []byte{0x00, 0x08, 0x20, 0x60, 0xA0, 0xFF, 0x7F, 0x3F, 0x1F, 0xFF, 0xFF, 0x90})
	f.Add(uint64(9), []byte("\xff\xff\xe0\xc0\xa0\x80\x60\x40\x20\x10\xff\xff\xff\xb0\xb0\xb0"+
		"\x05\xf0\x05\xf0\xff\xff\xff\xff\xff\xff\x90\x90\x90\x90\x44\x44"))
	f.Fuzz(func(t *testing.T, seed uint64, stream []byte) {
		if len(stream) > 64 {
			stream = stream[:64]
		}
		for i, cfg := range oracleConfigs() {
			differential(t, cfg, seed+uint64(i), stream)
		}
	})
}

// TestLayerLocalMatchesCrossbars checks the grant-level layer-local
// relation: when every request stays inside its input's layer, a Hi-Rise
// switch grants exactly what L independent radix-N/L crossbars grant,
// with local indices mapped to global ones. Every sub-block then sees
// only its intermediate line, so its scheme never decides anything, and
// the local switch is an LRG crossbar (round-robin for the iSLIP-1
// analog). It needs no reference implementation: it holds by the
// structure of the paper's switch.
func TestLayerLocalMatchesCrossbars(t *testing.T) {
	cycles := 3000
	if testing.Short() {
		cycles = 500
	}
	for i, cfg := range oracleConfigs() {
		t.Run(fmt.Sprintf("%d-%d-%d/%v/%v", cfg.Radix, cfg.Layers, cfg.Channels, cfg.Scheme, cfg.Alloc), func(t *testing.T) {
			hr := mustNew(t, cfg)
			ports := cfg.PortsPerLayer()
			xbars := make([]*crossbar.Switch, cfg.Layers)
			for l := range xbars {
				xbars[l] = crossbar.New(ports)
				if cfg.Scheme == topo.ISLIP1 {
					rrs := make([]arb.Arbiter, ports)
					for o := range rrs {
						rrs[o] = arb.NewRoundRobin(ports)
					}
					var err error
					if xbars[l], err = crossbar.NewWithArbiters(ports, rrs); err != nil {
						t.Fatal(err)
					}
				}
			}
			src := prng.New(uint64(100 + i))
			req := make([]int, cfg.Radix)
			local := make([][]int, cfg.Layers)
			for l := range local {
				local[l] = make([]int, ports)
			}
			h := newHolds(cfg.Radix)
			var want []topo.Grant
			for c := 1; c <= cycles; c++ {
				for _, in := range h.expire(c) {
					hr.Release(in)
					xbars[in/ports].Release(in % ports)
				}
				for in := range req {
					req[in], local[in/ports][in%ports] = -1, -1
					if src.Bernoulli(0.7) {
						lo := src.Intn(ports)
						req[in], local[in/ports][in%ports] = in/ports*ports+lo, lo
					}
				}
				want = want[:0]
				for l, x := range xbars {
					for _, g := range x.Arbitrate(local[l]) {
						want = append(want, topo.Grant{In: l*ports + g.In, Out: l*ports + g.Out})
					}
				}
				got := hr.Arbitrate(req)
				if !slices.Equal(got, want) {
					t.Fatalf("cycle %d: Hi-Rise grants %v, per-layer crossbars %v", c, got, want)
				}
				for _, g := range got {
					h.until[g.In] = c + 1 + src.Intn(5)
				}
			}
		})
	}
}
