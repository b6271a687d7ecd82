package crossbar

import (
	"testing"

	"github.com/reprolab/hirise/internal/prng"
)

// TestArbitrateZeroAllocs asserts the disabled-path contract for the 2D
// baseline: with no observer attached, an arbitration cycle allocates
// nothing (the grants return buffer and the request mask are reused).
func TestArbitrateZeroAllocs(t *testing.T) {
	// Radix 128 exercises the two-word bitset request masks.
	for _, radix := range []int{64, 128} {
		sw := New(radix)
		src := prng.New(7)
		req := make([]int, radix)
		holding := make([]int, 0, radix)
		cycle := func(c int) {
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
		for c := 0; c < 64; c++ { // warm up: grow the grants buffer once
			cycle(c)
		}
		if avg := testing.AllocsPerRun(50, func() {
			for c := 0; c < 16; c++ {
				cycle(c)
			}
		}); avg != 0 {
			t.Errorf("radix %d: %v allocs per 16 arbitration cycles, want 0", radix, avg)
		}
	}
}

// TestArbitrateZeroAllocsWithFaults extends the pin to the fault-mask
// path: active port and crosspoint faults (masks allocated up front by
// the Fail* calls) must not make the hot loop allocate.
func TestArbitrateZeroAllocsWithFaults(t *testing.T) {
	for _, radix := range []int{64, 128} {
		sw := New(radix)
		if err := sw.FailInput(radix / 2); err != nil {
			t.Fatal(err)
		}
		if err := sw.FailOutput(radix - 1); err != nil {
			t.Fatal(err)
		}
		if err := sw.FailCrosspoint(0, 1); err != nil {
			t.Fatal(err)
		}
		src := prng.New(7)
		req := make([]int, radix)
		holding := make([]int, 0, radix)
		cycle := func(c int) {
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
		for c := 0; c < 64; c++ {
			cycle(c)
		}
		if avg := testing.AllocsPerRun(50, func() {
			for c := 0; c < 16; c++ {
				cycle(c)
			}
		}); avg != 0 {
			t.Errorf("radix %d with faults: %v allocs per 16 arbitration cycles, want 0", radix, avg)
		}
	}
}

// TestNewAllocs pins the constructor's allocation count: fabric builds
// one switch per router, so these scale with network size. New(64)
// makes 7: the switch, the LRG structs and their stamp slab, the arbiter
// slice, the request-mask headers, the mask words slab and the
// connection-map slab.
func TestNewAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(20, func() { New(64) }); got != 7 {
		t.Errorf("New(64) allocated %v times, want 7", got)
	}
}

func benchArbitrate(b *testing.B, radix int) {
	sw := New(radix)
	src := prng.New(7)
	req := make([]int, radix)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := range req {
			req[j] = src.Intn(radix)
		}
		for _, g := range sw.Arbitrate(req) {
			sw.Release(g.In)
		}
	}
}

func BenchmarkArbitrateHotLoop(b *testing.B)    { benchArbitrate(b, 64) }
func BenchmarkArbitrateHotLoop128(b *testing.B) { benchArbitrate(b, 128) }
