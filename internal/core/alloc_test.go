package core

import (
	"testing"

	"github.com/reprolab/hirise/internal/prng"
	"github.com/reprolab/hirise/internal/topo"
)

// arbWorkload drives cycles of rotating contention through sw: every
// input requests a pseudo-random output, grants are released after a
// few cycles, so arbitration, connection setup, and release all stay
// hot. It is shared by the zero-alloc assertions and the benchmark.
type arbSwitch interface {
	Radix() int
	Arbitrate(req []int) []topo.Grant
	Release(in int)
}

// newArbWorkload returns a closure running the given number of cycles;
// its buffers are allocated once here so AllocsPerRun sees only the
// switch's own allocations.
func newArbWorkload(sw arbSwitch, src *prng.Source) func(cycles int) {
	n := sw.Radix()
	req := make([]int, n)
	holding := make([]int, 0, n)
	return func(cycles int) {
		for c := 0; c < cycles; c++ {
			for i := range req {
				req[i] = src.Intn(n)
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
	}
}

// TestArbitrateZeroAllocs asserts the tentpole's disabled-path
// contract: with no observer attached, the arbitration hot loop of the
// Hi-Rise switch allocates nothing per cycle. The grants return buffer
// and every request mask are preallocated scratch; a regression here
// shows up as garbage-collector pressure in every sweep.
func TestArbitrateZeroAllocs(t *testing.T) {
	// Radix 128 exercises the multi-word bitset paths: every request
	// vector and priority row spans two uint64 words.
	for _, radix := range []int{64, 128} {
		for _, scheme := range []topo.Scheme{topo.L2LLRG, topo.WLRG, topo.CLRG} {
			cfg := topo.Default64()
			cfg.Radix = radix
			cfg.Scheme = scheme
			sw, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			workload := newArbWorkload(sw, prng.New(7))
			workload(64) // warm up: grow the grants buffer once
			if avg := testing.AllocsPerRun(50, func() {
				workload(16)
			}); avg != 0 {
				t.Errorf("radix %d %v: %v allocs per 16 arbitration cycles, want 0", radix, scheme, avg)
			}
		}
	}
}

// TestArbitrateZeroAllocsWithFaults extends the zero-alloc pin to the
// fault-mask path: with failed channels, inputs, and outputs active
// (masks allocated up front by the Fail* calls), the per-cycle AndNot
// masking must not allocate either.
func TestArbitrateZeroAllocsWithFaults(t *testing.T) {
	for _, radix := range []int{64, 128} {
		for _, scheme := range []topo.Scheme{topo.L2LLRG, topo.WLRG, topo.CLRG} {
			cfg := topo.Default64()
			cfg.Radix = radix
			cfg.Scheme = scheme
			sw, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := sw.FailChannel(cfg.L2LCID(0, 3, 1)); err != nil {
				t.Fatal(err)
			}
			if err := sw.FailInput(radix / 2); err != nil {
				t.Fatal(err)
			}
			if err := sw.FailOutput(radix - 1); err != nil {
				t.Fatal(err)
			}
			workload := newArbWorkload(sw, prng.New(7))
			workload(64)
			if avg := testing.AllocsPerRun(50, func() {
				workload(16)
			}); avg != 0 {
				t.Errorf("radix %d %v with faults: %v allocs per 16 arbitration cycles, want 0", radix, scheme, avg)
			}
		}
	}
}

func benchArbitrate(b *testing.B, radix int) {
	cfg := topo.Default64()
	cfg.Radix = radix
	sw, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	workload := newArbWorkload(sw, prng.New(7))
	workload(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		workload(16)
	}
}

func BenchmarkArbitrateHotLoop(b *testing.B)    { benchArbitrate(b, 64) }
func BenchmarkArbitrateHotLoop128(b *testing.B) { benchArbitrate(b, 128) }

// TestNewAllocs pins the constructor's allocation count at the paper's
// design point (radix 64, 4 layers, 4 channels, input-binned CLRG with
// 3 classes): every served Hi-Rise job builds a fresh switch. New makes
// 15: the switch, the grants buffer, the int, bool, int64 and
// request-word slabs, the bitset headers, the local-arbiter interface
// slice and its LRG structs and stamp slab, the sub-blocks, and the CLRG
// structs, stamps, counters and masks.
func TestNewAllocs(t *testing.T) {
	cfg := topo.Default64()
	if got := testing.AllocsPerRun(20, func() {
		if _, err := New(cfg); err != nil {
			t.Fatal(err)
		}
	}); got != 15 {
		t.Errorf("New(%v) allocated %v times, want 15", cfg, got)
	}
}
