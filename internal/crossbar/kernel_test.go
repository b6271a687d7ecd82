package crossbar

import (
	"reflect"
	"testing"

	"github.com/reprolab/hirise/internal/prng"
	"github.com/reprolab/hirise/internal/topo"
)

// TestLRGKernelMatchesSwitch drives a stock crossbar and an LRGKernel
// with the same requests and releases (connections held 1-5 cycles,
// releases after arbitration as the cycle loops do) and requires the
// same grants in the same order every cycle, at radices on both sides
// of the one-word column mask.
func TestLRGKernelMatchesSwitch(t *testing.T) {
	for _, radix := range []int{1, 8, 63, 64, 65, 130} {
		sw := New(radix)
		ks := NewLRGKernels(3, radix)
		k := &ks[1] // a kernel carved from the middle of the slabs
		rng := prng.New(uint64(radix))
		req := make([]int, radix)
		until := make([]int, radix) // cycle a held connection releases, per input
		var grants []topo.Grant
		for cycle := 1; cycle <= 3000; cycle++ {
			density := float64(cycle%7+1) / 8
			for in := range req {
				req[in] = -1
				if rng.Bernoulli(density) {
					req[in] = rng.Intn(radix)
					k.Request(in, req[in])
				}
			}
			want := sw.Arbitrate(req)
			grants = k.Arbitrate(grants[:0])
			if len(want) != len(grants) || len(want) > 0 && !reflect.DeepEqual(grants, want) {
				t.Fatalf("radix %d cycle %d: kernel grants %v, crossbar %v", radix, cycle, grants, want)
			}
			for _, g := range grants {
				until[g.In] = cycle + 1 + rng.Intn(5)
			}
			for in, u := range until {
				if u == cycle {
					sw.Release(in)
					k.Release(in)
				}
			}
		}
	}
}
