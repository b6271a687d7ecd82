package serve

import "testing"

// TestLoadsweepSwitchValidation pins the errors a Hi-Rise loadsweep
// request is rejected with. Validation builds no switch: the checks are
// core.Validate's, so the messages are exactly the ones core.New would
// return for the same configuration.
func TestLoadsweepSwitchValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  Request
		want string
	}{
		{"valid", Request{}, ""},
		{"one layer", Request{Layers: 1, Radix: 8},
			"core: Hi-Rise needs at least 2 layers, have 1 (use crossbar.New for 2D)"},
		{"radix not divisible", Request{Radix: 63},
			"topo: radix 63 not divisible by layers 4"},
		{"CLRG without classes", Request{Scheme: "clrg", Classes: 1},
			"topo: CLRG needs at least 2 classes, have 1"},
		{"input binning mismatch", Request{Alloc: "input", Channels: 3},
			"topo: ports per layer 16 not divisible by channels 3 for input binning"},
		{"negative radix", Request{Radix: -4},
			"topo: radix -4 must be positive"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.req
			r.Kind, r.Design, r.Loads = "loadsweep", "hirise", []float64{0.1}
			err := r.normalize()
			got := ""
			if err != nil {
				got = err.Error()
			}
			if got != tc.want {
				t.Fatalf("normalize() error %q, want %q", got, tc.want)
			}
		})
	}
}
