package serve

import (
	"encoding/json"
	"strings"
	"testing"

	"github.com/reprolab/hirise/internal/sim"
	"github.com/reprolab/hirise/internal/store"
)

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
		{"too many VCs", Request{VCs: 65},
			"serve: vcs 65 out of range 1..64"},
		{"negative VCs", Request{VCs: -1},
			"serve: vcs -1 out of range 1..64"},
		{"64 VCs", Request{VCs: 64}, ""},
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

// decodeBody decodes and normalizes a POST /jobs body the way
// handleSubmit does.
func decodeBody(body string) (Request, error) {
	var r Request
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return r, err
	}
	return r, r.normalize()
}

// TestLoadsweepKeyGolden pins the store keys of loadsweep bodies that
// together name every design, scheme, allocation and traffic pattern,
// the lo/hi/step form, and the defaults. The store runs at a fixed model
// version, so the keys pin the normalized payload itself.
func TestLoadsweepKeyGolden(t *testing.T) {
	st, err := store.Open("", store.Options{ModelVersion: "model-5"})
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{store: st}
	for _, c := range []struct{ body, key string }{
		{`{"kind":"loadsweep","loads":[0.1]}`,
			"00597b6b68321a6c97f500d92b3e8879cacec724f0dd5fa16799c144390cb8fd"},
		{`{"kind":"loadsweep","design":"2d","radix":8,"traffic":"hotspot","target":7,"loads":[0.1,0.2]}`,
			"eadafd6bf99ce0ee0358130e997f51c92dd1a654e736dcbafd7578bc5986d29c"},
		{`{"kind":"loadsweep","design":"folded","radix":32,"traffic":"bitrev","loads":[0.5]}`,
			"856b1f841cf3a61453c7ef14d72fd5b70ac9b4550c174f85d97679a561dd3d5c"},
		{`{"kind":"loadsweep","design":"HiRise","scheme":"L2L","alloc":"output","traffic":"interlayer","lo":0.1,"hi":0.5,"step":0.1}`,
			"d6a45b51e8ec61c53aa17314d2ec9b6f59c17c0ce00f71260bb5161d6bcb43cb"},
		{`{"kind":"loadsweep","scheme":"lrg","alloc":"priority","traffic":"binadv","loads":[0.3]}`,
			"2882d34e623a84180920fca2478fdfbd2102e7983d84457b3e1283522051d456"},
		{`{"kind":"loadsweep","scheme":"wlrg","traffic":"layerlocal","channels":2,"loads":[0.2]}`,
			"3f3cee6f27c0cc70002deb93b4e537ef925cd3dc2aab1b9ba5d3e00449594589"},
		{`{"kind":"loadsweep","design":"2d","radix":16,"traffic":"bursty","burst":4,"seed":9,"warmup":100,"measure":400,"vcs":2,"flits":3,"loads":[0.1]}`,
			"a462cab73e89c86a5122101e1996a3bdeb9837ed245e2af41fb1265c90eb12e7"},
		{`{"kind":"loadsweep","design":"folded","traffic":"permutation","seed":5,"loads":[0.7]}`,
			"b62e9cb252210f56db418a64f111d5694bd9f8c87c0014e68b0f70bf409f7483"},
		{`{"kind":"loadsweep","traffic":"adversarial","classes":4,"lo":0,"hi":1,"step":0.25}`,
			"f76c6dd0d4b3678239d739764e2e74171e5a83de464af53c02e36f11b7d55427"},
		{`{"kind":"loadsweep","design":"2d","traffic":"Uniform","layers":2,"lo":0.05,"hi":0.3,"step":0.05}`,
			"d44e435a4da9d292c5893b642d06c0322f11d8d1745bdc351536ff6382cf581b"},
		{`{"kind":"loadsweep","traffic":"bursty","loads":[0.4]}`,
			"8fc2b531ea000eb70bb0862eee4d17b039958cad62acc8119e6c23fd4c3829e0"},
	} {
		r, err := decodeBody(c.body)
		if err != nil {
			t.Errorf("%s: %v", c.body, err)
			continue
		}
		key, err := s.keyOf(r)
		if err != nil {
			t.Fatal(err)
		}
		if key.String() != c.key {
			t.Errorf("%s: key %s, want %s", c.body, key, c.key)
		}
	}
}

// FuzzLoadsweepBody decodes, normalizes and keys any POST /jobs body,
// then builds the loadsweep it normalizes to and runs a few cycles of
// it at a small radix. Nothing panics; a normalized request re-encoded,
// or respelt in upper case, hashes to the same key; and a body that
// normalizes never fails in sim.Run.
func FuzzLoadsweepBody(f *testing.F) {
	for _, body := range []string{
		`{"kind":"loadsweep","loads":[0.1]}`,
		`{"kind":"loadsweep","design":"folded","radix":8,"layers":2,"traffic":"bitrev","loads":[0.5]}`,
		`{"kind":"loadsweep","design":"2d","radix":8,"layers":4,"traffic":"interlayer","lo":0.1,"hi":0.5,"step":0.2}`,
		`{"kind":"loadsweep","radix":16,"channels":2,"scheme":"wlrg","alloc":"priority","traffic":"binadv","loads":[1]}`,
		`{"kind":"loadsweep","design":"2d","radix":8,"traffic":"hotspot","target":7,"flits":2,"vcs":64,"loads":[0.3]}`,
		`{"kind":"loadsweep","design":"folded","radix":8,"layers":3,"loads":[0.1]}`,
		`{"kind":"loadsweep","design":"2d","radix":8,"lo":1e17,"hi":1e17,"step":1}`,
		`{"kind":"experiment","experiment":"table1"}`,
	} {
		f.Add(body)
	}
	st, err := store.Open("", store.Options{})
	if err != nil {
		f.Fatal(err)
	}
	s := &Server{store: st}
	f.Fuzz(func(t *testing.T, body string) {
		r, err := decodeBody(body)
		if err != nil || r.Kind != "loadsweep" {
			return
		}
		key, err := s.keyOf(r)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		again, err := decodeBody(string(b))
		if err != nil {
			t.Fatalf("normalized body %s: %v", b, err)
		}
		upper := again
		upper.Design, upper.Scheme, upper.Alloc, upper.Traffic = strings.ToUpper(r.Design),
			strings.ToUpper(r.Scheme), strings.ToUpper(r.Alloc), strings.ToUpper(r.Traffic)
		if err := upper.normalize(); err != nil {
			t.Fatalf("upper-case %s: %v", b, err)
		}
		for _, eq := range []Request{again, upper} {
			if k, _ := s.keyOf(eq); k != key {
				t.Fatalf("body %s: equivalent request %+v hashes to %s, want %s", body, eq, k, key)
			}
		}
		if r.Radix > 64 || len(r.Loads) > 4 {
			return
		}
		sp := r.sweepSpec()
		mkSwitch, mkTraffic, err := sp.Factories()
		if err != nil {
			t.Fatalf("normalized %+v: %v", r, err)
		}
		base := sp.SimConfig()
		base.Warmup, base.Measure = 5, 20
		if _, err := sim.LoadSweep(base, mkSwitch, mkTraffic, r.Loads, 1); err != nil {
			t.Fatalf("normalized %+v: %v", r, err)
		}
	})
}
