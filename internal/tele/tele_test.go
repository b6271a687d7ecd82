package tele

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// drive ticks the sampler through cycles [0, total).
func drive(s *Sampler, total int64) {
	for c := int64(0); c < total; c++ {
		s.Tick(c + 1)
	}
}

// counter registers a counter series that reads a count of its own, as
// the simulators' series read their obs counters, and returns the
// count. On a nil sampler the count is still live but unread.
func counter(s *Sampler, name string) *int64 {
	c := new(int64)
	s.CounterFunc(name, func() int64 { return *c })
	return c
}

// TestCounterWindows: counter deltas land one per window, and the
// trailing partial window is dropped.
func TestCounterWindows(t *testing.T) {
	s := NewSampler(10, 64)
	c := counter(s, "events")
	for cyc := int64(0); cyc < 35; cyc++ {
		*c++ // one event per cycle
		if cyc%2 == 0 {
			*c++ // plus one every other cycle
		}
		s.Tick(cyc + 1)
	}
	// 35 cycles of 10-cycle windows: 3 full windows, 5 cycles dropped.
	if got := s.Windows(); got != 3 {
		t.Fatalf("Windows() = %d, want 3", got)
	}
	want := []float64{15, 15, 15} // 10 + 5 extra per window
	got := s.Values("events")
	if len(got) != len(want) {
		t.Fatalf("Values = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Values = %v, want %v", got, want)
		}
	}
	if w := s.Window(); w != 10 {
		t.Fatalf("Window() = %d, want 10", w)
	}
}

// TestGaugeWindows: gauges snapshot the value at each window close.
func TestGaugeWindows(t *testing.T) {
	s := NewSampler(4, 64)
	var level float64
	s.GaugeFunc("depth", func() float64 { return level })
	for cyc := int64(0); cyc < 12; cyc++ {
		level = float64(cyc)
		s.Tick(cyc + 1)
	}
	// Closes at cycle counts 4, 8, 12 → levels 3, 7, 11.
	want := []float64{3, 7, 11}
	got := s.Values("depth")
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("gauge values = %v, want %v", got, want)
	}
}

// TestDecimation: hitting the sample bound halves the series (counters
// sum, gauges keep the later snapshot), doubles the window, and stays
// aligned, at any run length.
func TestDecimation(t *testing.T) {
	s := NewSampler(2, 8)
	c := counter(s, "n")
	var level float64
	s.GaugeFunc("g", func() float64 { return level })
	for cyc := int64(0); cyc < 64; cyc++ {
		*c++
		level = float64(cyc + 1)
		s.Tick(cyc + 1)
	}
	// 64 cycles: 32 windows of 2 → decimated to 16 of 4 → 8 of 8 →
	// decimated to 4 of 16, then 4 more windows of 16... walk it:
	// bound 8, so decimations happen whenever stored count hits 8.
	if s.Window() != 16 {
		t.Fatalf("Window() = %d after 64 cycles (bound 8, base 2), want 16", s.Window())
	}
	if got := s.Windows(); got != 4 {
		t.Fatalf("Windows() = %d, want 4", got)
	}
	// Counter deltas must sum to the total count regardless of merging.
	var sum float64
	for _, v := range s.Values("n") {
		if v != 16 {
			t.Fatalf("counter samples = %v, want all 16", s.Values("n"))
		}
		sum += v
	}
	if sum != 64 {
		t.Fatalf("counter mass = %v, want 64 (conserved across decimation)", sum)
	}
	// Gauges keep the later snapshot: window i covers cycles
	// [16i,16(i+1)) and closes at level 16(i+1).
	g := s.Values("g")
	for i, v := range g {
		if v != float64(16*(i+1)) {
			t.Fatalf("gauge samples = %v, want close-of-window levels", g)
		}
	}
	// 32 windows of 2 collapse through three generations: bound 8 is
	// hit at cycles 16, 32, and 64.
	if s.Decimations() != 3 {
		t.Fatalf("Decimations() = %d, want 3", s.Decimations())
	}
}

// TestDecimationEquivalence: a coarse sampler and a decimated fine
// sampler agree on counter tracks once their windows match.
func TestDecimationEquivalence(t *testing.T) {
	fine := NewSampler(4, 8)
	coarse := NewSampler(32, 64)
	cf, cc := counter(fine, "n"), counter(coarse, "n")
	for cyc := int64(0); cyc < 160; cyc++ {
		if cyc%3 == 0 {
			*cf++
			*cc++
		}
		fine.Tick(cyc + 1)
		coarse.Tick(cyc + 1)
	}
	if fine.Window() != coarse.Window() {
		t.Fatalf("windows diverged: fine %d, coarse %d", fine.Window(), coarse.Window())
	}
	fv, cv := fine.Values("n"), coarse.Values("n")
	if len(fv) != len(cv) {
		t.Fatalf("lengths diverged: %v vs %v", fv, cv)
	}
	for i := range fv {
		if fv[i] != cv[i] {
			t.Fatalf("decimated fine %v != native coarse %v", fv, cv)
		}
	}
}

// TestNilSafety: every method on a nil sampler is a safe no-op, and
// registering on it never calls the source.
func TestNilSafety(t *testing.T) {
	var s *Sampler
	s.CounterFunc("y", func() int64 { t.Fatal("nil sampler read a counter"); return 1 })
	s.GaugeFunc("z", func() float64 { return 1 })
	if s.Tick(1000) {
		t.Fatal("nil sampler closed a window")
	}
	if s.Window() != 0 || s.Windows() != 0 || s.Decimations() != 0 {
		t.Fatal("nil sampler reports nonzero state")
	}
	if s.Values("x") != nil || s.Series() != nil {
		t.Fatal("nil sampler returned data")
	}
}

// TestDisabledPathAllocs: the per-cycle cost of disabled telemetry —
// a count no sampler reads and a nil-sampler Tick — is 0 allocs/op.
func TestDisabledPathAllocs(t *testing.T) {
	var s *Sampler
	c := counter(s, "x")
	allocs := testing.AllocsPerRun(1000, func() {
		for i := int64(0); i < 100; i++ {
			*c++
			s.Tick(i)
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled telemetry path allocates %.1f/op, want 0", allocs)
	}
}

// TestEnabledSteadyStateAllocs: once a sampler's series storage is at
// capacity-steady-state, ticking and closing windows stays
// allocation-free (append reuses capacity, decimation is in place).
func TestEnabledSteadyStateAllocs(t *testing.T) {
	s := NewSampler(4, 16)
	c := counter(s, "n")
	s.GaugeFunc("g", func() float64 { return 1 })
	drive(s, 4*64) // well past the first decimations
	var cyc int64 = 4 * 64
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			*c++
			cyc++
			s.Tick(cyc)
		}
	})
	if allocs != 0 {
		t.Fatalf("enabled steady-state path allocates %.1f/op, want 0", allocs)
	}
}

// TestCounterFunc: counter series sample the source's per-window
// deltas.
func TestCounterFunc(t *testing.T) {
	s := NewSampler(5, 8)
	var total int64
	s.CounterFunc("jobs", func() int64 { return total })
	for cyc := int64(0); cyc < 20; cyc++ {
		total += 2
		s.Tick(cyc + 1)
	}
	for _, v := range s.Values("jobs") {
		if v != 10 {
			t.Fatalf("CounterFunc deltas = %v, want all 10", s.Values("jobs"))
		}
	}
}

// TestCounterFuncBase: a source already nonzero at registration (an
// obs counter shared with earlier runs, say) contributes only the
// events counted after registration.
func TestCounterFuncBase(t *testing.T) {
	s := NewSampler(5, 8)
	total := int64(1000)
	s.CounterFunc("jobs", func() int64 { return total })
	for cyc := int64(0); cyc < 10; cyc++ {
		total += 2
		s.Tick(cyc + 1)
	}
	got := s.Values("jobs")
	if len(got) != 2 || got[0] != 10 || got[1] != 10 {
		t.Fatalf("CounterFunc deltas = %v, want [10 10]", got)
	}
}

// TestDuplicateRegistration: registering a series name twice panics,
// whether as the same kind or across kinds.
func TestDuplicateRegistration(t *testing.T) {
	for name, second := range map[string]func(s *Sampler){
		"counter": func(s *Sampler) { counter(s, "n") },
		"gauge":   func(s *Sampler) { s.GaugeFunc("n", func() float64 { return 0 }) },
	} {
		func() {
			s := NewSampler(4, 8)
			counter(s, "n")
			defer func() {
				if recover() == nil {
					t.Errorf("registering a %s over a counter did not panic", name)
				}
			}()
			second(s)
		}()
	}
}

// TestMSERConstantSeries: a stationary series converges with cut 0.
func TestMSERConstantSeries(t *testing.T) {
	x := make([]float64, 32)
	for i := range x {
		x[i] = 7
	}
	cut, ok := MSER(x)
	if !ok || cut != 0 {
		t.Fatalf("MSER(constant) = (%d, %v), want (0, true)", cut, ok)
	}
}

// TestMSERRampThenSteady: the cut lands at (or just past) the end of
// the initialization ramp.
func TestMSERRampThenSteady(t *testing.T) {
	x := make([]float64, 64)
	for i := range x {
		if i < 10 {
			x[i] = float64(i) // warmup ramp 0..9
		} else {
			x[i] = 10 + 0.1*math.Sin(float64(i)) // small stationary wiggle
		}
	}
	cut, ok := MSER(x)
	if !ok {
		t.Fatalf("MSER(ramp+steady) did not converge")
	}
	if cut < 8 || cut > 12 {
		t.Fatalf("MSER cut = %d, want near ramp end 10", cut)
	}
}

// TestMSERTrendNotConverged: a linear drift never settles — its z(d)
// decreases all the way to the d = n/2 boundary, which the acceptance
// rule rejects.
func TestMSERTrendNotConverged(t *testing.T) {
	x := make([]float64, 64)
	for i := range x {
		x[i] = 3 * float64(i)
	}
	if _, ok := MSER(x); ok {
		t.Fatal("MSER(linear trend) reported converged")
	}
}

// TestMSERShortSeries: fewer than 8 samples is never a verdict.
func TestMSERShortSeries(t *testing.T) {
	if _, ok := MSER([]float64{1, 1, 1, 1, 1, 1, 1}); ok {
		t.Fatal("MSER on 7 samples reported converged")
	}
	if cut, ok := MSER(nil); cut != 0 || ok {
		t.Fatal("MSER(nil) not (0, false)")
	}
}

// TestMSERAllocs: the detector is allocation-free so it can run at
// every window close under -converge-stop.
func TestMSERAllocs(t *testing.T) {
	x := make([]float64, 512)
	for i := range x {
		x[i] = float64(i % 7)
	}
	if allocs := testing.AllocsPerRun(100, func() { MSER(x) }); allocs != 0 {
		t.Fatalf("MSER allocates %.1f/op, want 0", allocs)
	}
}

// TestWriteNDJSONAndValidate: writer output round-trips through the
// validator with the right sample count, and is deterministic.
func TestWriteNDJSONAndValidate(t *testing.T) {
	mk := func() *Sampler {
		s := NewSampler(8, 16)
		c := counter(s, "flits")
		s.GaugeFunc("queue", func() float64 { return 3.5 })
		for cyc := int64(0); cyc < 40; cyc++ {
			*c++
			s.Tick(cyc + 1)
		}
		return s
	}
	var a, b bytes.Buffer
	if err := WriteNDJSON(&a, []*Sampler{mk(), nil, mk()}); err != nil {
		t.Fatal(err)
	}
	if err := WriteNDJSON(&b, []*Sampler{mk(), nil, mk()}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("WriteNDJSON is not deterministic")
	}
	n, err := ValidateNDJSON(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatalf("ValidateNDJSON: %v\n%s", err, a.String())
	}
	// 2 live runs × 2 series × 5 windows.
	if n != 20 {
		t.Fatalf("ValidateNDJSON samples = %d, want 20", n)
	}
	// Nil runs keep their index: the second live sampler is run 2.
	if !strings.Contains(a.String(), `"run":2`) {
		t.Fatalf("nil run did not preserve indices:\n%s", a.String())
	}
}

// TestWriteNDJSONNonFinite: NaN gauge snapshots serialize as null and
// still validate.
func TestWriteNDJSONNonFinite(t *testing.T) {
	s := NewSampler(4, 8)
	s.GaugeFunc("bad", func() float64 { return math.NaN() })
	drive(s, 8)
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, []*Sampler{s}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "null") {
		t.Fatalf("NaN did not serialize as null: %s", buf.String())
	}
	if _, err := ValidateNDJSON(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("ValidateNDJSON rejected nulls: %v", err)
	}
}

// TestValidateNDJSONRejects: malformed streams are caught.
func TestValidateNDJSONRejects(t *testing.T) {
	cases := map[string]string{
		"empty stream":    "",
		"not json":        "nope\n",
		"missing run":     `{"series":"x","kind":"counter","window":4,"samples":0,"values":[]}` + "\n",
		"bad kind":        `{"run":0,"series":"x","kind":"meter","window":4,"samples":0,"values":[]}` + "\n",
		"zero window":     `{"run":0,"series":"x","kind":"gauge","window":0,"samples":0,"values":[]}` + "\n",
		"count mismatch":  `{"run":0,"series":"x","kind":"gauge","window":4,"samples":3,"values":[1]}` + "\n",
		"empty series":    `{"run":0,"series":"","kind":"gauge","window":4,"samples":0,"values":[]}` + "\n",
		"unknown field":   `{"run":0,"series":"x","kind":"gauge","window":4,"samples":0,"values":[],"extra":1}` + "\n",
		"duplicate track": strings.Repeat(`{"run":0,"series":"x","kind":"gauge","window":4,"samples":0,"values":[]}`+"\n", 2),
	}
	for name, in := range cases {
		if _, err := ValidateNDJSON(strings.NewReader(in)); err == nil {
			t.Errorf("%s: validator accepted %q", name, in)
		}
	}
}
