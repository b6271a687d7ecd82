package core

import (
	"testing"

	"github.com/reprolab/hirise/internal/prng"
	"github.com/reprolab/hirise/internal/topo"
)

func cfg(channels int, scheme topo.Scheme) topo.Config {
	return topo.Config{
		Radix: 64, Layers: 4, Channels: channels,
		Alloc: topo.InputBinned, Scheme: scheme, Classes: 3,
	}
}

func mustNew(t *testing.T, c topo.Config) *Switch {
	t.Helper()
	s, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func reqVec(n int, pairs map[int]int) []int {
	r := make([]int, n)
	for i := range r {
		r[i] = -1
	}
	for in, out := range pairs {
		r[in] = out
	}
	return r
}

// grantSeq runs single-cycle transactions (grant, record, release) and
// returns the winner sequence, mirroring the paper's arbitration-cycle
// walkthroughs in Figs 4 and 5.
func grantSeq(s *Switch, req []int, cycles int) []int {
	var seq []int
	for i := 0; i < cycles; i++ {
		g := s.Arbitrate(req)
		for _, gr := range g {
			seq = append(seq, gr.In)
			s.Release(gr.In)
		}
	}
	return seq
}

func TestNewValidates(t *testing.T) {
	if _, err := New(topo.Config{Radix: 63, Layers: 4, Channels: 1}); err == nil {
		t.Error("invalid radix accepted")
	}
	if _, err := New(topo.Config{Radix: 64, Layers: 1}); err == nil {
		t.Error("single layer accepted")
	}
}

// TestValidateMatchesNew pins that Validate accepts exactly what New
// accepts, with the same messages, so callers can check a configuration
// without building a switch.
func TestValidateMatchesNew(t *testing.T) {
	for _, c := range []topo.Config{
		cfg(4, topo.CLRG),
		{Radix: 63, Layers: 4, Channels: 1},
		{Radix: 64, Layers: 1},
		{Radix: 64, Layers: 4, Channels: 0},
		{Radix: 64, Layers: 4, Channels: 3, Alloc: topo.InputBinned},
		{Radix: 64, Layers: 4, Channels: 4, Scheme: topo.CLRG, Classes: 1},
	} {
		_, newErr := New(c)
		valErr := Validate(c)
		if (newErr == nil) != (valErr == nil) || (newErr != nil && newErr.Error() != valErr.Error()) {
			t.Errorf("%+v: New error %v, Validate error %v", c, newErr, valErr)
		}
	}
}

func TestSameLayerConnection(t *testing.T) {
	s := mustNew(t, cfg(1, topo.L2LLRG))
	// Input 0 and output 5 are both on layer 0: local path, no L2LC.
	g := s.Arbitrate(reqVec(64, map[int]int{0: 5}))
	if len(g) != 1 || g[0] != (topo.Grant{In: 0, Out: 5}) {
		t.Fatalf("grants %v", g)
	}
	if s.HeldChannel(0) != -1 {
		t.Fatal("same-layer connection should not occupy an L2LC")
	}
}

func TestCrossLayerConnectionUsesChannel(t *testing.T) {
	c := cfg(1, topo.L2LLRG)
	s := mustNew(t, c)
	g := s.Arbitrate(reqVec(64, map[int]int{0: 63}))
	if len(g) != 1 || g[0] != (topo.Grant{In: 0, Out: 63}) {
		t.Fatalf("grants %v", g)
	}
	want := c.L2LCID(0, 3, 0)
	if got := s.HeldChannel(0); got != want {
		t.Fatalf("held channel %d, want %d", got, want)
	}
	if !s.ChannelBusy(want) {
		t.Fatal("channel not marked busy")
	}
	s.Release(0)
	if s.ChannelBusy(want) || s.OutputBusy(63) || s.Holds(0) != -1 {
		t.Fatal("release did not free all resources")
	}
}

func TestBusyChannelBlocksOtherInputs(t *testing.T) {
	// c=1: input 0 holds the only L1->L4 channel; input 1 cannot reach any
	// layer-3 output until release, even a different one.
	s := mustNew(t, cfg(1, topo.L2LLRG))
	s.Arbitrate(reqVec(64, map[int]int{0: 63}))
	if g := s.Arbitrate(reqVec(64, map[int]int{1: 62})); len(g) != 0 {
		t.Fatalf("grant through busy channel: %v", g)
	}
	s.Release(0)
	if g := s.Arbitrate(reqVec(64, map[int]int{1: 62})); len(g) != 1 {
		t.Fatal("channel not reusable after release")
	}
}

func TestChannelMultiplicityAddsPaths(t *testing.T) {
	// c=4 input-binned: inputs 0 and 1 use different channels to layer 3,
	// so both connect in the same cycle.
	s := mustNew(t, cfg(4, topo.L2LLRG))
	g := s.Arbitrate(reqVec(64, map[int]int{0: 63, 1: 62}))
	if len(g) != 2 {
		t.Fatalf("grants %v, want both connections", g)
	}
	if s.HeldChannel(0) == s.HeldChannel(1) {
		t.Fatal("binned inputs 0 and 1 should use distinct channels")
	}
}

func TestInputBinnedSharesChannel(t *testing.T) {
	// Inputs 0 and 4 share channel 0 (local index % 4), so only one wins
	// per cycle even toward different outputs.
	s := mustNew(t, cfg(4, topo.L2LLRG))
	g := s.Arbitrate(reqVec(64, map[int]int{0: 63, 4: 62}))
	if len(g) != 1 {
		t.Fatalf("grants %v, want exactly one through the shared channel", g)
	}
}

// TestPaperFig4Sequence reproduces the paper's baseline L-2-L LRG
// unfairness walkthrough: inputs {3,7,11,15} on layer 1 and input {20} on
// layer 2 all request output 63 on layer 4 (1-channel config). The lone
// contender wins every other arbitration — the unfair interleaving of
// paper Fig 4 — here starting from the model's default priority order.
func TestPaperFig4Sequence(t *testing.T) {
	s := mustNew(t, cfg(1, topo.L2LLRG))
	req := reqVec(64, map[int]int{3: 63, 7: 63, 11: 63, 15: 63, 20: 63})
	got := grantSeq(s, req, 10)
	want := []int{3, 20, 7, 20, 11, 20, 15, 20, 3, 20}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence %v, want %v", got, want)
		}
	}
}

// TestPaperFig5Sequence reproduces the CLRG walkthrough on the same
// adversarial pattern: after the first class rotation the winner sequence
// contains each of the five inputs exactly once per five grants, matching
// the flat 2D LRG pattern (paper Fig 5).
func TestPaperFig5Sequence(t *testing.T) {
	s := mustNew(t, cfg(1, topo.CLRG))
	req := reqVec(64, map[int]int{3: 63, 7: 63, 11: 63, 15: 63, 20: 63})
	got := grantSeq(s, req, 10)
	want := []int{3, 20, 7, 11, 15, 20, 3, 7, 11, 15}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence %v, want %v", got, want)
		}
	}
}

// TestAdversarialFairness quantifies Fig 11(c): under L-2-L LRG the lone
// layer-2 contender hoards ~half the output bandwidth; under CLRG and
// WLRG every input gets ~1/5.
func TestAdversarialFairness(t *testing.T) {
	req := reqVec(64, map[int]int{3: 63, 7: 63, 11: 63, 15: 63, 20: 63})
	const cycles = 1000

	count := func(scheme topo.Scheme) map[int]int {
		s := mustNew(t, cfg(1, scheme))
		wins := map[int]int{}
		for _, w := range grantSeq(s, req, cycles) {
			wins[w]++
		}
		return wins
	}

	l2l := count(topo.L2LLRG)
	if share := float64(l2l[20]) / cycles; share < 0.45 || share > 0.55 {
		t.Errorf("L-2-L LRG: input 20 share %.2f, want ~0.5", share)
	}

	for _, scheme := range []topo.Scheme{topo.CLRG, topo.WLRG} {
		wins := count(scheme)
		for _, in := range []int{3, 7, 11, 15, 20} {
			if share := float64(wins[in]) / cycles; share < 0.18 || share > 0.22 {
				t.Errorf("%v: input %d share %.2f, want ~0.2", scheme, in, share)
			}
		}
	}
}

// TestHotspotFairness quantifies Fig 11(a)'s root cause: with every input
// requesting output 63 (4-channel config), L-2-L LRG gives each remote
// input ~4x the bandwidth of a local one (12 L2LC lines with 4 inputs each
// vs 1 intermediate line with 16), while CLRG equalizes everyone.
func TestHotspotFairness(t *testing.T) {
	req := make([]int, 64)
	for i := range req {
		req[i] = 63
	}
	const cycles = 6400

	run := func(scheme topo.Scheme) (remote, local float64) {
		s := mustNew(t, cfg(4, scheme))
		wins := make([]int, 64)
		for _, w := range grantSeq(s, req, cycles) {
			wins[w]++
		}
		for i := 0; i < 48; i++ {
			remote += float64(wins[i]) / 48
		}
		for i := 48; i < 64; i++ {
			local += float64(wins[i]) / 16
		}
		return
	}

	remote, local := run(topo.L2LLRG)
	if ratio := remote / local; ratio < 3.5 || ratio > 4.5 {
		t.Errorf("L-2-L LRG remote/local win ratio %.2f, want ~4", ratio)
	}

	remote, local = run(topo.CLRG)
	if ratio := remote / local; ratio < 0.9 || ratio > 1.1 {
		t.Errorf("CLRG remote/local win ratio %.2f, want ~1", ratio)
	}
}

// TestISLIP1MatchesBaselineUnfairness verifies the paper's §VII claim: a
// single-iteration iSLIP analog reproduces the L-2-L LRG bias on the
// adversarial pattern — the lone layer-2 contender still hoards half the
// output.
func TestISLIP1MatchesBaselineUnfairness(t *testing.T) {
	s := mustNew(t, cfg(1, topo.ISLIP1))
	req := reqVec(64, map[int]int{3: 63, 7: 63, 11: 63, 15: 63, 20: 63})
	const cycles = 1000
	wins := map[int]int{}
	for _, w := range grantSeq(s, req, cycles) {
		wins[w]++
	}
	if share := float64(wins[20]) / cycles; share < 0.45 || share > 0.55 {
		t.Errorf("iSLIP-1: input 20 share %.2f, want ~0.5 (as unfair as L-2-L LRG)", share)
	}
}

// TestNoStarvation checks the back-propagated priority update argument
// (paper §III-B1): every persistent requestor is eventually served, under
// every scheme.
func TestNoStarvation(t *testing.T) {
	for _, scheme := range []topo.Scheme{topo.L2LLRG, topo.WLRG, topo.CLRG} {
		s := mustNew(t, cfg(4, scheme))
		req := make([]int, 64)
		for i := range req {
			req[i] = 63 // worst case: total hotspot
		}
		wins := make([]int, 64)
		for _, w := range grantSeq(s, req, 64*30) {
			wins[w]++
		}
		for in, w := range wins {
			if w == 0 {
				t.Errorf("%v: input %d starved over %d grants", scheme, in, 64*30)
			}
		}
	}
}

// TestResourceInvariants drives random traffic with random release timing
// and checks that no two live connections ever share an output or an
// L2LC, for every scheme and allocation policy.
func TestResourceInvariants(t *testing.T) {
	for _, scheme := range []topo.Scheme{topo.L2LLRG, topo.WLRG, topo.CLRG} {
		for _, alloc := range []topo.AllocPolicy{topo.InputBinned, topo.OutputBinned, topo.PriorityBased} {
			c := cfg(4, scheme)
			c.Alloc = alloc
			s := mustNew(t, c)
			src := prng.New(uint64(17 + int(scheme)*10 + int(alloc)))
			req := make([]int, 64)
			liveOut := map[int]int{}
			liveCh := map[int]int{}
			for cycle := 0; cycle < 1500; cycle++ {
				for i := range req {
					req[i] = -1
					if src.Bernoulli(0.5) {
						req[i] = src.Intn(64)
					}
				}
				for _, g := range s.Arbitrate(req) {
					if req[g.In] != g.Out {
						t.Fatalf("%v/%v: grant %v does not match request %d", scheme, alloc, g, req[g.In])
					}
					for _, o := range liveOut {
						if o == g.Out {
							t.Fatalf("%v/%v: output %d double-granted", scheme, alloc, g.Out)
						}
					}
					if _, dup := liveOut[g.In]; dup {
						t.Fatalf("%v/%v: input %d granted while holding", scheme, alloc, g.In)
					}
					liveOut[g.In] = g.Out
					if ch := s.HeldChannel(g.In); ch >= 0 {
						for _, other := range liveCh {
							if other == ch {
								t.Fatalf("%v/%v: channel %d double-held", scheme, alloc, ch)
							}
						}
						liveCh[g.In] = ch
					}
				}
				for in := range liveOut {
					if src.Bernoulli(0.25) {
						s.Release(in)
						delete(liveOut, in)
						delete(liveCh, in)
					}
				}
			}
		}
	}
}

// TestPriorityAllocationOutperformsBinningOnSkew exercises the paper's
// §III-A observation: fixed binning underutilizes channels under
// adversarial traffic where all requestors are bound to one bin, while
// priority allocation fills every free channel.
func TestPriorityAllocationOutperformsBinningOnSkew(t *testing.T) {
	// Inputs 0,4,8,12 all map to channel 0 under input binning (c=4), and
	// request distinct outputs on layer 3: binning serializes them;
	// priority allocation connects all four at once.
	pairs := map[int]int{0: 60, 4: 61, 8: 62, 12: 63}

	binned := mustNew(t, cfg(4, topo.L2LLRG))
	if g := binned.Arbitrate(reqVec(64, pairs)); len(g) != 1 {
		t.Fatalf("input-binned grants %v, want 1 (shared bin)", g)
	}

	c := cfg(4, topo.L2LLRG)
	c.Alloc = topo.PriorityBased
	pri := mustNew(t, c)
	if g := pri.Arbitrate(reqVec(64, pairs)); len(g) != 4 {
		t.Fatalf("priority-based grants %v, want all 4", g)
	}
}

func TestOutputBinnedUsesOutputIndex(t *testing.T) {
	c := cfg(4, topo.L2LLRG)
	c.Alloc = topo.OutputBinned
	s := mustNew(t, c)
	// Outputs 60 and 61 hash to different channels, so inputs 0 and 4
	// (same input bin) proceed in parallel under output binning.
	g := s.Arbitrate(reqVec(64, map[int]int{0: 60, 4: 61}))
	if len(g) != 2 {
		t.Fatalf("grants %v, want 2", g)
	}
}

// TestInterLayerOnlyWorstCase reproduces the paper's §VI-B pathological
// corner: four inputs sharing one L2LC request distinct outputs on
// another layer; aggregate bandwidth collapses to one connection per
// packet time regardless of scheme.
func TestInterLayerOnlyWorstCase(t *testing.T) {
	s := mustNew(t, cfg(4, topo.CLRG))
	// Inputs 0,4,8,12 share channel 0 toward layer 3.
	req := reqVec(64, map[int]int{0: 48, 4: 49, 8: 50, 12: 51})
	total := 0
	for i := 0; i < 100; i++ {
		g := s.Arbitrate(req)
		if len(g) > 1 {
			t.Fatalf("cycle %d: %d grants through one channel", i, len(g))
		}
		total += len(g)
		for _, gr := range g {
			s.Release(gr.In)
		}
	}
	if total != 100 {
		t.Fatalf("channel should stay fully utilized: %d/100", total)
	}
}

func TestClassAccessorGuard(t *testing.T) {
	s := mustNew(t, cfg(4, topo.L2LLRG))
	defer func() {
		if recover() == nil {
			t.Fatal("Class on non-CLRG should panic")
		}
	}()
	s.Class(0, 0)
}

func TestCLRGClassesAdvanceWithWins(t *testing.T) {
	s := mustNew(t, cfg(1, topo.CLRG))
	req := reqVec(64, map[int]int{0: 63})
	for i := 0; i < 2; i++ {
		g := s.Arbitrate(req)
		s.Release(g[0].In)
	}
	if cl := s.Class(63, 0); cl != 2 {
		t.Fatalf("input 0 class %d after 2 wins, want 2", cl)
	}
	if cl := s.Class(63, 1); cl != 0 {
		t.Fatalf("idle input class %d, want 0", cl)
	}
}

func TestStatsCounters(t *testing.T) {
	c := cfg(4, topo.CLRG)
	s := mustNew(t, c)
	// One local connection and one cross-layer connection.
	g := s.Arbitrate(reqVec(64, map[int]int{0: 5, 1: 63}))
	if len(g) != 2 {
		t.Fatalf("grants %v", g)
	}
	st := s.Stats()
	if st.LocalPath != 1 {
		t.Errorf("local path count %d, want 1", st.LocalPath)
	}
	var chTotal int64
	for _, v := range st.ChannelGrants {
		chTotal += v
	}
	if chTotal != 1 {
		t.Errorf("channel grants %d, want 1", chTotal)
	}
	if st.OutputGrants[5] != 1 || st.OutputGrants[63] != 1 {
		t.Errorf("output grants wrong: %v %v", st.OutputGrants[5], st.OutputGrants[63])
	}
	// Snapshot independence: mutating the copy must not affect the switch.
	st.ChannelGrants[0] = 999
	if s.Stats().ChannelGrants[0] == 999 {
		t.Error("Stats returned a live slice")
	}
}

func TestStatsBalancedUnderUniform(t *testing.T) {
	// Input binning over uniform traffic must spread connections across
	// all L2LCs within a reasonable factor.
	s := mustNew(t, cfg(4, topo.CLRG))
	src := prng.New(44)
	req := make([]int, 64)
	for cycle := 0; cycle < 4000; cycle++ {
		for i := range req {
			req[i] = src.Intn(64)
		}
		for _, g := range s.Arbitrate(req) {
			s.Release(g.In)
		}
	}
	st := s.Stats()
	min, max := st.ChannelGrants[0], st.ChannelGrants[0]
	for _, v := range st.ChannelGrants {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if min == 0 || float64(max)/float64(min) > 2 {
		t.Errorf("channel grant imbalance: min %d max %d", min, max)
	}
}

func TestArbitratePanicsOnBadLength(t *testing.T) {
	s := mustNew(t, cfg(1, topo.L2LLRG))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Arbitrate(make([]int, 8))
}

func BenchmarkArbitrateUniform(b *testing.B) {
	s, err := New(cfg(4, topo.CLRG))
	if err != nil {
		b.Fatal(err)
	}
	src := prng.New(1)
	req := make([]int, 64)
	for i := range req {
		req[i] = src.Intn(64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range s.Arbitrate(req) {
			s.Release(g.In)
		}
	}
}
