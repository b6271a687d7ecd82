package manycore

import (
	"context"
	"errors"
	"testing"

	"github.com/reprolab/hirise/internal/cache"
	"github.com/reprolab/hirise/internal/core"
	"github.com/reprolab/hirise/internal/crossbar"
	"github.com/reprolab/hirise/internal/sim"
	"github.com/reprolab/hirise/internal/topo"
	"github.com/reprolab/hirise/internal/trace"
)

func uniformBenches(t testing.TB, name string, n int) []trace.Benchmark {
	t.Helper()
	b, err := trace.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]trace.Benchmark, n)
	for i := range out {
		out[i] = b
	}
	return out
}

func quickCfg() Config {
	return Config{Warmup: 5000, Measure: 20000, Seed: 3}
}

func mustRun(t testing.TB, cfg Config, sw sim.Switch, benches []trace.Benchmark) Result {
	t.Helper()
	sys, err := New(cfg, sw, benches)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRunCancelled: a cancelled Config.Ctx stops Run, and the address
// mode's cache calibration in New, with the context's error.
func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := quickCfg()
	cfg.Ctx = ctx
	sys, err := New(cfg, crossbar.New(64), uniformBenches(t, "mcf", 64))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); !errors.Is(err, context.Canceled) {
		t.Errorf("Run err = %v, want context.Canceled", err)
	}
	// An L1 geometry no other test uses, so no memoized profile skips
	// the calibration.
	cfg.AddressMode = true
	cfg.L1 = cache.Config{SizeBytes: 24 << 10, Ways: 3, BlockBytes: 64}
	if _, err := New(cfg, crossbar.New(64), uniformBenches(t, "milc", 64)); !errors.Is(err, context.Canceled) {
		t.Errorf("address-mode New err = %v, want context.Canceled", err)
	}
}

func TestLowMPKIRunsNearIssueWidth(t *testing.T) {
	// sjeng (MPKI 1.5) should retire close to 2 IPC per core.
	r := mustRun(t, quickCfg(), crossbar.New(64), uniformBenches(t, "sjeng", 64))
	for i, ipc := range r.PerCoreIPC {
		if ipc < 1.7 || ipc > 2.0 {
			t.Fatalf("core %d IPC %.2f, want near 2", i, ipc)
		}
	}
}

func TestHighMPKISlowsCores(t *testing.T) {
	lo := mustRun(t, quickCfg(), crossbar.New(64), uniformBenches(t, "sjeng", 64))
	hi := mustRun(t, quickCfg(), crossbar.New(64), uniformBenches(t, "mcf", 64))
	if hi.SystemIPC >= 0.8*lo.SystemIPC {
		t.Errorf("mcf system IPC %.1f not clearly below sjeng %.1f", hi.SystemIPC, lo.SystemIPC)
	}
	if hi.MemAccesses == 0 || hi.NetPackets == 0 {
		t.Error("no memory/network activity recorded for mcf")
	}
}

func TestFasterSwitchHelpsMemoryBoundWork(t *testing.T) {
	benches := uniformBenches(t, "mcf", 64)
	slow := quickCfg()
	slow.SwitchGHz = 1.69
	fast := quickCfg()
	fast.SwitchGHz = 2.2
	rSlow := mustRun(t, slow, crossbar.New(64), benches)
	rFast := mustRun(t, fast, crossbar.New(64), benches)
	if rFast.SystemIPC <= rSlow.SystemIPC {
		t.Errorf("faster switch IPC %.2f not above slower %.2f", rFast.SystemIPC, rSlow.SystemIPC)
	}
}

func TestHiRiseSwitchWorksAsInterconnect(t *testing.T) {
	sw, err := core.New(topo.Config{
		Radix: 64, Layers: 4, Channels: 4,
		Alloc: topo.InputBinned, Scheme: topo.CLRG, Classes: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg()
	cfg.SwitchGHz = 2.2
	r := mustRun(t, cfg, sw, uniformBenches(t, "milc", 64))
	if r.SystemIPC <= 0 || r.NetPackets == 0 {
		t.Fatalf("no progress through Hi-Rise: %+v", r)
	}
	// One-way latency can never beat the packet's own serialization
	// (arbitration + 4 flits).
	if r.AvgNetLatency < 5 {
		t.Errorf("avg network latency %.1f below physical minimum", r.AvgNetLatency)
	}
}

func TestMixedWorkloadIPCOrdering(t *testing.T) {
	// Within one run, low-MPKI cores must retire faster than high-MPKI
	// cores.
	benches := uniformBenches(t, "sjeng", 64)
	heavy, err := trace.Lookup("mcf")
	if err != nil {
		t.Fatal(err)
	}
	for i := 32; i < 64; i++ {
		benches[i] = heavy
	}
	r := mustRun(t, quickCfg(), crossbar.New(64), benches)
	var light, heavyIPC float64
	for i := 0; i < 32; i++ {
		light += r.PerCoreIPC[i] / 32
	}
	for i := 32; i < 64; i++ {
		heavyIPC += r.PerCoreIPC[i] / 32
	}
	if heavyIPC >= light {
		t.Errorf("mcf cores IPC %.2f not below sjeng cores %.2f", heavyIPC, light)
	}
}

func TestDeterminism(t *testing.T) {
	benches := uniformBenches(t, "milc", 64)
	a := mustRun(t, quickCfg(), crossbar.New(64), benches)
	b := mustRun(t, quickCfg(), crossbar.New(64), benches)
	if a.SystemIPC != b.SystemIPC || a.NetPackets != b.NetPackets {
		t.Error("identical configs diverged")
	}
}

func TestValidation(t *testing.T) {
	benches := uniformBenches(t, "milc", 64)
	if _, err := New(Config{Cores: 32}, crossbar.New(64), benches); err == nil {
		t.Error("core/radix mismatch accepted")
	}
	if _, err := New(Config{}, crossbar.New(64), benches[:10]); err == nil {
		t.Error("short benchmark list accepted")
	}
	bad := Config{}
	bad.Defaults()
	bad.MCCount = 7
	if _, err := New(bad, crossbar.New(64), benches); err == nil {
		t.Error("non-divisible MC count accepted")
	}
}

func TestDefaultsMatchTableIII(t *testing.T) {
	var c Config
	c.Defaults()
	if c.Cores != 64 || c.CoreGHz != 2.0 || c.IssueWidth != 2 ||
		c.L2HitCycles != 6 || c.MemCycles != 160 || c.MCCount != 8 || c.MaxOutstanding != 16 {
		t.Errorf("defaults diverge from Table III: %+v", c)
	}
}

func TestMCBandwidthBoundsMemoryThroughput(t *testing.T) {
	// Every core streams through memory: aggregate memory accesses per
	// cycle cannot exceed MCCount / MCServiceCycles.
	cfg := quickCfg()
	cfg.MCServiceCycles = 8 // tighten to make the bound visible
	r := mustRun(t, cfg, crossbar.New(64), uniformBenches(t, "mcf", 64))
	perCycle := float64(r.MemAccesses) / float64(cfg.Measure)
	bound := float64(8) / 8
	if perCycle > bound*1.02 {
		t.Errorf("memory throughput %.3f lines/cycle exceeds DDR bound %.3f", perCycle, bound)
	}
}

func TestTighterMCBandwidthHurts(t *testing.T) {
	benches := uniformBenches(t, "mcf", 64)
	fast := quickCfg()
	fast.MCServiceCycles = 1
	slow := quickCfg()
	slow.MCServiceCycles = 16
	rf := mustRun(t, fast, crossbar.New(64), benches)
	rs := mustRun(t, slow, crossbar.New(64), benches)
	if rs.SystemIPC >= rf.SystemIPC {
		t.Errorf("16-cycle DDR service IPC %.1f not below 1-cycle %.1f", rs.SystemIPC, rf.SystemIPC)
	}
}

func BenchmarkManycoreMix(b *testing.B) {
	mix := trace.TableVIMixes()[4]
	benches, err := mix.Assign(64, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Warmup: 1000, Measure: 5000, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustRun(b, cfg, crossbar.New(64), benches)
	}
}
