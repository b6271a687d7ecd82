package experiments

import (
	"testing"
)

// shootoutRow finds the row for (traffic, sched, speedup).
func shootoutRow(t *testing.T, tb *Table, pattern, sched, s string) []string {
	t.Helper()
	for _, row := range tb.Rows {
		if row[0] == pattern && row[1] == sched && row[2] == s {
			return row
		}
	}
	t.Fatalf("no row (%s, %s, S=%s) in %v", pattern, sched, s, tb.Rows)
	return nil
}

// TestSchedShootoutPins pins the campaign's two headline results: iSLIP
// desynchronization gives (near-)100% throughput under uniform i.i.d.
// saturation on the VOQ crossbar, while the Hi-Rise ISLIP1 analog keeps
// the paper's §VII adversarial unfairness that the flat VOQ schedulers
// do not exhibit.
func TestSchedShootoutPins(t *testing.T) {
	tb := mustRun(t, SchedShootout, QuickOpts())
	if len(tb.Rows) != 4*6 {
		t.Fatalf("rows %d, want 24", len(tb.Rows))
	}

	// Multi-iteration iSLIP sustains >=95% of the offered load at
	// uniform saturation (util@1.00 is column 5).
	for _, sched := range []string{"iSLIP-2", "iSLIP-4"} {
		row := shootoutRow(t, tb, "uniform", sched, "1")
		if util := atof(t, row[5]); util < 0.95 {
			t.Errorf("%s uniform saturated util %.3f, want >= 0.95", sched, util)
		}
	}

	// The VOQ iSLIP rows are fair under the adversarial pattern: the
	// rotating grant pointer at the hot output serves the five active
	// inputs evenly.
	voq := shootoutRow(t, tb, "adversarial", "iSLIP-2", "1")
	if jain := atof(t, voq[6]); jain < 0.99 {
		t.Errorf("VOQ iSLIP-2 adversarial Jain %.3f, want >= 0.99", jain)
	}
	if ratio := atof(t, voq[7]); ratio > 1.2 {
		t.Errorf("VOQ iSLIP-2 adversarial max/min %.2f, want <= 1.2", ratio)
	}

	// The hierarchical ISLIP1 analog retains the §VII structural bias:
	// input 20 (alone on its layer's channel) dwarfs inputs 3/7/11/15.
	analog := shootoutRow(t, tb, "adversarial", "analog", "1")
	if ratio := atof(t, analog[7]); ratio < 2.5 {
		t.Errorf("analog adversarial max/min %.2f, want >= 2.5 (§VII unfairness)", ratio)
	}
	if jVOQ, jAnalog := atof(t, voq[6]), atof(t, analog[6]); jAnalog >= jVOQ {
		t.Errorf("analog Jain %.3f should trail VOQ iSLIP-2 Jain %.3f", jAnalog, jVOQ)
	}

	// Speedup 2 drains the bursty backlog at least as well as S=1.
	s1 := atof(t, shootoutRow(t, tb, "bursty", "iSLIP-1", "1")[5])
	s2 := atof(t, shootoutRow(t, tb, "bursty", "iSLIP-1", "2")[5])
	if s2 < s1-0.02 {
		t.Errorf("bursty iSLIP-1 util: S=2 %.3f below S=1 %.3f", s2, s1)
	}
}

// TestSchedShootoutWorkerInvariance pins the determinism contract: the
// rendered table is byte-identical at any -parallel worker count.
func TestSchedShootoutWorkerInvariance(t *testing.T) {
	o := QuickOpts()
	o.Warmup, o.Measure = 500, 2000
	serial, parallel := o, o
	serial.Workers = 1
	parallel.Workers = 4
	a, b := mustRun(t, SchedShootout, serial).String(), mustRun(t, SchedShootout, parallel).String()
	if a != b {
		t.Fatalf("worker-dependent table:\n--- workers=1 ---\n%s--- workers=4 ---\n%s", a, b)
	}
}
