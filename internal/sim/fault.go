package sim

import (
	"fmt"
)

// Optional switch capabilities the fault-aware simulator probes for.
// core.Switch implements all three; crossbar.Switch implements the
// introspection and path interfaces (it has no channels). A switch
// without a capability simply skips the corresponding behaviour.
type (
	// faultIntrospect exposes port fault state for the invariant checker.
	faultIntrospect interface {
		InputFailed(in int) bool
		OutputFailed(out int) bool
	}
	// xpIntrospect exposes crosspoint fault state (crossbar.Switch).
	xpIntrospect interface {
		CrosspointFailed(in, out int) bool
	}
	// channelHolder maps a connected input to the L2LC it crosses; the
	// lossy-link model drops the flits of connections crossing a channel
	// during an outage.
	channelHolder interface {
		HeldChannel(in int) int
		ChannelFailed(cid int) bool
	}
	// pathBlocker reports severed input→output paths for dead-flow
	// retirement.
	pathBlocker interface {
		PathBlocked(in, out int) bool
	}
)

// FaultStats aggregates the fault plane's activity over one whole run,
// warmup included (like the obs sinks, it observes the simulation, not
// the measurement window).
type FaultStats struct {
	// FailEvents and RepairEvents count fault onsets and repairs the
	// injector applied; SkippedEvents counts the ones the switch could
	// not apply (missing capability or refused call).
	FailEvents, RepairEvents, SkippedEvents int64
	// FlitsDropped counts flits lost crossing lossy channel outages.
	FlitsDropped int64
	// Retransmissions counts source-side packet retransmissions.
	Retransmissions int64
	// RetryExhausted counts packets abandoned after the retry budget.
	RetryExhausted int64
	// DeadFlows counts queued packets retired because every path to
	// their destination had failed.
	DeadFlows int64
}

// checker is the self-checking invariant layer (Config.Check): it
// verifies online that no grant lands on a failed resource and no
// packet is delivered twice, and at end of run that every injected
// packet is accounted for. It observes the simulation without changing
// it.
type checker struct {
	intro  faultIntrospect
	xp     xpIntrospect
	holder channelHolder
	seen   []map[int64]struct{} // per input: ids of delivered packets
	// injected and delivered count packets over the whole run (warmup
	// included), unlike the Result counters, so conservation closes.
	injected, delivered int64
}

func newChecker(sw Switch, n int) *checker {
	c := &checker{seen: make([]map[int64]struct{}, n)}
	c.intro, _ = sw.(faultIntrospect)
	c.xp, _ = sw.(xpIntrospect)
	c.holder, _ = sw.(channelHolder)
	for i := range c.seen {
		c.seen[i] = make(map[int64]struct{})
	}
	return c
}

// checkGrant verifies a freshly formed connection touches no failed
// resource. The injector advances before arbitration, so any resource
// failed at this cycle is already masked — a grant that lands on one is
// an arbitration bug, not a race.
func (c *checker) checkGrant(cycle int64, in, out int) error {
	if c.intro != nil {
		if c.intro.InputFailed(in) {
			return fmt.Errorf("sim: invariant violation at cycle %d: grant landed on failed input %d", cycle, in)
		}
		if c.intro.OutputFailed(out) {
			return fmt.Errorf("sim: invariant violation at cycle %d: grant landed on failed output %d", cycle, out)
		}
	}
	if c.xp != nil && c.xp.CrosspointFailed(in, out) {
		return fmt.Errorf("sim: invariant violation at cycle %d: grant crossed failed crosspoint (%d,%d)", cycle, in, out)
	}
	if c.holder != nil {
		if cid := c.holder.HeldChannel(in); cid >= 0 && c.holder.ChannelFailed(cid) {
			return fmt.Errorf("sim: invariant violation at cycle %d: grant %d->%d crossed failed channel %d", cycle, in, out, cid)
		}
	}
	return nil
}

// recordDelivery verifies every packet is delivered at most once (no
// duplication by the retransmission protocol). id identifies the packet
// among its input's injections; the engine passes the birth cycle,
// which is unique per input because an input injects at most one
// packet per cycle.
func (c *checker) recordDelivery(cycle int64, in int, id int64) error {
	if _, dup := c.seen[in][id]; dup {
		return fmt.Errorf("sim: invariant violation at cycle %d: input %d packet %d delivered twice", cycle, in, id)
	}
	c.seen[in][id] = struct{}{}
	c.delivered++
	return nil
}

// conservation closes the flit-accounting ledger at end of run: every
// packet that entered a source queue was delivered, is still queued or
// in flight, or was dropped with its drop counted.
func (c *checker) conservation(inFlight int64, fs FaultStats) error {
	accounted := c.delivered + inFlight + fs.RetryExhausted + fs.DeadFlows
	if c.injected != accounted {
		return fmt.Errorf("sim: conservation violation: injected %d != delivered %d + in-flight %d + retry-exhausted %d + dead flows %d",
			c.injected, c.delivered, inFlight, fs.RetryExhausted, fs.DeadFlows)
	}
	return nil
}
