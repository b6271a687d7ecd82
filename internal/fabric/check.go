package fabric

import (
	"fmt"
	"math/bits"
)

// checker is the fabric's self-checking invariant layer (Config.Check).
// It verifies online, at checkInterval cadence, that the credit
// bookkeeping and the VC-class discipline hold structurally, verifies
// every grant as it lands, and at end of run that every injected packet
// is accounted for. It observes the simulation without changing it; the
// campaigns and CLI keep it on for every shipped configuration.
//
// The checks, mapped to the deadlock argument in DESIGN.md §25:
//
//   - Grant sanity: a grant matches the request the fabric issued and
//     never lands on a failed lane or toward a failed router.
//   - Credit conservation: for every (input port, VC) the occupancy
//     plus outstanding reservations never exceeds the buffer bound, and
//     the reservation count equals exactly the in-flight transfers
//     targeting that slot (recounted over the reverse link map).
//   - Fast-path state: every output's mirrored free-VC bits equal the
//     downstream truth (occupancy + reservations < VCBufPkts; all VCs on
//     ejection ports), every input's occupancy and full bits equal its
//     non-empty and full VCs, every memoized route equals a fresh route
//     computation for the buffer's current head, and the active-port
//     bitset equals the ports with a connection.
//   - Sleeping inputs: an idle input with packets that the request phase
//     skips (its ready bit is clear) would request nothing that could
//     be granted if evaluated now, and is registered on every candidate
//     lane of every head, so the credit or release that would change
//     that wakes it.
//   - No VC-cycle occupancy: every buffered packet sits in a VC of the
//     band matching its class, and classes stay below the topology's
//     class count — so the class-banded channel order that makes the
//     wait-for graph acyclic is actually respected, never just assumed.
//   - Flit conservation (end of run): injected == delivered + in-flight
//     (source queues + VC buffers) + dead.
type checker struct {
	n *network
	// holder is scratch: per global output port, the input holding it.
	holder []int
}

func newChecker(n *network) *checker {
	return &checker{n: n, holder: make([]int, len(n.ports))}
}

// checkGrant validates one grant as the switch hands it out.
func (c *checker) checkGrant(cycle int64, ni, in, out int) error {
	n := c.n
	if in < 0 || in >= n.radix {
		return fmt.Errorf("fabric: checker: cycle %d router %d: grant to input %d of a radix-%d router",
			cycle, ni, in, n.radix)
	}
	if req := n.req[ni*n.radix+in]; req != out {
		return fmt.Errorf("fabric: checker: cycle %d router %d: grant in=%d out=%d does not match request %d",
			cycle, ni, in, out, req)
	}
	if fs := n.cfg.Faults; fs != nil && out >= n.conc {
		if fs.LinkFailed(ni, out) {
			return fmt.Errorf("fabric: checker: cycle %d router %d: grant on failed link port %d", cycle, ni, out)
		}
		if nb, _ := n.topo.LinkDest(ni, out); fs.RouterFailed(nb) {
			return fmt.Errorf("fabric: checker: cycle %d router %d: grant toward failed router %d", cycle, ni, nb)
		}
	}
	return nil
}

// scan runs the periodic structural invariants over the whole fabric.
func (c *checker) scan(cycle int64) error {
	n := c.n
	classes := len(n.bandMask)
	for gp := range n.ports {
		pt := &n.ports[gp]
		ni, p := gp/n.radix, gp%n.radix
		var occ, full uint64
		for v := 0; v < n.vcs; v++ {
			slot := gp*n.vcs + v
			b := &n.vcb[slot]
			if b.n > 0 {
				occ |= 1 << v
			}
			if int(b.n) == n.bufs {
				full |= 1 << v
			}
			if int(b.n+b.resv) > n.bufs {
				return fmt.Errorf("fabric: checker: cycle %d router %d port %d vc %d: occupancy %d + reserved %d exceeds buffer %d",
					cycle, ni, p, v, b.n, b.resv, n.bufs)
			}
			for i := 0; i < int(b.n); i++ {
				j := int(b.head) + i
				if j >= n.bufs {
					j -= n.bufs
				}
				cl := int(n.pkts[slot*n.bufs+j].class)
				if cl >= classes {
					return fmt.Errorf("fabric: checker: cycle %d router %d port %d vc %d: packet class %d out of range (%d classes)",
						cycle, ni, p, v, cl, classes)
				}
				if band := n.bandMask[cl]; band>>v&1 == 0 {
					return fmt.Errorf("fabric: checker: cycle %d router %d port %d: class-%d packet occupies vc %d outside band [%d,%d)",
						cycle, ni, p, cl, v, bits.TrailingZeros64(band), 64-bits.LeadingZeros64(band))
				}
			}
			memo := n.routes[slot]
			if memo.lanes == 0 {
				continue
			}
			if b.n == 0 {
				return fmt.Errorf("fabric: checker: cycle %d router %d port %d vc %d: route memo on an empty buffer",
					cycle, ni, p, v)
			}
			if want, retire := n.rc(ni, n.head(slot)); retire || want != memo {
				return fmt.Errorf("fabric: checker: cycle %d router %d port %d vc %d: memoized route %+v, head routes to %+v (retire %v)",
					cycle, ni, p, v, memo, want, retire)
			}
		}
		if occ != pt.occ || full != pt.full {
			return fmt.Errorf("fabric: checker: cycle %d router %d port %d: occupancy bits %b and full bits %b, non-empty VCs %b and full VCs %b",
				cycle, ni, p, pt.occ, pt.full, occ, full)
		}
		// Read as an output, gp mirrors its downstream input's credits.
		var free uint64
		if p < n.conc {
			free = n.vcMask
		} else if d := n.rt.down[gp]; d >= 0 {
			for v := 0; v < n.vcs; v++ {
				if b := &n.vcb[d*n.vcs+v]; int(b.n+b.resv) < n.bufs {
					free |= 1 << v
				}
			}
		}
		if free != pt.free {
			return fmt.Errorf("fabric: checker: cycle %d router %d output %d: credit mirror %b, downstream free VCs %b",
				cycle, ni, p, pt.free, free)
		}
		if on := n.active[gp>>6]>>(gp&63)&1 == 1; on != pt.active {
			return fmt.Errorf("fabric: checker: cycle %d router %d port %d: active bit %v, connection %v",
				cycle, ni, p, on, pt.active)
		}
		if err := c.sleeping(cycle, ni, p); err != nil {
			return err
		}
	}
	return c.reservations(cycle)
}

// sleeping checks that input p of router ni, if the request phase skips
// it, may be skipped (see network.ready): it is registered on every
// candidate lane of every head, every head is routed, and every head
// fails VC allocation except, on LRG kernels, at most one whose output
// is busy and which is last in round-robin order.
func (c *checker) sleeping(cycle int64, ni, p int) error {
	n := c.n
	gp := ni*n.radix + p
	pt := &n.ports[gp]
	if pt.active || pt.occ == 0 || n.ready[ni*n.words+p>>6]>>(p&63)&1 == 1 {
		return nil
	}
	if fs := n.cfg.Faults; fs != nil && fs.RouterFailed(ni) {
		return nil
	}
	for occ := pt.occ; occ != 0; occ &= occ - 1 {
		v := bits.TrailingZeros64(occ)
		r := &n.routes[gp*n.vcs+v]
		if r.lanes == 0 {
			return fmt.Errorf("fabric: checker: cycle %d router %d port %d vc %d: skipped input holds an unrouted head",
				cycle, ni, p, v)
		}
		for j := 0; j < int(r.lanes); j++ {
			o := int(r.out)
			if r.lanes > 1 {
				o = n.lane(r, j)
			}
			if n.waiters[o*n.words+p>>6]>>(p&63)&1 == 0 {
				return fmt.Errorf("fabric: checker: cycle %d router %d port %d vc %d: skipped input not waiting on output %d",
					cycle, ni, p, v, o-ni*n.radix)
			}
		}
		o, free := n.va(r)
		if free == 0 {
			continue
		}
		if n.kern == nil || !n.kern[ni].Busy(o-ni*n.radix) || (v+1)%n.vcs != int(pt.rr) {
			return fmt.Errorf("fabric: checker: cycle %d router %d port %d vc %d: skipped input could request output %d",
				cycle, ni, p, v, o-ni*n.radix)
		}
	}
	return nil
}

// reservations recounts every slot's reserved credits from the
// in-flight transfers in O(ports): an input port has at most one
// upstream output (the reverse link map), and an output carries at
// most one connection.
func (c *checker) reservations(cycle int64) error {
	n := c.n
	for u := range c.holder {
		c.holder[u] = -1
	}
	for gp := range n.ports {
		pt := &n.ports[gp]
		if !pt.active {
			continue
		}
		ni := gp / n.radix
		u := ni*n.radix + int(pt.connOut)
		if c.holder[u] >= 0 {
			return fmt.Errorf("fabric: checker: cycle %d router %d: output %d held by inputs %d and %d",
				cycle, ni, pt.connOut, c.holder[u]-ni*n.radix, gp-ni*n.radix)
		}
		c.holder[u] = gp
	}
	for gp := range n.ports {
		flightVC := -1
		if u := n.rt.up[gp]; u >= 0 && c.holder[u] >= 0 {
			flightVC = int(n.ports[c.holder[u]].downVC)
		}
		for v := 0; v < n.vcs; v++ {
			want := int32(0)
			if v == flightVC {
				want = 1
			}
			if got := n.vcb[gp*n.vcs+v].resv; got != want {
				return fmt.Errorf("fabric: checker: cycle %d router %d port %d vc %d: reserved %d, in-flight transfers %d",
					cycle, gp/n.radix, gp%n.radix, v, got, want)
			}
		}
	}
	return nil
}

// conservation closes the books: every packet that entered a source
// queue over the whole run (warmup included) must be delivered, still
// buffered somewhere, or retired dead.
func (c *checker) conservation() error {
	n := c.n
	var inFlight int64
	for i := range n.src {
		inFlight += int64(n.src[i].q.n)
	}
	inFlight += n.inNet
	if n.injTotal != n.delivTotal+inFlight+n.deadTotal {
		return fmt.Errorf("fabric: checker: flit conservation violated: injected %d != delivered %d + in-flight %d + dead %d",
			n.injTotal, n.delivTotal, inFlight, n.deadTotal)
	}
	return nil
}
