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
//     downstream truth (occupancy + reservations < VCBufPkts), every
//     input's occupancy bits equal its non-empty VCs, and every
//     memoized route equals a fresh route computation for the buffer's
//     current head.
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
	return &checker{n: n, holder: make([]int, len(n.free))}
}

// checkGrant validates one grant as the switch hands it out.
func (c *checker) checkGrant(cycle int64, ni, in, out int) error {
	n := c.n
	nd := &n.nodes[ni]
	if in < 0 || in >= n.radix || nd.req[in] != out {
		return fmt.Errorf("fabric: checker: cycle %d router %d: grant in=%d out=%d does not match request %d",
			cycle, ni, in, out, nd.req[in])
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
	for gp := range n.occ {
		ni, p := gp/n.radix, gp%n.radix
		var occ uint64
		for v := 0; v < n.vcs; v++ {
			slot := gp*n.vcs + v
			q := &n.vcq[slot]
			if q.n > 0 {
				occ |= 1 << v
			}
			if q.n+int(n.resv[slot]) > n.cfg.VCBufPkts {
				return fmt.Errorf("fabric: checker: cycle %d router %d port %d vc %d: occupancy %d + reserved %d exceeds buffer %d",
					cycle, ni, p, v, q.n, n.resv[slot], n.cfg.VCBufPkts)
			}
			for i := 0; i < q.n; i++ {
				j := q.head + i
				if j >= len(q.buf) {
					j -= len(q.buf)
				}
				cl := int(q.buf[j].class)
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
			if q.n == 0 {
				return fmt.Errorf("fabric: checker: cycle %d router %d port %d vc %d: route memo on an empty buffer",
					cycle, ni, p, v)
			}
			if want, retire := n.rc(ni, q.peek()); retire || want != memo {
				return fmt.Errorf("fabric: checker: cycle %d router %d port %d vc %d: memoized route %+v, head routes to %+v (retire %v)",
					cycle, ni, p, v, memo, want, retire)
			}
		}
		if occ != n.occ[gp] {
			return fmt.Errorf("fabric: checker: cycle %d router %d port %d: occupancy bits %b, non-empty VCs %b",
				cycle, ni, p, n.occ[gp], occ)
		}
		// Read as an output, gp mirrors its downstream input's credits.
		var free uint64
		if d := n.rt.down[gp]; d >= 0 {
			for v := 0; v < n.vcs; v++ {
				if slot := d*n.vcs + v; n.vcq[slot].n+int(n.resv[slot]) < n.cfg.VCBufPkts {
					free |= 1 << v
				}
			}
		}
		if free != n.free[gp] {
			return fmt.Errorf("fabric: checker: cycle %d router %d output %d: credit mirror %b, downstream free VCs %b",
				cycle, ni, p, n.free[gp], free)
		}
	}
	return c.reservations(cycle)
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
	for ni := range n.nodes {
		nd := &n.nodes[ni]
		for in, on := range nd.active {
			if !on {
				continue
			}
			u := ni*n.radix + nd.connOut[in]
			if c.holder[u] >= 0 {
				return fmt.Errorf("fabric: checker: cycle %d router %d: output %d held by inputs %d and %d",
					cycle, ni, nd.connOut[in], c.holder[u], in)
			}
			c.holder[u] = in
		}
	}
	for gp := range n.occ {
		flightVC := -1
		if u := n.rt.up[gp]; u >= 0 && c.holder[u] >= 0 {
			flightVC = n.nodes[u/n.radix].downVC[c.holder[u]]
		}
		for v := 0; v < n.vcs; v++ {
			want := uint8(0)
			if v == flightVC {
				want = 1
			}
			if got := n.resv[gp*n.vcs+v]; got != want {
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
