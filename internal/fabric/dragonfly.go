package fabric

import (
	"fmt"

	"github.com/reprolab/hirise/internal/prng"
)

// Dragonfly is the canonical hierarchical topology ("Switch-Less
// Dragonfly on Wafers" supplies the group/global structure): Groups
// fully-connected groups of GroupSize routers, each router carrying
// Conc cores, GroupSize-1 local links (all-to-all within the group),
// and GlobalPorts global links, with every pair of groups joined by
// exactly one logical global link. Balance therefore requires
//
//	GroupSize * GlobalPorts == Groups - 1
//
// which is why "round" router counts like 64 do not exist as balanced
// dragonflies — the shipped configurations use the nearest balanced
// shapes (e.g. 9 groups × 4 routers × 2 global ports = 36 routers, or
// 9 × 8 × 1 = 72 routers).
//
// Minimal routes are local→global→local (at most 3 link hops); Valiant
// routes detour through a random intermediate group. Deadlock freedom
// comes from bumping a packet's VC class on every global hop: within a
// class a packet takes at most one local hop before a global hop or
// delivery, so same-class local channels never wait on each other, and
// classes only grow — the wait-for graph is acyclic with 2 classes for
// minimal routing and 3 for Valiant.
//
// Port layout per router: Conc local core ports, then (GroupSize-1)*
// Lanes intra-group links (ascending target index, skipping self),
// then GlobalPorts*Lanes global links. Router r's global port h
// carries the group's global link index j = r*GlobalPorts + h, which
// connects to group j (skipping the own group) and lands on the
// symmetric index on the far side.
type Dragonfly struct {
	// Groups is the group count.
	Groups int
	// GroupSize is the routers per group.
	GroupSize int
	// GlobalPorts is the global links per router.
	GlobalPorts int
	// Conc is the cores per router.
	Conc int
	// Lanes is the parallel lanes per logical link.
	Lanes int
}

// Nodes returns the router count.
func (d Dragonfly) Nodes() int { return d.Groups * d.GroupSize }

// Concentration returns cores per router.
func (d Dragonfly) Concentration() int { return d.Conc }

// Radix returns the per-router switch radix.
func (d Dragonfly) Radix() int {
	return d.Conc + (d.GroupSize-1+d.GlobalPorts)*d.Lanes
}

// LaneCount returns the lanes per logical link.
func (d Dragonfly) LaneCount() int { return d.Lanes }

// group and local split a router index.
func (d Dragonfly) group(node int) int { return node / d.GroupSize }
func (d Dragonfly) local(node int) int { return node % d.GroupSize }

// localPort returns the first lane port at local router rl toward local
// router tl of the same group (tl != rl; skip-self ascending order).
func (d Dragonfly) localPort(rl, tl int) int {
	idx := tl
	if tl > rl {
		idx--
	}
	return d.Conc + idx*d.Lanes
}

// globalBase is the first global port.
func (d Dragonfly) globalBase() int { return d.Conc + (d.GroupSize-1)*d.Lanes }

// globalPort returns the first lane port of a router's h-th global link.
func (d Dragonfly) globalPort(h int) int { return d.globalBase() + h*d.Lanes }

// globalIndex returns the group-level index of the logical global link
// from group g toward group tg (g != tg; skip-self ascending order).
func (d Dragonfly) globalIndex(g, tg int) int {
	if tg > g {
		return tg - 1
	}
	return tg
}

// globalExit returns the router (local index) and global-port index
// inside group g that carry the logical link toward group tg.
func (d Dragonfly) globalExit(g, tg int) (rl, h int) {
	j := d.globalIndex(g, tg)
	return j / d.GlobalPorts, j % d.GlobalPorts
}

// RouteCandidates implements Topology: within a group, the direct local
// link; across groups, the global link toward the destination group if
// this router carries it, else the local hop to the router that does.
func (d Dragonfly) RouteCandidates(dst []int, node, dest int) []int {
	g, rl := d.group(node), d.local(node)
	dg, drl := d.group(dest), d.local(dest)
	var base int
	switch {
	case g == dg:
		base = d.localPort(rl, drl)
	default:
		exitRl, h := d.globalExit(g, dg)
		if rl == exitRl {
			base = d.globalPort(h)
		} else {
			base = d.localPort(rl, exitRl)
		}
	}
	for lane := 0; lane < d.Lanes; lane++ {
		dst = append(dst, base+lane)
	}
	return dst
}

// LinkDest implements Topology: local links land on the peer's local
// port pointing back; global link j of group g lands on the symmetric
// global index of the far group.
func (d Dragonfly) LinkDest(node, out int) (int, int) {
	g, rl := d.group(node), d.local(node)
	rel := out - d.Conc
	lane := rel % d.Lanes
	logical := rel / d.Lanes
	if logical < d.GroupSize-1 { // intra-group link
		tl := logical
		if tl >= rl {
			tl++
		}
		nb := g*d.GroupSize + tl
		return nb, d.localPort(tl, rl) + lane
	}
	h := logical - (d.GroupSize - 1)
	j := rl*d.GlobalPorts + h
	tg := j
	if tg >= g {
		tg++
	}
	j2 := d.globalIndex(tg, g)
	nb := tg*d.GroupSize + j2/d.GlobalPorts
	return nb, d.globalPort(j2%d.GlobalPorts) + lane
}

// MinimalHops implements Topology: up to local + global + local.
func (d Dragonfly) MinimalHops(node, dest int) int {
	if node == dest {
		return 0
	}
	g, rl := d.group(node), d.local(node)
	dg, drl := d.group(dest), d.local(dest)
	if g == dg {
		return 1
	}
	exitRl, _ := d.globalExit(g, dg)
	entryRl, _ := d.globalExit(dg, g)
	h := 1 // the global hop
	if rl != exitRl {
		h++
	}
	if drl != entryRl {
		h++
	}
	return h
}

// Classes implements Topology: one class per global hop a route can
// take, plus the initial class — 2 minimal, 3 Valiant.
func (d Dragonfly) Classes(r Routing) int {
	if r == Valiant {
		return 3
	}
	return 2
}

// ClassAfter implements Topology: global hops bump the class.
func (d Dragonfly) ClassAfter(class, _, out int) int {
	if out >= d.globalBase() {
		return class + 1
	}
	return class
}

// ViaBump implements Topology: the global-hop bumps already separate
// the Valiant phases, so the waypoint itself adds nothing.
func (d Dragonfly) ViaBump() int { return 0 }

// ValiantVia implements Topology: a uniform intermediate group,
// falling back to minimal when the draw hits either endpoint group or
// the exact detour length would exceed twice the minimal hop count.
func (d Dragonfly) ValiantVia(src, dst int, rng *prng.Source) int {
	vg := rng.Intn(d.Groups)
	g, dg := d.group(src), d.group(dst)
	if vg == g || vg == dg {
		return -1
	}
	// Exact detour length: reach the via group's entry router, then
	// route minimally to the destination.
	exitRl, _ := d.globalExit(g, vg)
	entryRl, _ := d.globalExit(vg, g)
	detour := 1 // the global hop into the via group
	if d.local(src) != exitRl {
		detour++
	}
	detour += d.MinimalHops(vg*d.GroupSize+entryRl, dst)
	if detour > 2*d.MinimalHops(src, dst) {
		return -1
	}
	return vg
}

// AtVia implements Topology: the waypoint is a group.
func (d Dragonfly) AtVia(node, via int) bool { return d.group(node) == via }

// ViaCandidates implements Topology: minimal progress toward the via
// group (the global link if this router carries it, else the local hop
// to the router that does).
func (d Dragonfly) ViaCandidates(dst []int, node, via int) []int {
	g, rl := d.group(node), d.local(node)
	exitRl, h := d.globalExit(g, via)
	var base int
	if rl == exitRl {
		base = d.globalPort(h)
	} else {
		base = d.localPort(rl, exitRl)
	}
	for lane := 0; lane < d.Lanes; lane++ {
		dst = append(dst, base+lane)
	}
	return dst
}

// vias implements Topology: the waypoints are groups.
func (d Dragonfly) vias() int { return d.Groups }

// wired implements Topology: balance makes every local and global port
// carry a link (router rl's global index rl*GlobalPorts+h never exceeds
// Groups-2).
func (d Dragonfly) wired(_, _ int) bool { return true }

func (d Dragonfly) validate() error {
	if d.Groups < 2 || d.GroupSize < 1 || d.GlobalPorts < 1 || d.Conc < 1 || d.Lanes < 1 {
		return fmt.Errorf("fabric: bad dragonfly %+v", d)
	}
	if d.GroupSize*d.GlobalPorts != d.Groups-1 {
		return fmt.Errorf("fabric: unbalanced dragonfly %+v: GroupSize*GlobalPorts = %d, want Groups-1 = %d",
			d, d.GroupSize*d.GlobalPorts, d.Groups-1)
	}
	return nil
}
