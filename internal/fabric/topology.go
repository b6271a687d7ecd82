// Package fabric composes switches into multi-router interconnection
// fabrics: every router is a full sim.Switch (Hi-Rise, crossbar, or any
// other implementation) wired by a pluggable Topology, with credit-based
// link-level flow control over bounded per-VC input buffers and
// deadlock freedom by virtual-channel ordering (dateline classes).
// It runs the paper's §VI-E kilo-core composition (the kilocore
// experiment) as a first-class simulator with the same planes as
// internal/sim: faults, observability, telemetry, and deterministic
// parallel sweeps.
//
// Deadlock-freedom argument (see DESIGN.md §25): every topology assigns
// each hop a VC class that never decreases along a route, and routes
// within one class follow a total order on channels (dimension order
// for mesh and flattened butterfly, local→global→local for dragonfly),
// so the buffer wait-for graph is acyclic and bounded buffers cannot
// deadlock. Valiant routing gets the extra class(es) its detour needs.
package fabric

import (
	"fmt"

	"github.com/reprolab/hirise/internal/prng"
)

// Routing selects the route-computation policy.
type Routing uint8

const (
	// Minimal routes every packet along a shortest path.
	Minimal Routing = iota
	// Valiant routes via a random intermediate waypoint (node or, for
	// dragonfly, group) to balance adversarial traffic, falling back to
	// the minimal route whenever the detour would exceed twice the
	// minimal hop count.
	Valiant
)

// String names the routing policy as the CLI spells it.
func (r Routing) String() string {
	if r == Valiant {
		return "valiant"
	}
	return "min"
}

// ParseRouting maps the CLI spelling to a Routing.
func ParseRouting(s string) (Routing, error) {
	switch s {
	case "min", "minimal":
		return Minimal, nil
	case "valiant":
		return Valiant, nil
	}
	return 0, fmt.Errorf("fabric: unknown routing %q (want min or valiant)", s)
}

// Topology defines the wiring of a switch-composed fabric: how many
// routers, how each router's ports split between attached cores and
// links, which output ports make minimal progress toward a destination
// router, and where each link lands. It also owns the topology-specific
// halves of the deadlock story (VC classes) and of Valiant routing
// (waypoints). Implementations live in this package; the interface has
// an unexported method because the invariant checker's guarantees are
// proved per topology.
type Topology interface {
	// Nodes returns the router count.
	Nodes() int
	// Concentration returns the cores attached to each router.
	Concentration() int
	// Radix returns each router's switch radix (concentration + links).
	Radix() int
	// LaneCount returns the parallel lanes per logical link; lanes of
	// one logical hop are the redundancy bundle the fault plane must
	// leave partially alive.
	LaneCount() int
	// RouteCandidates appends to dst the equivalent minimal-progress
	// output ports at node toward the dest router (multiple lanes of
	// the same logical hop). node != dest; local delivery is the
	// fabric's own business.
	RouteCandidates(dst []int, node, dest int) []int
	// LinkDest maps (node, link output port) to the neighbouring router
	// and the input port the packet arrives on.
	LinkDest(node, out int) (int, int)
	// MinimalHops returns the link-hop distance between two routers.
	MinimalHops(node, dest int) int
	// Classes returns how many VC classes the routing policy needs for
	// deadlock freedom; Config.VCs must be >= this and is split into
	// equal per-class bands.
	Classes(r Routing) int
	// ClassAfter returns a packet's VC class after crossing (node,out),
	// given its class before: dragonfly bumps the class on every global
	// hop, grid topologies never bump on links.
	ClassAfter(class, node, out int) int
	// ViaBump is the class increment a Valiant packet takes on reaching
	// its waypoint: 1 for grid topologies (phase dateline), 0 for
	// dragonfly (the global-hop bumps already separate the phases).
	ViaBump() int
	// ValiantVia draws the Valiant waypoint for a src->dst packet (a
	// router for grid topologies, a group for dragonfly) from the
	// source's private stream. A negative waypoint means "route
	// minimally": the draw landed on an endpoint, or the detour would
	// exceed twice the minimal hop count.
	ValiantVia(src, dst int, rng *prng.Source) int
	// AtVia reports whether node satisfies the waypoint.
	AtVia(node, via int) bool
	// ViaCandidates appends the minimal-progress ports toward the
	// waypoint (phase-0 routing; AtVia(node,via) must be false).
	ViaCandidates(dst []int, node, via int) []int

	// vias returns the waypoint count: ValiantVia draws from [0, vias).
	vias() int

	// wired reports whether a link output port actually carries a link:
	// mesh edge routers have dangling direction ports that routing never
	// uses, and the fault plane must not waste fail-set budget on them.
	wired(node, out int) bool

	validate() error
}

// bundleOf identifies the logical-link redundancy bundle of (node,out):
// all lanes of one logical hop share a bundle. Lane ports of a logical
// link are contiguous, so the bundle is named by its first lane port.
func bundleOf(t Topology, node, out int) int {
	conc := t.Concentration()
	base := conc + ((out-conc)/t.LaneCount())*t.LaneCount()
	return node*t.Radix() + base
}

// Direction indexes a mesh neighbour.
const (
	east = iota
	west
	north
	south
	numDirs
)

func opposite(dir int) int {
	switch dir {
	case east:
		return west
	case west:
		return east
	case north:
		return south
	default:
		return north
	}
}

// Mesh is a W×H 2D mesh with XY dimension-ordered routing and Lanes
// parallel links per direction — the paper's Fig 13 shape. XY order
// within a VC class keeps the buffer dependency graph acyclic; Valiant
// adds a second class at the waypoint dateline (XY to the via in class
// 0, XY to the destination in class 1).
//
// The degenerate 1×1 mesh with Lanes 0 is a single switch with no
// links; it exists so a 1-node fabric can reproduce internal/sim
// byte-for-byte (see TestOneNodeFabricMatchesSim).
type Mesh struct {
	W, H  int
	Conc  int
	Lanes int
}

// Nodes returns the router count.
func (m Mesh) Nodes() int { return m.W * m.H }

// Concentration returns cores per router.
func (m Mesh) Concentration() int { return m.Conc }

// Radix returns the per-router switch radix.
func (m Mesh) Radix() int { return m.Conc + numDirs*m.Lanes }

// LaneCount returns the lanes per direction.
func (m Mesh) LaneCount() int { return m.Lanes }

// dir returns the XY dimension-ordered direction from node toward dest.
func (m Mesh) dir(node, dest int) int {
	x, y := node%m.W, node/m.W
	dx, dy := dest%m.W, dest/m.W
	switch {
	case dx > x:
		return east
	case dx < x:
		return west
	case dy < y:
		return north
	default:
		return south
	}
}

// RouteCandidates implements Topology: X first, then Y.
func (m Mesh) RouteCandidates(dst []int, node, dest int) []int {
	dir := m.dir(node, dest)
	for lane := 0; lane < m.Lanes; lane++ {
		dst = append(dst, m.Conc+dir*m.Lanes+lane)
	}
	return dst
}

// LinkDest implements Topology: mesh links land on the mirrored input
// port of the adjacent router.
func (m Mesh) LinkDest(node, out int) (int, int) {
	dir := (out - m.Conc) / m.Lanes
	lane := (out - m.Conc) % m.Lanes
	var nb int
	switch dir {
	case east:
		nb = node + 1
	case west:
		nb = node - 1
	case north:
		nb = node - m.W
	default:
		nb = node + m.W
	}
	return nb, m.Conc + opposite(dir)*m.Lanes + lane
}

// MinimalHops implements Topology: Manhattan distance.
func (m Mesh) MinimalHops(node, dest int) int {
	x, y := node%m.W, node/m.W
	dx, dy := dest%m.W, dest/m.W
	return abs(dx-x) + abs(dy-y)
}

// Classes implements Topology: XY needs one class, Valiant's two XY
// phases need one each.
func (m Mesh) Classes(r Routing) int {
	if r == Valiant {
		return 2
	}
	return 1
}

// ClassAfter implements Topology: mesh links never bump the class.
func (m Mesh) ClassAfter(class, _, _ int) int { return class }

// ViaBump implements Topology: the waypoint is the phase dateline.
func (m Mesh) ViaBump() int { return 1 }

// ValiantVia implements Topology: a uniform router, minimal fallback
// when the draw hits an endpoint or breaks the 2× hop bound.
func (m Mesh) ValiantVia(src, dst int, rng *prng.Source) int {
	via := rng.Intn(m.Nodes())
	if via == src || via == dst {
		return -1
	}
	if m.MinimalHops(src, via)+m.MinimalHops(via, dst) > 2*m.MinimalHops(src, dst) {
		return -1
	}
	return via
}

// AtVia implements Topology.
func (m Mesh) AtVia(node, via int) bool { return node == via }

// ViaCandidates implements Topology.
func (m Mesh) ViaCandidates(dst []int, node, via int) []int {
	return m.RouteCandidates(dst, node, via)
}

// vias implements Topology: every router is a waypoint.
func (m Mesh) vias() int { return m.Nodes() }

// wired implements Topology: edge routers' outward-facing direction
// ports dangle.
func (m Mesh) wired(node, out int) bool {
	if m.Lanes == 0 {
		return false
	}
	x, y := node%m.W, node/m.W
	switch (out - m.Conc) / m.Lanes {
	case east:
		return x < m.W-1
	case west:
		return x > 0
	case north:
		return y > 0
	default:
		return y < m.H-1
	}
}

func (m Mesh) validate() error {
	if m.W == 1 && m.H == 1 {
		if m.Conc >= 1 && m.Lanes == 0 {
			return nil // degenerate single-switch fabric
		}
		return fmt.Errorf("fabric: bad mesh %+v: a 1x1 mesh is a single switch and takes Lanes 0", m)
	}
	if m.W < 1 || m.H < 1 || m.Conc < 1 || m.Lanes < 1 {
		return fmt.Errorf("fabric: bad mesh %+v", m)
	}
	return nil
}

// FlattenedButterfly is a W×H grid where every router links directly to
// every other router in its row and in its column: any destination is
// at most two link hops away (row then column, dimension ordered).
// Valiant adds a second class at the waypoint dateline, like the mesh.
// It is the §VI-E comparison topology.
//
// Port layout per router: Conc local ports, then (W-1)*Lanes row links
// (to the other columns in ascending x order, skipping self), then
// (H-1)*Lanes column links (ascending y, skipping self).
type FlattenedButterfly struct {
	W, H  int
	Conc  int
	Lanes int
}

// Nodes returns the router count.
func (f FlattenedButterfly) Nodes() int { return f.W * f.H }

// Concentration returns cores per router.
func (f FlattenedButterfly) Concentration() int { return f.Conc }

// Radix returns the per-router switch radix.
func (f FlattenedButterfly) Radix() int {
	return f.Conc + (f.W-1+f.H-1)*f.Lanes
}

// LaneCount returns the lanes per logical link.
func (f FlattenedButterfly) LaneCount() int { return f.Lanes }

// rowPort returns the first lane port toward column tx (tx != own x).
func (f FlattenedButterfly) rowPort(x, tx int) int {
	idx := tx
	if tx > x {
		idx--
	}
	return f.Conc + idx*f.Lanes
}

// colPort returns the first lane port toward row ty (ty != own y).
func (f FlattenedButterfly) colPort(y, ty int) int {
	idx := ty
	if ty > y {
		idx--
	}
	return f.Conc + (f.W-1)*f.Lanes + idx*f.Lanes
}

// RouteCandidates implements Topology: row hop first, then column hop.
func (f FlattenedButterfly) RouteCandidates(dst []int, node, dest int) []int {
	x, y := node%f.W, node/f.W
	dx, dy := dest%f.W, dest/f.W
	var base int
	if dx != x {
		base = f.rowPort(x, dx)
	} else {
		base = f.colPort(y, dy)
	}
	for lane := 0; lane < f.Lanes; lane++ {
		dst = append(dst, base+lane)
	}
	return dst
}

// LinkDest implements Topology. Row links land on the neighbour's row
// port pointing back; column links likewise.
func (f FlattenedButterfly) LinkDest(node, out int) (int, int) {
	x, y := node%f.W, node/f.W
	rel := out - f.Conc
	lane := rel % f.Lanes
	group := rel / f.Lanes
	if group < f.W-1 { // row link
		tx := group
		if tx >= x {
			tx++
		}
		nb := y*f.W + tx
		return nb, f.rowPort(tx, x) + lane
	}
	ty := group - (f.W - 1)
	if ty >= y {
		ty++
	}
	nb := ty*f.W + x
	return nb, f.colPort(ty, y) + lane
}

// MinimalHops implements Topology: one hop per differing dimension.
func (f FlattenedButterfly) MinimalHops(node, dest int) int {
	x, y := node%f.W, node/f.W
	dx, dy := dest%f.W, dest/f.W
	h := 0
	if dx != x {
		h++
	}
	if dy != y {
		h++
	}
	return h
}

// Classes implements Topology: like the mesh.
func (f FlattenedButterfly) Classes(r Routing) int {
	if r == Valiant {
		return 2
	}
	return 1
}

// ClassAfter implements Topology: links never bump the class.
func (f FlattenedButterfly) ClassAfter(class, _, _ int) int { return class }

// ViaBump implements Topology.
func (f FlattenedButterfly) ViaBump() int { return 1 }

// ValiantVia implements Topology: a uniform router under the 2× bound.
func (f FlattenedButterfly) ValiantVia(src, dst int, rng *prng.Source) int {
	via := rng.Intn(f.Nodes())
	if via == src || via == dst {
		return -1
	}
	if f.MinimalHops(src, via)+f.MinimalHops(via, dst) > 2*f.MinimalHops(src, dst) {
		return -1
	}
	return via
}

// AtVia implements Topology.
func (f FlattenedButterfly) AtVia(node, via int) bool { return node == via }

// ViaCandidates implements Topology.
func (f FlattenedButterfly) ViaCandidates(dst []int, node, via int) []int {
	return f.RouteCandidates(dst, node, via)
}

// vias implements Topology: every router is a waypoint.
func (f FlattenedButterfly) vias() int { return f.Nodes() }

// wired implements Topology: skip-self indexing leaves no dangling port.
func (f FlattenedButterfly) wired(_, _ int) bool { return true }

func (f FlattenedButterfly) validate() error {
	if f.W < 2 || f.H < 1 || f.Conc < 1 || f.Lanes < 1 {
		return fmt.Errorf("fabric: bad flattened butterfly %+v", f)
	}
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
