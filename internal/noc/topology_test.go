package noc

import (
	"fmt"
	"testing"

	"github.com/reprolab/hirise/internal/fabric"
)

func fbfly(w, h, conc, lanes int) fabric.FlattenedButterfly {
	return fabric.FlattenedButterfly{W: w, H: h, Conc: conc, Lanes: lanes}
}

func TestFBflyRadix(t *testing.T) {
	// 48 local + (3+3)*2 links = 60.
	if got := fbfly(4, 4, 48, 2).Radix(); got != 60 {
		t.Fatalf("radix %d, want 60", got)
	}
}

// TestFBflyDiameterTwo checks the defining property: every packet
// reaches its destination in at most 3 switch traversals (row hop,
// column hop, local delivery at the destination node), and the mean
// matches the closed form.
func TestFBflyDiameterTwo(t *testing.T) {
	for _, f := range []fabric.FlattenedButterfly{
		fbfly(3, 3, 2, 1),
		fbfly(4, 4, 2, 1),
		fbfly(6, 3, 2, 1),
	} {
		t.Run(fmt.Sprintf("%dx%d", f.W, f.H), func(t *testing.T) {
			if got := hopsClosedForm(t, f); got > 3.0 {
				t.Errorf("avg hops %.2f exceeds the flattened butterfly bound", got)
			}
		})
	}
}

func TestFBflyRoutesRowFirst(t *testing.T) {
	f := fbfly(4, 4, 2, 1)
	// Node 0 (0,0) -> node 15 (3,3): the first hop must be the row link
	// toward column 3.
	cand := f.RouteCandidates(nil, 0, 15)
	if len(cand) != 1 {
		t.Fatalf("candidates %v", cand)
	}
	nb, _ := f.LinkDest(0, cand[0])
	if nb != 3 { // node (3,0)
		t.Fatalf("first hop to node %d, want 3 (row first)", nb)
	}
	// From (3,0) the next hop is the column link to (3,3).
	cand = f.RouteCandidates(nil, 3, 15)
	nb, _ = f.LinkDest(3, cand[0])
	if nb != 15 {
		t.Fatalf("second hop to node %d, want 15", nb)
	}
}

func TestFBflyFewerHopsThanMesh(t *testing.T) {
	m := hopsClosedForm(t, smallMesh(4, 4, 2, 1))
	f := hopsClosedForm(t, fbfly(4, 4, 2, 1))
	if f >= m {
		t.Errorf("flattened butterfly hops %.2f not below mesh %.2f", f, m)
	}
}

func TestFBflyBoundedBuffersLive(t *testing.T) {
	cfg := config(fbfly(4, 4, 3, 1), 1.0)
	cfg.VCBufPkts = 1
	if res := run(t, cfg); res.Delivered == 0 {
		t.Fatal("flattened butterfly deadlocked with tight buffers")
	}
}

// Property tests over the topology contract: for every (node, dest)
// router pair, RouteCandidates must yield ports whose links make strict
// progress toward the destination under the topology's own distance
// metric, and LinkDest must describe a consistent bidirectional wiring.
// These are the invariants the deadlock argument (dimension-ordered
// routing over an acyclic buffer graph) quietly depends on.

// meshDist is the mesh's routing metric: Manhattan distance.
func meshDist(m fabric.Mesh, a, b int) int {
	dx, dy := a%m.W-b%m.W, a/m.W-b/m.W
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// fbflyDist is the flattened butterfly's routing metric: one hop per
// differing dimension.
func fbflyDist(f fabric.FlattenedButterfly, a, b int) int {
	d := 0
	if a%f.W != b%f.W {
		d++
	}
	if a/f.W != b/f.W {
		d++
	}
	return d
}

// checkCandidatesProgress asserts, for every (node, destination router)
// pair, that RouteCandidates returns at least one port, and that every
// candidate link lands on a valid (node, input port) strictly closer to
// the destination.
func checkCandidatesProgress(t *testing.T, topo fabric.Topology, dist func(a, b int) int) {
	t.Helper()
	nodes, conc, radix := topo.Nodes(), topo.Concentration(), topo.Radix()
	for node := 0; node < nodes; node++ {
		for dest := 0; dest < nodes; dest++ {
			if dest == node {
				continue
			}
			cands := topo.RouteCandidates(nil, node, dest)
			if len(cands) == 0 {
				t.Fatalf("node %d -> node %d: no route candidates", node, dest)
			}
			for _, out := range cands {
				if out < conc || out >= radix {
					t.Fatalf("node %d -> node %d: candidate %d is not a link port [%d,%d)",
						node, dest, out, conc, radix)
				}
				nb, in := topo.LinkDest(node, out)
				if nb < 0 || nb >= nodes || nb == node {
					t.Fatalf("node %d out %d: bad neighbour %d", node, out, nb)
				}
				if in < conc || in >= radix {
					t.Fatalf("node %d out %d: bad input port %d", node, out, in)
				}
				if got, was := dist(nb, dest), dist(node, dest); got >= was {
					t.Fatalf("node %d -> node %d via port %d: hop to %d is not closer (%d -> %d)",
						node, dest, out, nb, was, got)
				}
			}
		}
	}
}

func TestMeshCandidatesMakeProgress(t *testing.T) {
	for _, m := range []fabric.Mesh{
		smallMesh(1, 4, 2, 1),
		smallMesh(3, 3, 2, 1),
		smallMesh(4, 2, 1, 3),
		smallMesh(2, 5, 3, 2),
	} {
		checkCandidatesProgress(t, m, func(a, b int) int { return meshDist(m, a, b) })
	}
}

func TestFBflyCandidatesMakeProgress(t *testing.T) {
	for _, f := range []fabric.FlattenedButterfly{
		fbfly(2, 1, 1, 1),
		fbfly(3, 4, 2, 2),
		fbfly(4, 4, 1, 3),
		fbfly(5, 2, 3, 1),
	} {
		checkCandidatesProgress(t, f, func(a, b int) int { return fbflyDist(f, a, b) })
	}
}

// TestMeshLinkSymmetry: every in-grid mesh link is bidirectionally
// consistent — following it and then the mirrored input port's reverse
// link returns to the origin. A port is in-grid when RouteCandidates
// emits it toward some router; edge routers' outward-facing ports
// dangle and are never routed to.
func TestMeshLinkSymmetry(t *testing.T) {
	for _, m := range []fabric.Mesh{
		smallMesh(3, 3, 2, 1),
		smallMesh(4, 2, 1, 2),
	} {
		for node := 0; node < m.Nodes(); node++ {
			inGrid := map[int]bool{}
			for dest := 0; dest < m.Nodes(); dest++ {
				if dest != node {
					for _, out := range m.RouteCandidates(nil, node, dest) {
						inGrid[out] = true
					}
				}
			}
			for out := range inGrid {
				nb, in := m.LinkDest(node, out)
				back, backIn := m.LinkDest(nb, in)
				if back != node || backIn != out {
					t.Fatalf("mesh %+v link (%d,%d)->(%d,%d) not symmetric: reverse gives (%d,%d)",
						m, node, out, nb, in, back, backIn)
				}
			}
		}
	}
}

// TestFBflyLinkCoverage: every node's link ports, followed through
// LinkDest, reach exactly the other nodes of its row and column — the
// defining wiring of the flattened butterfly.
func TestFBflyLinkCoverage(t *testing.T) {
	f := fbfly(4, 3, 2, 2)
	for node := 0; node < f.Nodes(); node++ {
		x, y := node%f.W, node/f.W
		reached := map[int]int{} // neighbour -> lane count
		for out := f.Conc; out < f.Radix(); out++ {
			nb, _ := f.LinkDest(node, out)
			reached[nb]++
		}
		want := map[int]int{}
		for tx := 0; tx < f.W; tx++ {
			if tx != x {
				want[y*f.W+tx] = f.Lanes
			}
		}
		for ty := 0; ty < f.H; ty++ {
			if ty != y {
				want[ty*f.W+x] = f.Lanes
			}
		}
		if len(reached) != len(want) {
			t.Fatalf("node %d reaches %v, want %v", node, reached, want)
		}
		for nb, lanes := range want {
			if reached[nb] != lanes {
				t.Fatalf("node %d reaches %d via %d lanes, want %d", node, nb, reached[nb], lanes)
			}
		}
	}
}
