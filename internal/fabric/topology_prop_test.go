package fabric

import (
	"testing"

	"github.com/reprolab/hirise/internal/prng"
)

// propTopos are the instances the differential properties sweep
// exhaustively; the fuzz harness explores the parameter space beyond.
func propTopos() []struct {
	name string
	topo Topology
} {
	return []struct {
		name string
		topo Topology
	}{
		{"mesh4x3", Mesh{W: 4, H: 3, Conc: 2, Lanes: 2}},
		{"mesh1xN", Mesh{W: 1, H: 5, Conc: 1, Lanes: 1}},
		{"fbfly4x2", FlattenedButterfly{W: 4, H: 2, Conc: 2, Lanes: 2}},
		{"dragonfly3x2", Dragonfly{Groups: 3, GroupSize: 2, GlobalPorts: 1, Conc: 2, Lanes: 1}},
		{"dragonfly9x4", Dragonfly{Groups: 9, GroupSize: 4, GlobalPorts: 2, Conc: 2, Lanes: 2}},
	}
}

// bfsDist is the differential reference: shortest hop distances from
// src over the wired LinkDest edges, independent of RouteCandidates.
func bfsDist(t Topology, src int) []int {
	dist := make([]int, t.Nodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for out := t.Concentration(); out < t.Radix(); out++ {
			if !t.wired(n, out) {
				continue
			}
			nb, _ := t.LinkDest(n, out)
			if dist[nb] < 0 {
				dist[nb] = dist[n] + 1
				queue = append(queue, nb)
			}
		}
	}
	return dist
}

// exactMetric reports whether the topology's routing metric equals the
// true shortest-path distance. Grid topologies always route on true
// shortest paths. The dragonfly's canonical minimal route (local,
// direct group-to-group global, local) is the textbook "minimal" but
// with GlobalPorts > 1 it can exceed the BFS distance: two groups'
// global links may land on one shared router of a third group, giving
// a 2-hop path the 3-hop canonical route ignores. With GlobalPorts == 1
// any detour through a third group needs two extra local hops, so the
// canonical route is the true shortest path.
func exactMetric(topo Topology) bool {
	d, ok := topo.(Dragonfly)
	return !ok || d.GlobalPorts == 1
}

// checkShortestPaths asserts, for one (src,dst) pair against the BFS
// reference: MinimalHops never undercuts the true shortest distance
// (and equals it whenever the routing metric is exact), and every route
// candidate steps onto a router strictly one hop closer in the routing
// metric — so dimension-/hierarchy-ordered routing delivers in exactly
// MinimalHops hops.
func checkShortestPaths(t *testing.T, topo Topology, distToDst []int, src, dst int) {
	t.Helper()
	hops := topo.MinimalHops(src, dst)
	if hops < distToDst[src] {
		t.Fatalf("MinimalHops(%d,%d) = %d undercuts the BFS distance %d", src, dst, hops, distToDst[src])
	}
	if exactMetric(topo) && hops != distToDst[src] {
		t.Fatalf("MinimalHops(%d,%d) = %d, BFS says %d", src, dst, hops, distToDst[src])
	}
	cands := topo.RouteCandidates(nil, src, dst)
	if len(cands) == 0 {
		t.Fatalf("no route candidates %d -> %d", src, dst)
	}
	for _, o := range cands {
		if !topo.wired(src, o) {
			t.Fatalf("route %d -> %d offers dangling port %d", src, dst, o)
		}
		nb, _ := topo.LinkDest(src, o)
		got := 0
		if nb != dst {
			got = topo.MinimalHops(nb, dst)
		}
		if got != hops-1 {
			t.Fatalf("route %d -> %d via port %d lands on %d at metric distance %d, want %d",
				src, dst, o, nb, got, hops-1)
		}
	}
}

func TestRouteCandidatesOnShortestPaths(t *testing.T) {
	for _, tc := range propTopos() {
		t.Run(tc.name, func(t *testing.T) {
			topo := tc.topo
			for dst := 0; dst < topo.Nodes(); dst++ {
				dist := bfsDist(topo, dst) // symmetric links: dist to dst
				for src := 0; src < topo.Nodes(); src++ {
					if src == dst {
						continue
					}
					checkShortestPaths(t, topo, dist, src, dst)
					checkDimensionOrder(t, topo, src, dst)
				}
			}
		})
	}
}

// checkDimensionOrder asserts the grid topologies' XY order: while the
// column differs every hop stays in the source's row, and after that it
// stays in the column. Other topologies pass trivially.
func checkDimensionOrder(t *testing.T, topo Topology, src, dst int) {
	t.Helper()
	var w int
	switch g := topo.(type) {
	case Mesh:
		w = g.W
	case FlattenedButterfly:
		w = g.W
	default:
		return
	}
	for _, o := range topo.RouteCandidates(nil, src, dst) {
		nb, _ := topo.LinkDest(src, o)
		if src%w != dst%w && nb/w != src/w || src%w == dst%w && nb%w != src%w {
			t.Fatalf("route %d -> %d via port %d leaves dimension order at router %d", src, dst, o, nb)
		}
	}
}

// TestLinkDestMirror pins that links come in symmetric pairs: the
// reverse port at the far router leads exactly back. The credit
// protocol and the checker's reservation recomputation rely on it.
func TestLinkDestMirror(t *testing.T) {
	for _, tc := range propTopos() {
		t.Run(tc.name, func(t *testing.T) {
			topo := tc.topo
			for node := 0; node < topo.Nodes(); node++ {
				for out := topo.Concentration(); out < topo.Radix(); out++ {
					if !topo.wired(node, out) {
						continue
					}
					nb, inp := topo.LinkDest(node, out)
					if nb < 0 || nb >= topo.Nodes() || nb == node {
						t.Fatalf("LinkDest(%d,%d) = router %d out of range", node, out, nb)
					}
					if inp < topo.Concentration() || inp >= topo.Radix() {
						t.Fatalf("LinkDest(%d,%d) lands on non-link port %d", node, out, inp)
					}
					back, backPort := topo.LinkDest(nb, inp)
					if back != node || backPort != out {
						t.Fatalf("LinkDest(%d,%d) = (%d,%d) but the mirror leads to (%d,%d)",
							node, out, nb, inp, back, backPort)
					}
				}
			}
			if f, ok := topo.(FlattenedButterfly); ok {
				checkFBflyCoverage(t, f)
			}
		})
	}
}

// checkFBflyCoverage asserts the flattened butterfly's defining wiring:
// each router's link ports reach exactly the other routers of its row
// and of its column, Lanes ports each.
func checkFBflyCoverage(t *testing.T, f FlattenedButterfly) {
	t.Helper()
	for node := 0; node < f.Nodes(); node++ {
		reached := map[int]int{}
		for out := f.Conc; out < f.Radix(); out++ {
			nb, _ := f.LinkDest(node, out)
			reached[nb]++
		}
		if len(reached) != f.W-1+f.H-1 {
			t.Fatalf("router %d links to %d routers, want %d", node, len(reached), f.W-1+f.H-1)
		}
		for nb, lanes := range reached {
			if (nb/f.W == node/f.W) == (nb%f.W == node%f.W) || lanes != f.Lanes {
				t.Fatalf("router %d reaches router %d over %d lanes, want a row or column peer over %d",
					node, nb, lanes, f.Lanes)
			}
		}
	}
}

// valiantWalk follows the fabric's two-phase route computation from src
// to dst through waypoint via (exploring every candidate branch) and
// fails if any path exceeds the 2× minimal-hop bound ValiantVia
// promises, or revisits a (node, phase) state (a routing livelock).
func valiantWalk(t *testing.T, topo Topology, src, dst, via int) {
	t.Helper()
	bound := 2 * topo.MinimalHops(src, dst)
	type state struct{ node, phase int }
	seen := make(map[state]bool)
	var walk func(node, hops, phase int)
	walk = func(node, hops, phase int) {
		if node == dst { // delivery short-circuits the waypoint, like route()
			return
		}
		if hops >= bound {
			t.Fatalf("valiant %d -> %d via %d exceeds 2x bound %d at router %d", src, dst, via, bound, node)
		}
		st := state{node, phase}
		if seen[st] {
			t.Fatalf("valiant %d -> %d via %d revisits router %d in phase %d", src, dst, via, node, phase)
		}
		seen[st] = true
		var cands []int
		if phase == 0 {
			cands = topo.ViaCandidates(nil, node, via)
		} else {
			cands = topo.RouteCandidates(nil, node, dst)
		}
		if len(cands) == 0 {
			t.Fatalf("valiant %d -> %d via %d stuck at router %d phase %d", src, dst, via, node, phase)
		}
		visited := make(map[int]bool)
		for _, o := range cands {
			nb, _ := topo.LinkDest(node, o)
			if visited[nb] { // lanes of one bundle share the neighbour
				continue
			}
			visited[nb] = true
			p := phase
			if p == 0 && topo.AtVia(nb, via) {
				p = 1
			}
			walk(nb, hops+1, p)
		}
	}
	phase := 0
	if topo.AtVia(src, via) {
		phase = 1
	}
	walk(src, 0, phase)
}

func TestValiantWithinTwiceMinimal(t *testing.T) {
	for _, tc := range propTopos() {
		t.Run(tc.name, func(t *testing.T) {
			topo := tc.topo
			rng := prng.New(11)
			for dst := 0; dst < topo.Nodes(); dst++ {
				for src := 0; src < topo.Nodes(); src++ {
					if src == dst {
						continue
					}
					for draw := 0; draw < 8; draw++ {
						via := topo.ValiantVia(src, dst, rng)
						if via < 0 {
							continue // minimal fallback, nothing to walk
						}
						valiantWalk(t, topo, src, dst, via)
					}
				}
			}
		})
	}
}

// FuzzRouteCandidatesShortestPath explores the topology parameter space
// beyond the fixed instances: for an arbitrary valid topology and
// router pair, the shortest-path differential property and the Valiant
// 2× bound must hold.
func FuzzRouteCandidatesShortestPath(f *testing.F) {
	f.Add(uint8(0), uint8(2), uint8(2), uint8(1), uint8(1), uint16(0), uint16(5), uint64(1))
	f.Add(uint8(1), uint8(1), uint8(0), uint8(0), uint8(1), uint16(3), uint16(4), uint64(2))
	f.Add(uint8(2), uint8(3), uint8(1), uint8(1), uint8(0), uint16(7), uint16(30), uint64(3))
	f.Fuzz(func(t *testing.T, kind, a, b, c, d uint8, src, dst uint16, seed uint64) {
		var topo Topology
		switch kind % 3 {
		case 0:
			topo = Mesh{W: 1 + int(a)%4, H: 1 + int(b)%4, Conc: 1 + int(c)%2, Lanes: 1 + int(d)%2}
			if topo.(Mesh).W == 1 && topo.(Mesh).H == 1 {
				t.Skip("degenerate mesh has no routes")
			}
		case 1:
			topo = FlattenedButterfly{W: 2 + int(a)%3, H: 1 + int(b)%3, Conc: 1 + int(c)%2, Lanes: 1 + int(d)%2}
		default:
			gs, h := 1+int(a)%4, 1+int(b)%2
			topo = Dragonfly{Groups: gs*h + 1, GroupSize: gs, GlobalPorts: h, Conc: 1 + int(c)%2, Lanes: 1 + int(d)%2}
		}
		if err := topo.validate(); err != nil {
			t.Skip(err)
		}
		s, e := int(src)%topo.Nodes(), int(dst)%topo.Nodes()
		if s == e {
			t.Skip("same router")
		}
		checkShortestPaths(t, topo, bfsDist(topo, e), s, e)
		rng := prng.New(seed | 1)
		for draw := 0; draw < 4; draw++ {
			if via := topo.ValiantVia(s, e, rng); via >= 0 {
				valiantWalk(t, topo, s, e, via)
			}
		}
	})
}
