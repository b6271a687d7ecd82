package fabric

import (
	"strings"
	"testing"

	"github.com/reprolab/hirise/internal/prng"
)

// TestRouteTablesMatchTopology is the route tables' differential test:
// every entry must equal the Topology method it caches, under both
// routings. The mesh instances include unwired edge ports, which must
// map to no link in either direction.
func TestRouteTablesMatchTopology(t *testing.T) {
	topos := append(propTopos(), struct {
		name string
		topo Topology
	}{"mesh1x1", Mesh{W: 1, H: 1, Conc: 4, Lanes: 0}})
	for _, tc := range topos {
		for _, r := range []Routing{Minimal, Valiant} {
			t.Run(tc.name+"/"+r.String(), func(t *testing.T) {
				checkTables(t, tc.topo, r)
			})
		}
	}
}

func checkTables(t *testing.T, topo Topology, r Routing) {
	t.Helper()
	ni, nu, nb := tableSizes(topo, r)
	rt := buildTables(topo, r, make([]int, ni), make([]uint16, nu), make([]uint8, nb))
	nodes, radix, conc, lanes := topo.Nodes(), topo.Radix(), topo.Concentration(), topo.LaneCount()
	contiguous := func(what string, cand []int, first uint16) {
		t.Helper()
		if len(cand) != lanes {
			t.Fatalf("%s: %d candidates, want %d lanes", what, len(cand), lanes)
		}
		for k, o := range cand {
			if o != int(first)+k {
				t.Fatalf("%s: candidates %v, table says lanes from %d", what, cand, first)
			}
		}
	}
	for node := 0; node < nodes; node++ {
		for p := 0; p < radix; p++ {
			u := node*radix + p
			wired := p >= conc && topo.wired(node, p)
			if !wired {
				if rt.down[u] != -1 || rt.up[u] != -1 {
					t.Fatalf("unlinked port (%d,%d): down %d up %d, want -1", node, p, rt.down[u], rt.up[u])
				}
				continue
			}
			nb, in := topo.LinkDest(node, p)
			if rt.down[u] != nb*radix+in {
				t.Fatalf("down(%d,%d) = %d, LinkDest says (%d,%d)", node, p, rt.down[u], nb, in)
			}
			if rt.up[rt.down[u]] != u {
				t.Fatalf("up(down(%d,%d)) = %d, want %d", node, p, rt.up[rt.down[u]], u)
			}
			for c := 0; c < topo.Classes(r); c++ {
				if got := topo.ClassAfter(c, node, p); got != c+int(rt.bump[u]) {
					t.Fatalf("ClassAfter(%d,%d,%d) = %d, table bump %d", c, node, p, got, rt.bump[u])
				}
			}
		}
		for dest := 0; dest < nodes; dest++ {
			if dest != node {
				contiguous("RouteCandidates", topo.RouteCandidates(nil, node, dest), rt.minPort[node*nodes+dest])
			}
		}
		if r != Valiant {
			continue
		}
		for via := 0; via < topo.vias(); via++ {
			at := topo.AtVia(node, via)
			if at != (rt.viaOf[node] == via) {
				t.Fatalf("AtVia(%d,%d) = %v, table viaOf %d", node, via, at, rt.viaOf[node])
			}
			if !at {
				contiguous("ViaCandidates", topo.ViaCandidates(nil, node, via), rt.viaPort[node*topo.vias()+via])
			}
		}
	}
	// Every linked input has exactly the one upstream down points back
	// from, and ValiantVia draws stay inside the waypoint table.
	for gp, u := range rt.up {
		if u >= 0 && rt.down[u] != gp {
			t.Fatalf("up(%d) = %d but down(%d) = %d", gp, u, u, rt.down[u])
		}
	}
	rng := prng.New(1)
	for i := 0; i < 200; i++ {
		src, dst := rng.Intn(nodes), rng.Intn(nodes)
		if via := topo.ValiantVia(src, dst, rng); via >= topo.vias() {
			t.Fatalf("ValiantVia(%d,%d) = %d, beyond %d waypoints", src, dst, via, topo.vias())
		}
	}
}

// TestCheckerCatchesFastPathDrift corrupts each piece of cycle-loop
// state the checker mirrors (credit bits, occupancy bits, route memos,
// reservations, the sleeping-input set) and requires a scan to name it.
func TestCheckerCatchesFastPathDrift(t *testing.T) {
	topo := Mesh{W: 3, H: 3, Conc: 2, Lanes: 2}
	cfg := baseConfig(topo)
	cfg.VCBufPkts = 2
	cfg.Defaults()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	// Router 4 is the mesh centre; its first east lane links to router 5.
	east := 4*topo.Radix() + topo.Conc
	pkt := packet{dest: int32(8 * topo.Conc), via: -1, phase: 1}
	// routed pushes pkt into VC 0 of router 4's first core port and
	// memoizes its route, as the request phase would.
	routed := func(n *network) (gp, slot int) {
		gp = 4 * n.radix
		slot = gp * n.vcs
		n.pushVC(gp, 0, pkt)
		n.routes[slot], _ = n.rc(4, n.head(slot))
		return gp, slot
	}
	cases := []struct {
		name, want string
		corrupt    func(n *network)
	}{
		{"clean", "", func(n *network) {}},
		{"credit bit", "credit mirror", func(n *network) { n.ports[east].free &^= 1 }},
		{"occupancy bit", "occupancy bits", func(n *network) { n.ports[east].occ |= 1 }},
		{"stale memo", "route memo on an empty buffer", func(n *network) {
			n.routes[east*n.vcs] = route{out: 3, lanes: 1}
		}},
		{"wrong memo", "memoized route", func(n *network) {
			_, slot := routed(n)
			n.routes[slot].start ^= 1
		}},
		{"phantom reservation", "in-flight transfers", func(n *network) {
			d := n.rt.down[east]
			n.vcb[d*n.vcs].resv++
			n.ports[east].free = n.vcMask // keep the mirror honest: 0+1 < 2
		}},
		{"sleeping with a credit", "skipped input could request", func(n *network) {
			gp, slot := routed(n)
			n.ready[4*n.words] &^= 1 << (gp - 4*n.radix)
			n.sleep(&n.routes[slot], gp-4*n.radix)
		}},
		{"sleeping unregistered", "skipped input not waiting", func(n *network) {
			gp, slot := routed(n)
			n.ready[4*n.words] &^= 1 << (gp - 4*n.radix)
			for j := 0; j < int(n.routes[slot].lanes); j++ {
				n.ports[n.lane(&n.routes[slot], j)].free = 0
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := newNetwork(cfg, true)
			tc.corrupt(n)
			err := newChecker(n).scan(0)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("clean network failed the scan: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("scan = %v, want an error mentioning %q", err, tc.want)
			}
		})
	}
}
