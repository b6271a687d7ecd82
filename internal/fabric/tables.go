package fabric

// routeTables caches the Topology's routing functions as flat arrays,
// built once per run from the methods they mirror (which stay the
// specification; TestRouteTablesMatchTopology pins every entry against
// them). The cycle loop then computes a head packet's route with table
// reads instead of interface calls and divisions. Port ids are global:
// node*radix + port.
type routeTables struct {
	nodes, lanes, vias int
	// minPort[node*nodes+dest] is the first lane of the minimal bundle
	// toward dest (RouteCandidates; lanes are contiguous). Unused on the
	// diagonal.
	minPort []uint16
	// viaPort[node*vias+via] is the first lane of the bundle toward the
	// Valiant waypoint (ViaCandidates); built under Valiant routing only
	// and unused where AtVia(node, via).
	viaPort []uint16
	// viaOf[node] is the waypoint node satisfies (AtVia(node, via) holds
	// exactly for via == viaOf[node]); built under Valiant routing only.
	viaOf []int
	// down[node*radix+out] is LinkDest(node, out) as the global id of the
	// downstream input port, -1 for core ports and unwired mesh edges.
	down []int
	// up is down's inverse: the global id of the upstream output feeding
	// an input port, -1 for core ports and unwired edges.
	up []int
	// bump[node*radix+out] is the class increment of crossing (node,out):
	// ClassAfter(c, node, out) == c + bump for every class c.
	bump []uint8
}

// tableSizes returns the slab lengths buildTables carves its int, uint16
// and uint8 arrays from, so newNetwork can fold them into its own slabs.
func tableSizes(t Topology, r Routing) (ints, u16s, bytes int) {
	nodes, ports := t.Nodes(), t.Nodes()*t.Radix()
	ints, u16s, bytes = 2*ports+t.LaneCount(), nodes*nodes, ports
	if r == Valiant {
		ints += nodes
		u16s += nodes * t.vias()
	}
	return ints, u16s, bytes
}

// buildTables fills the route tables from the topology's methods,
// carving every array from the given slabs (sized by tableSizes).
func buildTables(t Topology, r Routing, ints []int, u16s []uint16, bytes []uint8) routeTables {
	nodes, radix, conc := t.Nodes(), t.Radix(), t.Concentration()
	ports := nodes * radix
	rt := routeTables{nodes: nodes, lanes: t.LaneCount(), vias: t.vias()}
	rt.down, rt.up = carve(&ints, ports), carve(&ints, ports)
	rt.minPort, rt.bump = carve(&u16s, nodes*nodes), carve(&bytes, ports)
	cand := carve(&ints, rt.lanes)[:0] // candidate scratch

	for i := range rt.up {
		rt.down[i], rt.up[i] = -1, -1
	}
	for node := 0; node < nodes; node++ {
		for out := conc; out < radix; out++ {
			if !t.wired(node, out) {
				continue
			}
			nb, in := t.LinkDest(node, out)
			rt.down[node*radix+out] = nb*radix + in
			rt.up[nb*radix+in] = node*radix + out
			rt.bump[node*radix+out] = uint8(t.ClassAfter(0, node, out))
		}
		for dest := 0; dest < nodes; dest++ {
			if dest != node {
				cand = t.RouteCandidates(cand[:0], node, dest)
				rt.minPort[node*nodes+dest] = uint16(cand[0])
			}
		}
	}
	if r != Valiant {
		return rt
	}
	rt.viaOf, rt.viaPort = carve(&ints, nodes), carve(&u16s, nodes*rt.vias)
	for node := 0; node < nodes; node++ {
		for via := 0; via < rt.vias; via++ {
			if t.AtVia(node, via) {
				rt.viaOf[node] = via
				continue
			}
			cand = t.ViaCandidates(cand[:0], node, via)
			rt.viaPort[node*rt.vias+via] = uint16(cand[0])
		}
	}
	return rt
}
