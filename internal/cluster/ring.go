// Package cluster is the static-membership peer layer of the serving
// plane: it turns a set of hirise-served daemons into a cluster that
// routes content-addressed store keys to a home node and fetches
// results from peers before recomputing them locally.
//
// The pieces:
//
//   - a consistent-hash ring (Ring) over the membership, giving every
//     store.Key a deterministic preference order of peers — the same
//     order on every node, so a result computed anywhere is findable
//     from anywhere;
//   - per-peer circuit breakers driven by request outcomes and periodic
//     /healthz probes, so a dead or draining peer costs one connection
//     error, not one per request;
//   - a resilient fetch client: per-attempt timeouts, bounded retries
//     with exponential backoff and deterministic seeded jitter, and
//     hedged requests — a second peer is consulted when the first has
//     not answered within HedgeDelay, first response wins, the loser is
//     cancelled.
//
// Fetch never returns an error: every failure mode (open breaker,
// exhausted retries, timeout, 404) degrades to "not found", and the
// caller computes locally. The cluster can therefore only make a node
// faster, never break it — with no peers configured, behaviour is
// byte-identical to a single daemon.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"github.com/reprolab/hirise/internal/store"
)

// virtualNodes is the per-peer virtual-node count of a Ring.
// 128 points per peer keeps the home-key share of a 3-node cluster
// within a few percent of 1/3.
const virtualNodes = 128

// Ring is a consistent-hash ring over a static peer membership. It is
// immutable after construction and safe for concurrent use.
//
// Each peer owns a set of virtual points, the SHA-256 of "id#i"; a key
// lands on the first point clockwise from the key's own hash. Because
// points depend only on peer IDs, every node of a cluster builds the
// identical ring from the same membership list, in any order — and
// removing a peer only remaps the keys that peer owned.
type Ring struct {
	points []ringPoint
	ids    []string // membership in construction order
}

type ringPoint struct {
	hash uint64
	peer int // index into ids
}

// NewRing builds a ring over the given peer IDs with virtualNodes
// points per peer. IDs must be unique and non-empty.
func NewRing(ids []string) (*Ring, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one peer")
	}
	seen := make(map[string]bool, len(ids))
	r := &Ring{
		points: make([]ringPoint, 0, len(ids)*virtualNodes),
		ids:    append([]string(nil), ids...),
	}
	for pi, id := range ids {
		if id == "" {
			return nil, fmt.Errorf("cluster: empty peer ID")
		}
		if seen[id] {
			return nil, fmt.Errorf("cluster: duplicate peer ID %q", id)
		}
		seen[id] = true
		for v := 0; v < virtualNodes; v++ {
			sum := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", id, v)))
			r.points = append(r.points, ringPoint{binary.BigEndian.Uint64(sum[:8]), pi})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Ties (astronomically unlikely) break on peer index so every
		// node sorts identically.
		return r.points[i].peer < r.points[j].peer
	})
	return r, nil
}

// keyHash maps a store key onto the ring's hash space. Store keys are
// already SHA-256 digests, so their leading bytes are uniform.
func keyHash(k store.Key) uint64 { return binary.BigEndian.Uint64(k[:8]) }

// Home returns the key's home peer: the owner of the first virtual
// point at or after the key's hash.
func (r *Ring) Home(k store.Key) string {
	return r.ids[r.points[r.search(keyHash(k))].peer]
}

// Order returns every peer ID in the key's preference order: the home
// peer first, then each subsequent distinct peer walking clockwise.
// The slice is freshly allocated.
func (r *Ring) Order(k store.Key) []string {
	out := make([]string, 0, len(r.ids))
	seen := make([]bool, len(r.ids))
	for i, n := r.search(keyHash(k)), 0; n < len(r.points); i, n = (i+1)%len(r.points), n+1 {
		p := r.points[i].peer
		if !seen[p] {
			seen[p] = true
			out = append(out, r.ids[p])
			if len(out) == len(r.ids) {
				break
			}
		}
	}
	return out
}

// search returns the index of the first point with hash >= h, wrapping
// to 0 past the last point.
func (r *Ring) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// Peers returns the membership in construction order.
func (r *Ring) Peers() []string { return append([]string(nil), r.ids...) }
