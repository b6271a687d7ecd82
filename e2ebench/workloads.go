package main

import (
	"time"

	"github.com/reprolab/hirise/internal/serve"
)

// serveHot: a keyspace of cheap 2-D sweeps, six times one node's
// 256-entry memory LRU, so every request is a memory hit, a disk hit or
// a peer fetch.
var serveHot = serveWorkload{
	name: "serve_hot", rate: 800, keyspace: 1536,
	limit: 25 * time.Millisecond, lateBound: 50 * time.Millisecond,
	spec: func(seed uint64, k int) serve.Request {
		return loadsweep("2d", 8, 0.1, 50, 200, specSeed(seed, "serve_hot", k))
	},
}

// serveCold: every request a distinct Hi-Rise radix-64 sweep point, so
// each misses the store, takes the peer 404 path and computes through
// sim.LoadSweep. Overloaded on a 2-vCPU host, the cluster completes
// about 480 of these jobs per second; 150/s leaves queue wait in bursts
// but headroom for the host's own stalls, so the backlog never grows.
var serveCold = serveWorkload{
	name: "serve_cold", rate: 150, keyspace: 0,
	limit: 100 * time.Millisecond, lateBound: 50 * time.Millisecond,
	spec: func(seed uint64, k int) serve.Request {
		return loadsweep("hirise", 64, 0.2, 30, 150, specSeed(seed, "serve_cold", k))
	},
	warm: 48,
}
