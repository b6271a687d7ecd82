// Package version pins the behavioural fingerprint of the simulation
// models. The fingerprint participates in every internal/store cache
// key, so bumping it invalidates all previously cached results at once
// — stale entries simply stop being found, they never need explicit
// eviction.
package version

// Model identifies the current behaviour of the simulators and cost
// models. Bump it whenever a change alters any simulated or computed
// result (arbitration order, seed derivation, traffic generation,
// physical calibration, result serialization, ...). Refactors that keep
// outputs byte-identical must NOT bump it, so caches survive them.
//
// History:
//
//	model-3  first cached release (PR 3): store/serve subsystem landed
//	model-4  noc lane tie-break rehashed on a seed-derived flow hash
//	         (kilocore output changes); fabric simulator landed
//	model-5  kilocore runs on fabric; noc deleted
//	model-6  hirise-sim -design 2d runs interlayer, layerlocal and binadv
//	         traffic on the -layers map, as served loadsweeps do
//	model-7  result latencies binned by obs.Histogram: AvgLatency is
//	         sum/count, not Welford's running mean, so it changes in its
//	         last bits in serialized results; printed tables are unchanged
const Model = "model-7"
