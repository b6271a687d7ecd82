package experiments

import (
	"fmt"
	"sort"
)

// Runner regenerates one paper artifact (or ablation) at the given
// fidelity, or returns the first error one of its simulations met.
type Runner func(Opts) (*Table, error)

// registry maps experiment IDs to runners. Table VI registers itself from
// tablevi.go because it depends on the many-core model.
var registry = map[string]Runner{
	"table1":         TableI,
	"table4":         TableIV,
	"table5":         TableV,
	"fig9a":          Fig9a,
	"fig9b":          Fig9b,
	"fig9c":          Fig9c,
	"fig10":          Fig10,
	"fig11a":         Fig11a,
	"fig11b":         Fig11b,
	"fig11c":         Fig11c,
	"fig12":          Fig12,
	"corner":         CornerCase,
	"discussion":     Discussion,
	"ablate-classes": AblateClasses,
	"ablate-alloc":   AblateAlloc,
	"ablate-vcs":     AblateVCs,
	"ablate-bursty":  AblateBursty,
	"ablate-islip":   AblateISLIP,
	"ablate-qos":     AblateQoS,
	"locality":       Locality,
}

// order fixes the presentation sequence for "all".
var order = []string{
	"table1", "table4", "table4-ci", "table5", "table6", "table6-detail", "table6-addr",
	"fig9a", "fig9b", "fig9c", "fig10", "fig11a", "fig11b", "fig11c", "fig12",
	"corner", "discussion", "kilocore", "locality", "breakdown", "cache-mpki", "degradation",
	"ablate-classes", "ablate-alloc", "ablate-vcs", "ablate-bursty", "ablate-islip", "ablate-qos", "ablate-pktlen",
	"sched-shootout", "fabric", "fabric-degradation",
}

// register adds a runner from another file in this package.
func register(id string, r Runner) { registry[id] = r }

// Get returns the runner for id.
func Get(id string) (Runner, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return r, nil
}

// IDs lists all experiment identifiers in presentation order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	seen := map[string]bool{}
	for _, id := range order {
		if _, ok := registry[id]; ok {
			ids = append(ids, id)
			seen[id] = true
		}
	}
	rest := make([]string, 0)
	for id := range registry {
		if !seen[id] {
			rest = append(rest, id)
		}
	}
	sort.Strings(rest)
	return append(ids, rest...)
}
