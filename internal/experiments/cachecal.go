package experiments

import (
	"github.com/reprolab/hirise/internal/cache"
	"github.com/reprolab/hirise/internal/trace"
)

func init() { register("cache-mpki", CacheMPKI) }

// memRefsPerInstr is the assumed memory-reference density used to
// convert between MPKI and L1 miss rate (roughly one reference every
// three instructions, a standard SPEC-class figure).
const memRefsPerInstr = 0.3

// CacheMPKI validates the workload substitution behind Table VI: the
// per-benchmark MPKIs that internal/trace asserts are realizable by real
// cache behaviour. For a representative subset of the catalog it sizes a
// synthetic working set, streams it through the actual Table III L1
// (32 KB, 4-way, 64 B, LRU), and compares the measured MPKI to the
// catalog value the many-core model injects.
func CacheMPKI(o Opts) (*Table, error) {
	o = o.norm()
	names := []string{"sjeng", "gcc", "astar", "sjas", "milc", "swim", "Gems", "mcf"}
	refs := int(o.Measure) * 8
	rows, err := sweep(o, len(names), func(i int) ([]string, error) {
		b, err := trace.Lookup(names[i])
		if err != nil {
			return nil, err
		}
		target := b.NetMPKI / 1000 / memRefsPerInstr
		p := cache.ForMissRate(target, cache.L1D())
		measured, err := cache.MeasureMissRate(o.ctx, p, cache.L1D(), refs, o.seedFor("cache-mpki", i, 0))
		if err != nil {
			return nil, err
		}
		return []string{
			b.Name,
			f(b.NetMPKI, 1),
			f(float64(p.WorkingSetBytes)/1024, 0),
			f(measured*memRefsPerInstr*1000, 1),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:     "cache-mpki",
		Title:  "Catalog MPKI realized on the real Table III L1 (32KB 4-way LRU, 64B blocks)",
		Header: []string{"Benchmark", "Catalog MPKI", "Working set (KB)", "Measured MPKI"},
		Rows:   rows,
		Notes: []string{
			"assumes ~0.3 memory references per instruction",
			"shows the trace substitution's MPKIs correspond to realizable cache behaviour, not arbitrary rates",
		},
	}, nil
}
