// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI). Each runner returns a Table — a titled grid of
// formatted rows — that cmd/hirise-bench prints and the repository-root
// benchmarks time. Figure runners emit the figure's series as columns.
//
// Simulation-backed experiments accept Opts so tests and benchmarks can
// trade fidelity for speed; the defaults match the fidelity used for
// EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"

	"github.com/reprolab/hirise/internal/phys"
	"github.com/reprolab/hirise/internal/pool"
	"github.com/reprolab/hirise/internal/sim"
	"github.com/reprolab/hirise/internal/spec"
	"github.com/reprolab/hirise/internal/topo"
)

// Opts tunes simulation fidelity.
type Opts struct {
	// Warmup and Measure are the simulation windows in cycles.
	Warmup, Measure int64
	// Seed drives all stochastic components. Every simulation task
	// derives its own stream from it via seedFor, so results are
	// identical at any Workers count.
	Seed uint64
	// Tech is the process technology (zero value: Default32nm).
	Tech phys.Tech
	// Workers bounds the number of simulations run concurrently within
	// an experiment: 0 selects runtime.GOMAXPROCS(0), 1 forces serial
	// execution. Output is byte-identical at every value.
	Workers int
	// ConvergeStop lets every simulation stop early once the MSER
	// steady-state detector converges (see sim.Config.ConvergeStop).
	// The stop decision is deterministic per run, so parallel output
	// stays byte-identical — but results differ from full-length runs,
	// so the flag is part of CacheKey.
	ConvergeStop bool
	// ctx is RunCtx's context: pending sweep points are skipped and
	// in-flight simulations abort at their next cycle-level check. Like
	// Progress it never influences results, so neither is in CacheKey.
	ctx context.Context
	// Progress, when non-nil, is called once after every task of the
	// experiment's sweeps. It runs on worker goroutines and must be safe
	// for concurrent use; it must not block.
	Progress func()
}

// DefaultOpts returns the fidelity used for the published EXPERIMENTS.md
// numbers.
func DefaultOpts() Opts {
	return Opts{Warmup: 10000, Measure: 50000, Seed: 1, Tech: phys.Default32nm()}
}

// QuickOpts returns a fast, lower-fidelity variant for tests and smoke
// runs.
func QuickOpts() Opts {
	return Opts{Warmup: 2000, Measure: 8000, Seed: 1, Tech: phys.Default32nm()}
}

// norm fills unset (zero) fields with the DefaultOpts values. Note that
// zero means "unset" for every numeric field, so an explicit Seed 0 or
// Warmup 0 is indistinguishable from the default and is remapped (Seed
// 0 becomes 1, mirroring sim.Config.Defaults); Workers 0 is left for
// the pool to resolve to runtime.GOMAXPROCS(0).
func (o Opts) norm() Opts {
	d := DefaultOpts()
	if o.Warmup == 0 {
		o.Warmup = d.Warmup
	}
	if o.Measure == 0 {
		o.Measure = d.Measure
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	if o.Tech == (phys.Tech{}) {
		o.Tech = d.Tech
	}
	return o
}

// CacheKey is the canonical cacheable identity of an experiment run:
// exactly the Opts fields that influence results, normalized so that
// explicitly-default and unset options collide. Workers is excluded
// (output is byte-identical at every worker count — that is the pool's
// contract), as are the context and Progress (control plumbing, not
// physics).
// internal/store hashes this struct, together with the experiment ID and
// the model-version fingerprint, into the result key.
type CacheKey struct {
	Warmup  int64
	Measure int64
	Seed    uint64
	Tech    phys.Tech
	// ConvergeStop is omitted when false so that keys hashed before the
	// flag existed keep identifying the same full-length runs.
	ConvergeStop bool `json:"converge_stop,omitempty"`
}

// CacheKey returns the run's cacheable identity (see type CacheKey).
func (o Opts) CacheKey() CacheKey {
	o = o.norm()
	return CacheKey{Warmup: o.Warmup, Measure: o.Measure, Seed: o.Seed, Tech: o.Tech, ConvergeStop: o.ConvergeStop}
}

// RunCtx runs the registered experiment id at the given fidelity under
// ctx, the only way a context reaches a runner. It returns the table,
// or no table and the first error a simulation met, named by id; a
// cancelled ctx returns an error wrapping ctx.Err(). A negative Warmup
// or Measure is an error before any runner starts.
func RunCtx(ctx context.Context, id string, o Opts) (*Table, error) {
	r, err := Get(id)
	if err != nil {
		return nil, err
	}
	if o.Warmup < 0 {
		return nil, fmt.Errorf("experiments: warmup %d is negative", o.Warmup)
	}
	if o.Measure < 0 {
		return nil, fmt.Errorf("experiments: measure %d is negative", o.Measure)
	}
	o.ctx = ctx
	t, err := r(o)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	return t, nil
}

// Table is a rendered experiment result.
type Table struct {
	// ID is the experiment identifier ("table4", "fig10", ...).
	ID string
	// Title describes what the paper artifact shows.
	Title string
	// Header names the columns.
	Header []string
	// Rows holds formatted cells.
	Rows [][]string
	// Notes documents modeling caveats for this experiment.
	Notes []string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// Design names one concrete switch under evaluation. It builds, costs
// and renders it through internal/spec's design table.
type Design struct {
	// Name is the row label.
	Name string
	// Spec is the spec design: "2d", "folded" or "hirise".
	Spec string
	// Cfg is the full configuration (2D uses only Radix; folded uses
	// Radix and Layers).
	Cfg topo.Config
}

// Designs used across experiments. The Hi-Rise variants use the paper's
// 4-layer 64-radix geometry with input binning and 3 CLRG classes.
func design2D(radix int) Design {
	return Design{Name: "2D", Spec: "2d", Cfg: topo.Config{Radix: radix, Layers: 1}}
}

func designFolded(radix, layers int) Design {
	return Design{Name: "3D Folded", Spec: "folded", Cfg: topo.Config{Radix: radix, Layers: layers}}
}

func designHiRise(name string, channels int, scheme topo.Scheme) Design {
	return Design{Name: name, Spec: "hirise", Cfg: topo.Config{
		Radix: 64, Layers: 4, Channels: channels,
		Alloc: topo.InputBinned, Scheme: scheme, Classes: 3,
	}}
}

// designHeader is a table header: the first column's name, then one
// column per design.
func designHeader(first string, designs []Design) []string {
	h := []string{first}
	for _, d := range designs {
		h = append(h, d.Name)
	}
	return h
}

// byColumn lays out a design-major sweep, where cell k belongs to design
// k/len(xs) at x k%len(xs), as one row per x: the x value, then each
// design's cell.
func byColumn(xs []float64, cells []string) [][]string {
	rows := make([][]string, len(xs))
	for i, x := range xs {
		row := []string{f(x, 2)}
		for k := i; k < len(cells); k += len(xs) {
			row = append(row, cells[k])
		}
		rows[i] = row
	}
	return rows
}

// NewSwitch builds a fresh simulator instance of the design.
func (d Design) NewSwitch() sim.Switch { return spec.NewSwitch(d.Spec, d.Cfg) }

// Cost returns the design's physical cost.
func (d Design) Cost(tech phys.Tech) phys.Cost { return spec.CostOf(d.Spec, d.Cfg, tech) }

// ConfigString renders the design's structure in the paper's table style.
func (d Design) ConfigString() string { return spec.ConfigString(d.Spec, d.Cfg) }

// sweep runs point(i) for i in [0,n) at the options' worker count and
// returns the results in index order, under pool.Sweep's contract: a
// cancelled ctx returns its error, otherwise the lowest-index error
// wins. Per-task PRNG streams come from o.seedFor, never from
// scheduling. Progress fires once after every task.
func sweep[R any](o Opts, n int, point func(i int) (R, error)) ([]R, error) {
	return pool.Sweep(o.ctx, n, o.Workers, 0, func(i int, _ uint64) (R, error) {
		if o.Progress != nil {
			defer o.Progress()
		}
		return point(i)
	})
}

// simConfig returns the sim.Config fields every simulation task takes
// from o: the ctx, the windows, ConvergeStop and the seed
// o.seedFor(id, point, replicate). Callers add the switch, traffic and
// load.
func (o Opts) simConfig(id string, point, replicate int) sim.Config {
	return sim.Config{
		Ctx: o.ctx, Warmup: o.Warmup, Measure: o.Measure,
		Seed: o.seedFor(id, point, replicate), ConvergeStop: o.ConvergeStop,
	}
}

// seedFor derives the PRNG seed of one simulation task from the base
// seed and the task's stable coordinates: the experiment ID, the point
// index within the sweep, and the replicate (seed) index. The derivation
// (splitmix64 chaining, see internal/pool) depends only on these
// coordinates — never on worker identity or completion order — which is
// what makes parallel experiment output byte-identical to serial output.
func (o Opts) seedFor(id string, point, replicate int) uint64 {
	return pool.SeedFor(o.Seed, pool.StringID(id), uint64(point), uint64(replicate))
}

// f formats a float with the given precision.
func f(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }
