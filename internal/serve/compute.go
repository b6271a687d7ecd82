package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"github.com/reprolab/hirise/internal/core"
	"github.com/reprolab/hirise/internal/crossbar"
	"github.com/reprolab/hirise/internal/experiments"
	"github.com/reprolab/hirise/internal/sim"
	"github.com/reprolab/hirise/internal/store"
	"github.com/reprolab/hirise/internal/topo"
	"github.com/reprolab/hirise/internal/traffic"
)

// Request is the body of POST /jobs: either a registered paper
// experiment or an ad-hoc load sweep, mirroring the knobs of
// cmd/hirise-bench and cmd/hirise-sim respectively. Zero-valued fields
// take the same defaults the CLIs use, and the normalized form — not
// the raw body — is what gets hashed into the result key, so
// spelling-level differences between equivalent submissions still hit
// the same cache entry.
type Request struct {
	// Kind selects the computation: "experiment" or "loadsweep".
	Kind string `json:"kind"`

	// Experiment fields (Kind "experiment").

	// Experiment is a registered experiment ID (see hirise-bench -list).
	Experiment string `json:"experiment,omitempty"`
	// Quick selects the reduced smoke-run fidelity.
	Quick bool `json:"quick,omitempty"`
	// Format renders the result as "text", "csv", or "json" (default
	// "text").
	Format string `json:"format,omitempty"`

	// Load-sweep fields (Kind "loadsweep").

	// Design is "2d", "folded", or "hirise" (default "hirise").
	Design string `json:"design,omitempty"`
	// Radix, Layers, Channels, Classes, Scheme, Alloc mirror the
	// hirise-sim flags (defaults: 64, 4, 4, 3, "clrg", "input").
	Radix    int    `json:"radix,omitempty"`
	Layers   int    `json:"layers,omitempty"`
	Channels int    `json:"channels,omitempty"`
	Classes  int    `json:"classes,omitempty"`
	Scheme   string `json:"scheme,omitempty"`
	Alloc    string `json:"alloc,omitempty"`
	// Traffic is the pattern name (default "uniform"); Target and Burst
	// parameterize hotspot and bursty traffic.
	Traffic string  `json:"traffic,omitempty"`
	Target  int     `json:"target,omitempty"`
	Burst   float64 `json:"burst,omitempty"`
	// Loads lists the sweep's offered loads explicitly; alternatively
	// Lo/Hi/Step describe an inclusive range. Exactly one form must be
	// given.
	Loads []float64 `json:"loads,omitempty"`
	Lo    float64   `json:"lo,omitempty"`
	Hi    float64   `json:"hi,omitempty"`
	Step  float64   `json:"step,omitempty"`
	// VCs and Flits mirror -vcs and -flits (defaults 4 and 4).
	VCs   int `json:"vcs,omitempty"`
	Flits int `json:"flits,omitempty"`

	// Shared fidelity overrides (0 keeps the kind's default).

	Seed    uint64 `json:"seed,omitempty"`
	Warmup  int64  `json:"warmup,omitempty"`
	Measure int64  `json:"measure,omitempty"`
}

// normalize validates the request and fills defaults in place, so the
// struct afterwards is the canonical identity of the computation.
func (r *Request) normalize() error {
	switch r.Kind {
	case "experiment":
		if _, err := experiments.Get(r.Experiment); err != nil {
			return err
		}
		switch r.Format {
		case "":
			r.Format = "text"
		case "text", "csv", "json":
		default:
			return fmt.Errorf("serve: unknown format %q (want text, csv, or json)", r.Format)
		}
		return nil
	case "loadsweep":
		if r.Design == "" {
			r.Design = "hirise"
		}
		r.Design = strings.ToLower(r.Design)
		if r.Radix == 0 {
			r.Radix = 64
		}
		if r.Layers == 0 {
			r.Layers = 4
		}
		if r.Channels == 0 {
			r.Channels = 4
		}
		if r.Classes == 0 {
			r.Classes = 3
		}
		if r.Scheme == "" {
			r.Scheme = "clrg"
		}
		r.Scheme = strings.ToLower(r.Scheme)
		if r.Alloc == "" {
			r.Alloc = "input"
		}
		r.Alloc = strings.ToLower(r.Alloc)
		if r.Traffic == "" {
			r.Traffic = "uniform"
		}
		r.Traffic = strings.ToLower(r.Traffic)
		if r.VCs == 0 {
			r.VCs = 4
		}
		if r.VCs < 1 || r.VCs > 64 {
			return fmt.Errorf("serve: vcs %d out of range 1..64", r.VCs)
		}
		if r.Flits == 0 {
			r.Flits = 4
		}
		if r.Seed == 0 {
			r.Seed = 1
		}
		if r.Warmup == 0 {
			r.Warmup = 10000
		}
		if r.Measure == 0 {
			r.Measure = 50000
		}
		if len(r.Loads) == 0 {
			if r.Step <= 0 || r.Hi < r.Lo {
				return fmt.Errorf("serve: loadsweep needs loads[] or lo/hi/step with step > 0 and hi >= lo")
			}
			for l := r.Lo; l <= r.Hi+1e-12; l += r.Step {
				r.Loads = append(r.Loads, l)
			}
			r.Lo, r.Hi, r.Step = 0, 0, 0 // folded into Loads for the key
		} else if r.Step != 0 || r.Lo != 0 || r.Hi != 0 {
			return fmt.Errorf("serve: give loads[] or lo/hi/step, not both")
		}
		// Building the factories validates design/scheme/alloc/traffic.
		if _, _, err := r.sweepFactories(); err != nil {
			return err
		}
		return nil
	default:
		return fmt.Errorf("serve: unknown kind %q (want experiment or loadsweep)", r.Kind)
	}
}

// switchConfig assembles the topo.Config a loadsweep request describes.
func (r *Request) switchConfig() (topo.Config, error) {
	cfg := topo.Config{Radix: r.Radix, Layers: r.Layers, Channels: r.Channels, Classes: r.Classes}
	switch r.Scheme {
	case "l2l", "lrg":
		cfg.Scheme = topo.L2LLRG
	case "wlrg":
		cfg.Scheme = topo.WLRG
	case "clrg":
		cfg.Scheme = topo.CLRG
	default:
		return cfg, fmt.Errorf("serve: unknown scheme %q", r.Scheme)
	}
	switch r.Alloc {
	case "input":
		cfg.Alloc = topo.InputBinned
	case "output":
		cfg.Alloc = topo.OutputBinned
	case "priority":
		cfg.Alloc = topo.PriorityBased
	default:
		return cfg, fmt.Errorf("serve: unknown allocation %q", r.Alloc)
	}
	return cfg, nil
}

// sweepFactories returns pure switch and traffic factories for a
// loadsweep request, validating every enum along the way.
func (r *Request) sweepFactories() (func() sim.Switch, func() sim.Traffic, error) {
	cfg, err := r.switchConfig()
	if err != nil {
		return nil, nil, err
	}
	var mkSwitch func() sim.Switch
	switch r.Design {
	case "2d":
		mkSwitch = func() sim.Switch { return crossbar.New(r.Radix) }
	case "folded":
		mkSwitch = func() sim.Switch { return crossbar.NewFolded(r.Radix, r.Layers) }
	case "hirise":
		if err := core.Validate(cfg); err != nil {
			return nil, nil, err
		}
		mkSwitch = func() sim.Switch {
			sw, err := core.New(cfg)
			if err != nil {
				panic(err) // validated above
			}
			return sw
		}
	default:
		return nil, nil, fmt.Errorf("serve: unknown design %q", r.Design)
	}

	var mkTraffic func() sim.Traffic
	switch r.Traffic {
	case "uniform":
		mkTraffic = func() sim.Traffic { return traffic.Uniform{Radix: r.Radix} }
	case "hotspot":
		mkTraffic = func() sim.Traffic { return traffic.Hotspot{Target: r.Target} }
	case "adversarial":
		mkTraffic = func() sim.Traffic { return traffic.Adversarial() }
	case "bursty":
		burst := r.Burst
		if burst == 0 {
			burst = 8
		}
		mkTraffic = func() sim.Traffic { return traffic.NewBursty(r.Radix, burst) }
	case "permutation":
		mkTraffic = func() sim.Traffic { return traffic.NewRandomPermutation(r.Radix, r.Seed) }
	case "bitrev":
		mkTraffic = func() sim.Traffic { return traffic.BitReverse{Radix: r.Radix} }
	case "interlayer":
		mkTraffic = func() sim.Traffic { return traffic.InterLayerWorstCase{Cfg: cfg} }
	case "layerlocal":
		mkTraffic = func() sim.Traffic { return traffic.LayerLocal{Cfg: cfg} }
	case "binadv":
		mkTraffic = func() sim.Traffic { return traffic.BinAdversarial{Cfg: cfg} }
	default:
		return nil, nil, fmt.Errorf("serve: unknown traffic %q", r.Traffic)
	}
	return mkSwitch, mkTraffic, nil
}

// keyPayload is what the store hashes for a job, alongside the kind and
// the model-version fingerprint: the normalized request plus everything
// CacheKey folds in for experiments (publication-fidelity windows, the
// technology constants). Worker counts are deliberately absent — output
// is byte-identical at any parallelism.
type keyPayload struct {
	Request Request              `json:"request"`
	Opts    experiments.CacheKey `json:"opts,omitempty"`
}

// experimentOpts assembles the experiment options a request selects.
func (r Request) experimentOpts() experiments.Opts {
	o := experiments.DefaultOpts()
	if r.Quick {
		o = experiments.QuickOpts()
	}
	if r.Seed != 0 {
		o.Seed = r.Seed
	}
	if r.Warmup != 0 {
		o.Warmup = r.Warmup
	}
	if r.Measure != 0 {
		o.Measure = r.Measure
	}
	return o
}

// keyOf derives the job's content address from the normalized request.
func (s *Server) keyOf(r Request) (store.Key, error) {
	p := keyPayload{Request: r}
	if r.Kind == "experiment" {
		p.Opts = r.experimentOpts().CacheKey()
	}
	return s.store.KeyOf(r.Kind, p)
}

// SweepPoint is one row of a loadsweep result body.
type SweepPoint struct {
	Load   float64    `json:"load"`
	Result sim.Result `json:"result"`
}

// compute runs the job's computation under ctx — the store's
// singleflight context, live while any client still wants the result —
// and returns the result body. It is only called on a cache miss.
func (s *Server) compute(ctx context.Context, j *job) ([]byte, error) {
	switch j.req.Kind {
	case "experiment":
		opts := j.req.experimentOpts()
		opts.Workers = s.cfg.SimWorkers
		opts.Progress = func() { j.progress.Add(1) }
		t, err := experiments.RunCtx(ctx, j.req.Experiment, opts)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		switch j.req.Format {
		case "csv":
			err = t.WriteCSV(&buf)
		case "json":
			err = t.WriteJSON(&buf)
		default:
			t.Fprint(&buf)
		}
		if err != nil {
			return nil, err
		}
		return buf.Bytes(), nil

	case "loadsweep":
		mkSwitch, mkTraffic, err := j.req.sweepFactories()
		if err != nil {
			return nil, err
		}
		counted := func() sim.Switch {
			j.progress.Add(1)
			return mkSwitch()
		}
		base := sim.Config{
			PacketFlits: j.req.Flits, VCs: j.req.VCs,
			Warmup: j.req.Warmup, Measure: j.req.Measure,
			Seed: j.req.Seed, Ctx: ctx,
		}
		results, err := sim.LoadSweep(base, counted, mkTraffic, j.req.Loads, s.cfg.SimWorkers)
		if err != nil {
			return nil, err
		}
		points := make([]SweepPoint, len(results))
		for i, res := range results {
			points[i] = SweepPoint{Load: j.req.Loads[i], Result: res}
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(points); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	return nil, fmt.Errorf("serve: unknown kind %q", j.req.Kind)
}

// contentType returns the Content-Type of a job's result body.
func contentType(r Request) string {
	if r.Kind == "loadsweep" || r.Format == "json" {
		return "application/json"
	}
	if r.Format == "csv" {
		return "text/csv; charset=utf-8"
	}
	return "text/plain; charset=utf-8"
}
