package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"github.com/reprolab/hirise/internal/experiments"
	"github.com/reprolab/hirise/internal/sim"
	"github.com/reprolab/hirise/internal/spec"
	"github.com/reprolab/hirise/internal/store"
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

	// Load-sweep fields (Kind "loadsweep") are spec.Spec's, named like
	// hirise-sim's flags; an omitted one takes spec.Default's value.

	Design   string  `json:"design,omitempty"`
	Radix    int     `json:"radix,omitempty"`
	Layers   int     `json:"layers,omitempty"`
	Channels int     `json:"channels,omitempty"`
	Classes  int     `json:"classes,omitempty"`
	Scheme   string  `json:"scheme,omitempty"`
	Alloc    string  `json:"alloc,omitempty"`
	Traffic  string  `json:"traffic,omitempty"`
	Target   int     `json:"target,omitempty"`
	Burst    float64 `json:"burst,omitempty"`
	// Loads lists the sweep's offered loads explicitly; alternatively
	// Lo/Hi/Step describe an inclusive range. Exactly one form must be
	// given.
	Loads []float64 `json:"loads,omitempty"`
	Lo    float64   `json:"lo,omitempty"`
	Hi    float64   `json:"hi,omitempty"`
	Step  float64   `json:"step,omitempty"`
	VCs   int       `json:"vcs,omitempty"`
	Flits int       `json:"flits,omitempty"`

	// Shared fidelity overrides (0 keeps the kind's default).

	Seed    uint64 `json:"seed,omitempty"`
	Warmup  int64  `json:"warmup,omitempty"`
	Measure int64  `json:"measure,omitempty"`
}

// normalize validates the request and fills defaults in place, so the
// struct afterwards is the canonical identity of the computation.
func (r *Request) normalize() error {
	if r.Warmup < 0 {
		return fmt.Errorf("serve: warmup %d is negative", r.Warmup)
	}
	if r.Measure < 0 {
		return fmt.Errorf("serve: measure %d is negative", r.Measure)
	}
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
		d := spec.Default
		r.Design = strings.ToLower(or(r.Design, d.Design))
		r.Radix = or(r.Radix, d.Radix)
		r.Layers = or(r.Layers, d.Layers)
		r.Channels = or(r.Channels, d.Channels)
		r.Classes = or(r.Classes, d.Classes)
		r.Scheme = strings.ToLower(or(r.Scheme, d.Scheme))
		r.Alloc = strings.ToLower(or(r.Alloc, d.Alloc))
		r.Traffic = strings.ToLower(or(r.Traffic, d.Traffic))
		r.VCs = or(r.VCs, d.VCs)
		if r.VCs < 1 || r.VCs > 64 {
			return fmt.Errorf("serve: vcs %d out of range 1..64", r.VCs)
		}
		r.Flits = or(r.Flits, d.Flits)
		r.Seed = or(r.Seed, d.Seed)
		r.Warmup = or(r.Warmup, d.Warmup)
		r.Measure = or(r.Measure, d.Measure)
		if len(r.Loads) == 0 {
			loads, err := spec.Sweep(r.Lo, r.Hi, r.Step)
			if err != nil {
				return fmt.Errorf("serve: loadsweep needs loads[] or lo/hi/step: %v", err)
			}
			r.Loads = loads
			r.Lo, r.Hi, r.Step = 0, 0, 0 // folded into Loads for the key
		} else if r.Step != 0 || r.Lo != 0 || r.Hi != 0 {
			return fmt.Errorf("serve: give loads[] or lo/hi/step, not both")
		} else if err := spec.CheckLoads(r.Loads); err != nil {
			return err
		}
		_, _, err := r.sweepSpec().Factories()
		return err
	default:
		return fmt.Errorf("serve: unknown kind %q (want experiment or loadsweep)", r.Kind)
	}
}

// or returns v, or d when v is zero: an omitted field takes its default.
func or[T comparable](v, d T) T {
	var zero T
	if v == zero {
		return d
	}
	return v
}

// sweepSpec maps a loadsweep request onto the spec both front ends
// run. An omitted burst takes its default here rather than in the
// request, so it stays out of the store key.
func (r *Request) sweepSpec() spec.Spec {
	return spec.Spec{
		Design: r.Design, Radix: r.Radix, Layers: r.Layers, Channels: r.Channels, Classes: r.Classes,
		Scheme: r.Scheme, Alloc: r.Alloc,
		Traffic: r.Traffic, Target: r.Target, Burst: or(r.Burst, spec.Default.Burst), Seed: r.Seed,
		VCs: r.VCs, Flits: r.Flits, Warmup: r.Warmup, Measure: r.Measure,
	}
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
		sp := j.req.sweepSpec()
		mkSwitch, mkTraffic, err := sp.Factories()
		if err != nil {
			return nil, err
		}
		counted := func() sim.Switch {
			j.progress.Add(1)
			return mkSwitch()
		}
		base := sp.SimConfig()
		base.Ctx = ctx
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
