package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuModules are the buckets of the per-package CPU self-time shares,
// reported as cpu_share.<module>. Samples outside every bucket count as
// cpu_share.other.
var cpuModules = []string{
	"sim", "core", "crossbar", "arb", "sched", "fabric", "traffic", "prng",
	"stats", "pool", "serve", "store", "cluster", "net_http", "encoding_json", "runtime_gc",
}

const repoInternal = "github.com/reprolab/hirise/internal/"

// gcRoots are runtime functions whose presence anywhere on a sample's
// stack marks the sample as garbage-collector work.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.markroot", "runtime.GC",
}

// bucketOf maps one sample's stack (leaf first) to its module bucket:
// GC work wherever it was triggered, otherwise the package of the leaf
// function — its self time.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		for _, root := range gcRoots {
			if fn == root || strings.HasPrefix(fn, root+".") {
				return "runtime_gc"
			}
		}
	}
	if len(stack) == 0 {
		return "other"
	}
	pkg := packageOf(stack[0])
	switch {
	case strings.HasPrefix(pkg, repoInternal):
		name := strings.TrimPrefix(pkg, repoInternal)
		for _, m := range cpuModules {
			if m == name {
				return m
			}
		}
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
		return "net_http"
	case pkg == "encoding/json":
		return "encoding_json"
	}
	return "other"
}

// packageOf returns the import path of a symbolized Go function name
// such as "github.com/x/y/internal/sim.(*Switch).Step" or
// "net/http.(*conn).serve".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// cpuShares decodes a gzipped pprof CPU profile (as written by
// runtime/pprof) and returns each bucket's share of sampled CPU time.
// Every bucket of cpuModules plus "other" is present in the result.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	totals := map[string]int64{}
	var all int64
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range p.locLines[loc] {
				stack = append(stack, p.strings[p.funcName[fid]])
			}
		}
		b := bucketOf(stack)
		totals[b] += s.value
		all += s.value
	}
	out := map[string]float64{"other": ratio(float64(totals["other"]), float64(all))}
	for _, m := range cpuModules {
		out[m] = ratio(float64(totals[m]), float64(all))
	}
	return out, nil
}

// profile is the subset of profile.proto the buckets need.
type profile struct {
	samples  []profSample
	locLines map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string-table index
	strings  []string
}

type profSample struct {
	locs  []uint64 // leaf first
	value int64    // last sample value (CPU nanoseconds)
}

// parseProfile decodes an uncompressed profile.proto message: samples
// (field 2), locations (4), functions (5) and the string table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locLines: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s profSample
			err := eachField(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					s.locs = appendInts(s.locs, v, d)
				case 2:
					vals := appendInts(nil, v, d)
					if len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(d, func(ln int, lv uint64, _ []byte) error {
						if ln == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("cpu profile: function name out of string table")
		}
	}
	return p, nil
}

// appendInts appends a repeated integer field's values: one varint v
// when unpacked (data nil), or every varint of the packed payload.
func appendInts(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// eachField walks a protobuf message, calling fn with each field's
// number and either its varint value (data nil) or its length-delimited
// payload. Fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		tag, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("cpu profile: bad tag")
		}
		b = b[n:]
		num, wire := int(tag>>3), tag&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("cpu profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("cpu profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("cpu profile: bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("cpu profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("cpu profile: wire type %d", wire)
		}
	}
	return nil
}
