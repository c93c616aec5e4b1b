package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// A minimal reader for the gzip'd profile.proto runtime/pprof writes: just
// enough to walk every sample's stack by function name. The standard library
// can write this format and cannot read it.

// stackSample is one profile sample: its value (CPU nanoseconds) and its
// function names, leaf first, inlined frames expanded.
type stackSample struct {
	nanos int64
	funcs []string
}

// pbuf decodes protobuf wire format.
type pbuf struct {
	b   []byte
	err error
}

func (p *pbuf) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.err = io.ErrUnexpectedEOF
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.err = errors.New("profile: varint overflows 64 bits")
	return 0
}

// next returns the next field: its number, and either its varint value or
// its length-delimited bytes. Fixed-width fields are skipped.
func (p *pbuf) next() (field int, v uint64, data []byte, ok bool) {
	for len(p.b) > 0 && p.err == nil {
		key := p.varint()
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			return field, p.varint(), nil, p.err == nil
		case 2:
			n := p.varint()
			if p.err != nil {
				return 0, 0, nil, false
			}
			if n > uint64(len(p.b)) {
				p.err = io.ErrUnexpectedEOF
				return 0, 0, nil, false
			}
			data, p.b = p.b[:n], p.b[n:]
			return field, 0, data, true
		case 1, 5:
			n := 8
			if wire == 5 {
				n = 4
			}
			if len(p.b) < n {
				p.err = io.ErrUnexpectedEOF
				return 0, 0, nil, false
			}
			p.b = p.b[n:]
		default:
			p.err = fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return 0, 0, nil, false
}

// uints reads a repeated integer field occurrence, packed or not.
func uints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	p := pbuf{b: data}
	for len(p.b) > 0 && p.err == nil {
		dst = append(dst, p.varint())
	}
	return dst, p.err
}

// readProfile decodes a CPU profile into samples. The sample value used is
// the last one of each sample (cpu/nanoseconds in a runtime/pprof CPU
// profile).
func readProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs  []uint64
		nanos int64
	}
	var (
		samples   []rawSample
		locLines  = make(map[uint64][]uint64) // location id → function ids, innermost first
		funcName  = make(map[uint64]uint64)   // function id → string index
		stringTab []string
	)
	top := pbuf{b: raw}
	for {
		field, _, data, ok := top.next()
		if !ok {
			break
		}
		switch field {
		case 2: // Sample
			var s rawSample
			var vals []uint64
			p := pbuf{b: data}
			for {
				f, v, d, ok := p.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					if s.locs, err = uints(s.locs, v, d); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = uints(vals, v, d); err != nil {
						return nil, err
					}
				}
			}
			if p.err != nil {
				return nil, p.err
			}
			if len(vals) > 0 {
				s.nanos = int64(vals[len(vals)-1])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			p := pbuf{b: data}
			for {
				f, v, d, ok := p.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 4: // Line
					lp := pbuf{b: d}
					for {
						lf, lv, _, ok := lp.next()
						if !ok {
							break
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
					if lp.err != nil {
						return nil, lp.err
					}
				}
			}
			if p.err != nil {
				return nil, p.err
			}
			locLines[id] = fns
		case 5: // Function
			var id, name uint64
			p := pbuf{b: data}
			for {
				f, v, _, ok := p.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			if p.err != nil {
				return nil, p.err
			}
			funcName[id] = name
		case 6: // string_table
			stringTab = append(stringTab, string(data))
		}
	}
	if top.err != nil {
		return nil, top.err
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		ss := stackSample{nanos: s.nanos}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				if idx := funcName[fn]; idx < uint64(len(stringTab)) {
					ss.funcs = append(ss.funcs, stringTab[idx])
				}
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// gcRoots are the entry points of the collector's own goroutines. Collection
// work done on a mutator's stack (allocation assists) stays with the layer
// that allocated.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge",
}

// layerOf charges one stack to a layer: the first frame, walking leaf to
// root, that belongs to a package of the repository — so memmove under
// stream.Snapshot is stream's time. Stacks that pass through the benchmark's
// output checks are the benchmark's own cost whatever they call, as are
// stacks with no repository frame below the benchmark's main package.
// Garbage-collector goroutines go to runtime.gc, the rest to other.
func layerOf(funcs []string) string {
	layer := ""
	bench, gc := false, false
	for _, fn := range funcs {
		if rest, ok := strings.CutPrefix(fn, "sage/benchmark."); ok {
			fn = "main." + rest // the package's name when built as a test
		}
		switch {
		case strings.HasPrefix(fn, "sage/internal/"):
			if layer == "" {
				rest := fn[len("sage/internal/"):]
				if i := strings.IndexAny(rest, "./"); i > 0 {
					layer = rest[:i]
				}
			}
		case strings.HasPrefix(fn, "sage/api/v1."):
			if layer == "" {
				layer = "apiv1"
			}
		case strings.HasPrefix(fn, "sage/cmd/saged."):
			if layer == "" {
				layer = "daemon"
			}
		case strings.HasPrefix(fn, "main.check"):
			return "loadgen"
		case strings.HasPrefix(fn, "main."):
			bench = true
		default:
			gc = gc || slices.Contains(gcRoots, fn)
		}
	}
	switch {
	case slices.Contains(layerCPU, layer):
		return layer
	case layer != "":
		return "other" // a repository package the table does not list
	case bench:
		return "loadgen"
	case gc:
		return "runtime.gc"
	}
	return "other"
}

// layerSeconds sums a profile's samples per layer and returns the total.
func layerSeconds(samples []stackSample) (perLayer map[string]float64, total float64) {
	perLayer = make(map[string]float64)
	for _, s := range samples {
		sec := float64(s.nanos) / 1e9
		perLayer[layerOf(s.funcs)] += sec
		total += sec
	}
	return perLayer, total
}
