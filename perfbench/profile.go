package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the layers cpuSelfShares attributes samples to; every
// other package of the repository counts as "other", and a stack with no
// repository frame at all (goroutine switches, the scavenger) as
// "runtime".
var cpuLayers = []string{"sim", "simnet", "obslog", "sched", "flow", "transfer",
	"facility", "slo", "telemetry", "scenario", "core"}

// cpuSelfShares reads a runtime/pprof CPU profile and returns, per layer,
// the percentage of CPU time whose innermost repository frame lies in
// that layer's package. Time in the standard library or the runtime is
// charged to the repository frame that called it (its self time as seen
// from the repository), except garbage collection, which is its own
// "gc" layer: any stack under a GC worker or a GC assist.
func cpuSelfShares(gz []byte) (map[string]float64, error) {
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
	known := map[string]bool{}
	for _, l := range cpuLayers {
		known[l] = true
	}
	byLayer := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		v := s.value
		total += v
		byLayer[p.layerOf(s.locs, known)] += v
	}
	out := map[string]float64{}
	for _, l := range append(cpuLayers, "gc", "other", "runtime") {
		if total > 0 {
			out[l] = 100 * float64(byLayer[l]) / float64(total)
		} else {
			out[l] = 0
		}
	}
	return out, nil
}

// layerOf walks a stack from the leaf outwards.
func (p *profile) layerOf(locs []uint64, known map[string]bool) string {
	layer := ""
	for _, id := range locs {
		for _, fn := range p.locations[id] {
			name := p.strings[p.functions[fn]]
			if name == "runtime.gcBgMarkWorker" || name == "runtime.gcAssistAlloc" {
				return "gc"
			}
			if layer != "" {
				continue
			}
			if rest, ok := strings.CutPrefix(name, "repro/internal/"); ok {
				pkg, _, _ := strings.Cut(rest, ".")
				pkg, _, _ = strings.Cut(pkg, "/")
				layer = "other"
				if known[pkg] {
					layer = pkg
				}
			}
		}
	}
	if layer == "" {
		return "runtime"
	}
	return layer
}

// profile is the part of profile.proto cpuSelfShares needs.
type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]int64    // function id → name string index
	strings   []string
}

type profSample struct {
	locs  []uint64 // leaf first
	value int64    // the last sample value: CPU nanoseconds
}

// parseProfile decodes the protobuf fields of profile.proto that hold
// samples (2), locations (4), functions (5) and the string table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(field int, wire int, v uint64, msg []byte) error {
		switch field {
		case 2:
			var s profSample
			var vals []uint64
			if err := eachField(msg, func(f, w int, v uint64, m []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, m)
				case 2:
					vals = appendVarints(vals, w, v, m)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			if err := eachField(msg, func(f, w int, v uint64, m []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(m, func(lf, lw int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locations[id] = fns
		case 5:
			var id uint64
			var name int64
			if err := eachField(msg, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.functions[id] = name
		case 6:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, n := range p.functions {
		if n < 0 || n >= int64(len(p.strings)) {
			return nil, fmt.Errorf("cpu profile: function name index %d out of range", n)
		}
	}
	return p, nil
}

// appendVarints appends a repeated integer field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, msg []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		msg = msg[n:]
	}
	return dst
}

// eachField walks one protobuf message, passing varint fields as v and
// length-delimited ones as msg; fixed-width fields are skipped.
func eachField(b []byte, fn func(field, wire int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("cpu profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("cpu profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("cpu profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("cpu profile: bad length")
			}
			msg = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("cpu profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("cpu profile: wire type %d", wire)
		}
		if err := fn(field, wire, v, msg); err != nil {
			return err
		}
	}
	return nil
}
