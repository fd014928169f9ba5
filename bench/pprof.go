package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A small reader for the gzipped protobuf CPU profiles runtime/pprof
// writes (perftools.profiles.Profile), enough to fold sample counts by
// call stack. It decodes only the fields it needs: samples, locations,
// their lines' functions, and the string table.

// profStack is one sample: its first value (the sample count for a CPU
// profile) and the function names of its stack, innermost first.
type profStack struct {
	count int64
	funcs []string
}

// pbField is one decoded protobuf field: a varint or a length-delimited
// payload.
type pbField struct {
	num   int
	wire  int
	val   uint64
	bytes []byte
}

var errTruncated = errors.New("pprof: truncated message")

func pbVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errTruncated
}

// pbFields walks the top-level fields of one message.
func pbFields(b []byte, fn func(pbField) error) error {
	for len(b) > 0 {
		key, rest, err := pbVarint(b)
		if err != nil {
			return err
		}
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.val, rest, err = pbVarint(rest)
			if err != nil {
				return err
			}
		case 1:
			if len(rest) < 8 {
				return errTruncated
			}
			rest = rest[8:]
		case 2:
			var n uint64
			n, rest, err = pbVarint(rest)
			if err != nil {
				return err
			}
			if uint64(len(rest)) < n {
				return errTruncated
			}
			f.bytes, rest = rest[:n], rest[n:]
		case 5:
			if len(rest) < 4 {
				return errTruncated
			}
			rest = rest[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
		b = rest
	}
	return nil
}

// pbRepeated appends a repeated integer field's values, packed or not.
func pbRepeated(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.val), nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, rest, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// parseProfile decodes a gzipped pprof profile into its samples.
func parseProfile(gz []byte) ([]profStack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type sample struct {
		locs []uint64
		vals []uint64
	}
	var (
		samples  []sample
		locFuncs = map[uint64][]uint64{} // location id → function ids, innermost first
		funcName = map[uint64]uint64{}   // function id → string index
		strs     []string
	)
	err = pbFields(raw, func(f pbField) error {
		switch f.num {
		case 2: // sample
			var s sample
			err := pbFields(f.bytes, func(g pbField) (err error) {
				switch g.num {
				case 1:
					s.locs, err = pbRepeated(s.locs, g)
				case 2:
					s.vals, err = pbRepeated(s.vals, g)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(f.bytes, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.val
				case 4: // line: inlined callees come first
					return pbFields(g.bytes, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.val)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := pbFields(f.bytes, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.val
				case 2:
					name = g.val
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(f.bytes))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profStack, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		st := profStack{count: int64(s.vals[0])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// Layers a sample can be charged to. The order is the print order.
var (
	cpuLayers   = []string{"sim", "netem", "seg", "tcp", "mptcp", "nlmsg", "core", "controller", "smapp", "scenario", "fleet", "runtime_gc", "other"}
	allocLayers = []string{"sim", "netem", "seg", "tcp", "mptcp", "nlmsg", "core", "controller", "smapp", "scenario", "fleet", "stats", "other"}
)

const layerPrefix = "repro/internal/"

// layerOf charges a stack (innermost frame first) to the innermost frame
// under repro/internal/<layer>. Stacks that never enter the program are
// the runtime's own: garbage-collector workers go to runtime_gc,
// everything else (and packages outside the named layers) to other.
func layerOf(funcs []string, layers []string) string {
	for _, fn := range funcs {
		if rest, ok := strings.CutPrefix(fn, layerPrefix); ok {
			pkg := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				pkg = rest[:i]
			}
			for _, l := range layers {
				if l == pkg {
					return l
				}
			}
			return "other"
		}
	}
	for _, fn := range funcs {
		switch fn {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
			for _, l := range layers {
				if l == "runtime_gc" {
					return l
				}
			}
		}
	}
	return "other"
}
