package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// modulePath prefixes every function of this repository's module.
const modulePath = "github.com/pod-dedup/pod"

// layerOf names the layer a function belongs to: its package under
// internal/, "pod" for the root package, "bench" for this harness,
// "other" for the rest of the module, and "" outside the module.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, modulePath)
	if !ok {
		return ""
	}
	switch {
	case strings.HasPrefix(rest, "."):
		return "pod"
	case strings.HasPrefix(rest, "/perfbench"):
		return "bench"
	case strings.HasPrefix(rest, "/internal/"):
		pkg := rest[len("/internal/"):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, l := range cpuLayers {
			if l == pkg {
				return pkg
			}
		}
	}
	return "other"
}

// cpuByLayer decodes a gzipped pprof CPU profile and adds each
// sample's CPU nanoseconds to the layer of its innermost module frame
// (so memmove under alloc.Free counts as alloc); samples with no
// module frame count as runtime.
func cpuByLayer(prof []byte, into map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}    // function id → string index
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		samples   [][]uint64              // location ids, leaf first
		sampleVal []int64                 // CPU ns per sample
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var locs []uint64
			var vals []int64
			if err := fields(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					locs = appendVarints(locs, w, v, b)
				case 2:
					for _, x := range appendVarints(nil, w, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) == 0 {
				return errors.New("cpu profile: sample without values")
			}
			samples = append(samples, locs)
			sampleVal = append(sampleVal, vals[len(vals)-1])
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := fields(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(n, w int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			if err := fields(b, func(n, w int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i, locs := range samples {
		layer := "runtime"
	walk:
		for _, loc := range locs {
			for _, fn := range locFuncs[loc] {
				idx := funcName[fn]
				if idx < 0 || idx >= int64(len(strs)) {
					return errors.New("cpu profile: function name out of range")
				}
				if l := layerOf(strs[idx]); l != "" {
					layer = l
					break walk
				}
			}
		}
		into[layer] += sampleVal[i]
	}
	return nil
}

// fields walks the top-level fields of one protobuf message, handing
// each to fn with its number, wire type, and varint value or bytes.
func fields(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("cpu profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("cpu profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("cpu profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("cpu profile: bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("cpu profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errors.New("cpu profile: unknown wire type")
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
