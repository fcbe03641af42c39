package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
)

// profiler records a traced rep's CPU profile from the first measured
// phase to the end of the harvest, and an allocation profile at each end
// of that window; the allocations in between are their difference.
type profiler struct {
	dir    string
	cpu    bytes.Buffer
	allocs bytes.Buffer // allocation profile when measuring began
}

func (p *profiler) begin() error {
	runtime.GC() // the allocation profile is as of the last collection
	if err := pprof.Lookup("allocs").WriteTo(&p.allocs, 0); err != nil {
		return fmt.Errorf("allocation profile: %w", err)
	}
	return pprof.StartCPUProfile(&p.cpu)
}

// end stops profiling, writes the raw profiles into p.dir and returns
// the CPU samples and the bytes allocated per layer bucket.
func (p *profiler) end() (cpu, alloc map[string]int64, err error) {
	pprof.StopCPUProfile()
	runtime.GC()
	var last bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&last, 0); err != nil {
		return nil, nil, fmt.Errorf("allocation profile: %w", err)
	}
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return nil, nil, err
	}
	for name, b := range map[string][]byte{
		"cpu.pprof": p.cpu.Bytes(), "allocs-begin.pprof": p.allocs.Bytes(), "allocs-end.pprof": last.Bytes(),
	} {
		if err := os.WriteFile(filepath.Join(p.dir, name), b, 0o644); err != nil {
			return nil, nil, err
		}
	}
	if cpu, err = bucketProfile(p.cpu.Bytes(), "samples"); err != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	before, err := bucketProfile(p.allocs.Bytes(), "alloc_space")
	if err != nil {
		return nil, nil, fmt.Errorf("allocation profile: %w", err)
	}
	if alloc, err = bucketProfile(last.Bytes(), "alloc_space"); err != nil {
		return nil, nil, fmt.Errorf("allocation profile: %w", err)
	}
	for k, v := range before {
		alloc[k] -= v
	}
	return cpu, alloc, nil
}

// layerOf buckets one sample's stack, leaf first. Collector work is
// runtime.gc wherever it runs and the benchmark's bookkeeping is bench;
// otherwise the leaf-most frame in one of this repository's modules
// names the layer, and a stack with none is the Go scheduler's.
func layerOf(stack []string) string {
	for _, f := range stack {
		if isGC(f) {
			return "runtime.gc"
		}
	}
	for _, f := range stack {
		if strings.HasPrefix(f, "main.(*rep).bench") {
			return "bench"
		}
	}
	for _, f := range stack {
		if f, ok := strings.CutPrefix(f, "procmig/internal/"); ok {
			if i := strings.IndexAny(f, "./"); i >= 0 {
				f = f[:i]
			}
			for _, l := range cpuLayers {
				if l == f {
					return l
				}
			}
			return "other"
		}
		if strings.HasPrefix(f, "main.") || strings.HasPrefix(f, "runtime/pprof.") {
			return "bench"
		}
	}
	return "runtime.sched"
}

func isGC(f string) bool {
	for _, p := range []string{"runtime.gc", "runtime.GC", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject", "runtime.sweepone"} {
		if strings.HasPrefix(f, p) {
			return true
		}
	}
	return false
}

// bucketProfile decodes a gzipped profile.proto and sums the named
// sample value per layer bucket.
func bucketProfile(data []byte, value string) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs     []string
		types    []uint64                // string index of each sample type
		samples  [][]byte                // undecoded Sample messages
		funcName = map[uint64]uint64{}   // function id → string index
		locFuncs = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					types = append(types, v)
				}
				return nil
			})
		case 2:
			samples = append(samples, b)
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, line []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return fields(line, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
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
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	idx := -1
	for i, t := range types {
		if str(t) == value {
			idx = i
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("no %q sample type", value)
	}
	out := map[string]int64{}
	var stack []string
	for _, s := range samples {
		var locs, vals []uint64
		err := fields(s, func(n int, v uint64, b []byte) error {
			switch n {
			case 1:
				locs = appendVarints(locs, v, b)
			case 2:
				vals = appendVarints(vals, v, b)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if idx >= len(vals) {
			return nil, errors.New("sample without its value")
		}
		stack = stack[:0]
		for _, l := range locs {
			for _, f := range locFuncs[l] {
				stack = append(stack, str(funcName[f]))
			}
		}
		out[layerOf(stack)] += int64(vals[idx])
	}
	return out, nil
}

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value or, for length-delimited fields, its
// bytes. Fixed-width fields are skipped.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field given either unpacked
// (v) or packed (data).
func appendVarints(dst []uint64, v uint64, data []byte) []uint64 {
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
