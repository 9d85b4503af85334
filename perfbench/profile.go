package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// profBuckets attribute CPU profile samples to layers by the package of
// the innermost frame. GC work is attributed separately, by stack.
var profBuckets = []struct {
	name, moves string
	pkgs        []string // exact package paths; a trailing "/" matches a prefix
}{
	{"cache", toMemWall, []string{"clustersim/internal/cache"}},
	{"pipeline", toComWall, []string{"clustersim/internal/pipeline"}},
	{"cluster", toComWall, []string{"clustersim/internal/cluster"}},
	{"steer", toComWall, []string{"clustersim/internal/steer"}},
	{"interconnect", toComWall, []string{"clustersim/internal/interconnect"}},
	{"service", toFleetP50, []string{"clustersim/internal/service"}},
	{"client", toFleetP50, []string{"clustersim/client"}},
	{"fleet", toFleetP50, []string{"clustersim/fleet", "clustersim/fleet/"}},
	{"store", toFleetP50, []string{"clustersim/internal/store"}},
	{"codec", toFleetP50, []string{"encoding/gob", "encoding/json"}},
	{"net_http", toFleetP50, []string{"net/http", "net/http/", "net", "net/textproto", "internal/poll", "syscall", "internal/runtime/syscall"}},
}

// gcFrames mark a sample as garbage-collector work wherever they appear
// on its stack.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true, "runtime.gcAssistAlloc": true, "runtime.bgsweep": true,
	"runtime.bgscavenge": true, "runtime.gcStart": true, "runtime.gcMarkDone": true,
	"runtime.gcMarkTermination": true, "runtime.wbBufFlush": true,
}

// profile runs fn under the CPU profiler and returns each bucket's share
// of the sampled CPU time.
func profile(fn func()) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	fn()
	pprof.StopCPUProfile()
	return profileShares(buf.Bytes())
}

func setShares(o *outcome, shares map[string]float64) {
	for _, b := range profBuckets {
		o.set("prof."+b.name, shares[b.name], "share")
	}
	o.set("prof.gc", shares["gc"], "share")
}

// pkgOf returns the package path of a symbol name such as
// "clustersim/internal/cache.(*LSQ).ProbeLoad" or "net/http.(*conn).serve".
func pkgOf(fn string) string {
	end := len(fn)
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		end = i
	}
	start := strings.LastIndexByte(fn[:end], '/') + 1
	if dot := strings.IndexByte(fn[start:end], '.'); dot >= 0 {
		return fn[:start+dot]
	}
	return fn[:end]
}

func bucketOf(pkg string) string {
	for _, b := range profBuckets {
		for _, p := range b.pkgs {
			if pkg == p || (strings.HasSuffix(p, "/") && strings.HasPrefix(pkg, p)) {
				return b.name
			}
		}
	}
	return ""
}

// profileShares decodes a gzipped pprof CPU profile and sums its CPU time
// per bucket, as shares of the total.
func profileShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("decoding CPU profile: %w", err)
	}
	shares := map[string]float64{}
	total := 0.0
	for _, s := range p.samples {
		if len(s.values) == 0 || len(s.locs) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1]) // cpu nanoseconds
		total += v
		gc := false
		for _, l := range s.locs {
			for _, f := range p.locFuncs[l] {
				gc = gc || gcFrames[p.funcName[f]]
			}
		}
		if gc {
			shares["gc"] += v
			continue
		}
		if fs := p.locFuncs[s.locs[0]]; len(fs) > 0 {
			if b := bucketOf(pkgOf(p.funcName[fs[0]])); b != "" {
				shares[b] += v
			}
		}
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// profileData is the part of profile.proto the shares need.
type profileData struct {
	samples []struct{ locs, values []uint64 }
	// locFuncs lists each location's functions, innermost first.
	locFuncs map[uint64][]uint64
	funcName map[uint64]string
}

// decodeProfile decodes the profile.proto message: sample (2), location
// (4), function (5) and string_table (6).
func decodeProfile(b []byte) (*profileData, error) {
	p := &profileData{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]string{}}
	var strs []string
	funcStr := map[uint64]uint64{}
	err := eachField(b, func(num int, v uint64, sub []byte) error {
		switch num {
		case 2:
			var s struct{ locs, values []uint64 }
			err := eachField(sub, func(n int, v uint64, packed []byte) error {
				switch n {
				case 1:
					return appendUints(&s.locs, v, packed)
				case 2:
					return appendUints(&s.values, v, packed)
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var funcs []uint64
			err := eachField(sub, func(n int, v uint64, line []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(line, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case 5:
			var id, name uint64
			err := eachField(sub, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcStr[id] = name
			return err
		case 6:
			strs = append(strs, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, s := range funcStr {
		if s >= uint64(len(strs)) {
			return nil, errors.New("function name out of range")
		}
		p.funcName[id] = strs[s]
	}
	return p, nil
}

// appendUints appends a repeated integer field given either as one
// varint or as a packed run.
func appendUints(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}

// eachField calls fn for every field of a protobuf message: varints pass
// their value, length-delimited fields their bytes (non-nil, since they
// are sliced from b); fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
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
				return errors.New("truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			sub := b[n : n+int(l) : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, sub); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}
