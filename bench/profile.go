package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzip'd profile.proto that runtime/pprof writes:
// just enough to get, per sample, the call stack as function names and the
// value columns. It exists so the per-layer ledger needs neither
// `go tool pprof` at run time nor a module dependency.

// profSample is one stack with its value columns (see profile.types).
type profSample struct {
	stack  []string // function names, innermost frame first
	values []int64
}

type profile struct {
	types   []string // value column names, e.g. "samples","cpu" or "alloc_objects","alloc_space",...
	samples []profSample
}

var errProto = errors.New("profile: malformed protobuf")

// pbuf is a protobuf wire-format cursor.
type pbuf []byte

func (b *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(*b) == 0 {
			return 0, errProto
		}
		c := (*b)[0]
		*b = (*b)[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// field reads one field: its number, and either a varint value (wire type 0)
// or a length-delimited payload (wire type 2). Fixed-width fields are skipped
// and reported with num 0; profile.proto uses none the ledger needs.
func (b *pbuf) field() (num int, val uint64, data []byte, err error) {
	key, err := b.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	num = int(key >> 3)
	switch key & 7 {
	case 0:
		val, err = b.varint()
	case 2:
		var n uint64
		if n, err = b.varint(); err == nil {
			if n > uint64(len(*b)) {
				return 0, 0, nil, errProto
			}
			data, *b = (*b)[:n], (*b)[n:]
		}
	case 1, 5:
		n := 8
		if key&7 == 5 {
			n = 4
		}
		if len(*b) < n {
			return 0, 0, nil, errProto
		}
		*b, num = (*b)[n:], 0
	default:
		err = errProto
	}
	return num, val, data, err
}

// each calls fn for every field of a message.
func each(msg []byte, fn func(num int, val uint64, data []byte) error) error {
	b := pbuf(msg)
	for len(b) > 0 {
		num, val, data, err := b.field()
		if err != nil {
			return err
		}
		if err := fn(num, val, data); err != nil {
			return err
		}
	}
	return nil
}

// repeated appends a repeated integer field that may arrive packed (data) or
// one element at a time (val).
func repeated(dst []uint64, val uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, val), nil
	}
	b := pbuf(data)
	for len(b) > 0 {
		v, err := b.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// parseProfile decodes a profile as written by pprof.StopCPUProfile or
// pprof.Lookup(...).WriteTo(w, 0).
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct{ locs, vals []uint64 }
	var (
		strs      []string
		typeIdx   []uint64
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> string index of its name
	)
	err = each(raw, func(num int, _ uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			return each(data, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := each(data, func(n int, v uint64, d []byte) (err error) {
				switch n {
				case 1:
					s.locs, err = repeated(s.locs, v, d)
				case 2:
					s.vals, err = repeated(s.vals, v, d)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location: its lines list inlined callees first, the physical frame last
			var id uint64
			var funcs []uint64
			err := each(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return each(d, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case 5: // function
			var id, name uint64
			err := each(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
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
	p := &profile{}
	for _, i := range typeIdx {
		p.types = append(p.types, str(i))
	}
	for _, rs := range samples {
		s := profSample{values: make([]int64, len(rs.vals))}
		for i, v := range rs.vals {
			s.values[i] = int64(v)
		}
		for _, loc := range rs.locs {
			for _, f := range locFuncs[loc] {
				s.stack = append(s.stack, str(funcNames[f]))
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// layers are the ledger's rows: the simulator's packages plus goruntime, the
// bucket for samples with no frame in any of them (background GC, scheduler,
// the harness's own bookkeeping).
var layers = []string{"sim", "simnet", "csrt", "gcs", "dbsm", "db", "tpcc", "replica",
	"xgroup", "recovery", "check", "metrics", "core", "goruntime"}

const repoPrefix = "repro/internal/"

// layerOf charges a stack to the innermost frame that belongs to a ledger
// layer, so runtime.mallocgc or memmove under a gcs frame is gcs self time.
// Frames of repo packages that are not ledger rows (trace, faults, expr) are
// passed over: their time belongs to the layer that called them.
func layerOf(stack []string) string {
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, repoPrefix)
		if !ok {
			continue
		}
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		for _, l := range layers {
			if l == pkg && l != "goruntime" {
				return l
			}
		}
	}
	return "goruntime"
}

// shares buckets one value column of a profile by layer and returns percent
// shares that sum to 100 (all zero for an empty profile).
func (p *profile) shares(column string) (map[string]float64, error) {
	col := -1
	for i, t := range p.types {
		if t == column {
			col = i
		}
	}
	if col < 0 {
		return nil, fmt.Errorf("profile: no %q column in %v", column, p.types)
	}
	out := make(map[string]float64, len(layers))
	total := 0.0
	for _, s := range p.samples {
		if col >= len(s.values) {
			continue
		}
		v := float64(s.values[col])
		out[layerOf(s.stack)] += v
		total += v
	}
	for _, l := range layers {
		out[l] = 100 * ratio(out[l], total)
	}
	return out, nil
}
