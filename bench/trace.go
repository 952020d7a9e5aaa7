package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one pass
// (or one set-up repetition) share Trace; Parent is the enclosing span's ID
// (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(trace, name, detail string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name, Detail: detail,
		Start: int64(time.Since(t.epoch)),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.epoch))
}

// durations returns the length in seconds of every span with this name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start).Seconds())
		}
	}
	return out
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers are the packages a CPU profile is folded into, in report order:
// the repository's modules, then Go's runtime, then everything else
// (standard library helpers and the benchmark itself).
var layers = []string{"sim", "netem", "transport", "cc", "obs", "exp", "topo", "workload", "stats", "runtime", "other"}

// layerOf maps a profiled function name to its layer.
func layerOf(fn string) string {
	pkg := fn
	slash := strings.LastIndex(pkg, "/")
	if dot := strings.Index(pkg[slash+1:], "."); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	if rest, ok := strings.CutPrefix(pkg, "mpcc/internal/"); ok {
		if i := strings.Index(rest, "/"); i >= 0 {
			rest = rest[:i]
		}
		for _, l := range layers {
			if l == rest {
				return l
			}
		}
		return "other"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// foldCPU decodes a gzipped pprof CPU profile and adds each sample's CPU
// nanoseconds to byLayer under the layer of its innermost frame (self time).
func foldCPU(byLayer map[string]float64, gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	var (
		strs     []string
		funcName = map[uint64]uint64{} // function id -> string index
		locFunc  = map[uint64]uint64{} // location id -> innermost function id
		leafCPU  = map[uint64]int64{}  // location id -> summed sample value
	)
	err = eachField(raw, func(field int, v uint64, msg []byte) error {
		switch field {
		case 2: // Sample
			var locs []uint64
			var vals []uint64
			if err := eachField(msg, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					locs = appendPacked(locs, v, b)
				case 2:
					vals = appendPacked(vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				leafCPU[locs[0]] += int64(vals[len(vals)-1])
			}
		case 4: // Location
			var id, fn uint64
			haveLine := false
			if err := eachField(msg, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					if haveLine {
						return nil // later lines are the callers it was inlined into
					}
					haveLine = true
					return eachField(b, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fn = lv
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function
			var id, name uint64
			if err := eachField(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return err
	}
	for loc, cpu := range leafCPU {
		name := ""
		if si := funcName[locFunc[loc]]; si < uint64(len(strs)) {
			name = strs[si]
		}
		byLayer[layerOf(name)] += float64(cpu)
	}
	return nil
}

// eachField walks a protobuf message, calling fn with the field number and
// either a varint value (wire type 0) or a length-delimited payload (wire
// type 2). Fixed-width fields are skipped.
func eachField(b []byte, fn func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			msg := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, msg); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", key&7)
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, which arrives either as one
// varint (msg == nil) or packed into a length-delimited payload.
func appendPacked(dst []uint64, v uint64, msg []byte) []uint64 {
	if msg == nil {
		return append(dst, v)
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		msg = msg[n:]
	}
	return dst
}
