package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/trace"
)

// Tracing for the traced run: a counting trace.Tracer handed to the
// program through its public Tracer fields, spans around the
// benchmark's own calls, and a CPU profile attributed to the innermost
// repro/internal package of each sample.

// countingTracer counts events by kind. A trial emits from the one
// goroutine that runs it, so it needs no lock.
type countingTracer struct {
	counts map[trace.Kind]int
}

func newCountingTracer() *countingTracer {
	return &countingTracer{counts: map[trace.Kind]int{}}
}

func (c *countingTracer) Emit(e trace.Event) { c.counts[e.Kind]++ }

// tracedKinds are the event kinds the traced run reports per trial.
var tracedKinds = []trace.Kind{
	trace.KindFlowDone,
	trace.KindBarrierRelease,
	trace.KindTcConfig,
	trace.KindPolicyRank,
	trace.KindSchedPlace,
}

// span is one timed region of the benchmark's own work. Spans of one
// trial share a Trace id; Parent names the span that caused it.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Trace  int     `json:"trace"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// spanLog keeps spans in memory until the benchmark ends.
type spanLog struct {
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// begin opens a span and returns the function that closes it.
func (l *spanLog) begin(name string, traceID, parent int) (id int, end func()) {
	id = len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Trace: traceID, Name: name,
		Start: time.Since(l.epoch).Seconds()})
	return id, func() { l.spans[id-1].End = time.Since(l.epoch).Seconds() }
}

// durations returns every closed span's length, by name.
func (l *spanLog) durations() map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range l.spans {
		out[s.Name] = append(out[s.Name], s.End-s.Start)
	}
	return out
}

// write dumps the spans as JSON lines.
func (l *spanLog) write(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// modules are the repro/internal packages CPU samples are attributed
// to; samples with no repro/internal frame count as "other" (the Go
// runtime's background work, net/http, the benchmark itself).
var modules = []string{
	"cluster", "collective", "core", "cpusim", "dl", "faults", "flownet",
	"metrics", "policy", "psrpc", "qdisc", "scheduler", "server", "sim",
	"simnet", "sweep", "tc", "trace", "workload",
}

// profileShares runs f under the CPU profiler and returns, per module,
// the share of samples whose innermost repro/internal frame lies in it.
func profileShares(f func() error) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	ferr := f()
	pprof.StopCPUProfile()
	if ferr != nil {
		return nil, ferr
	}
	counts, total, err := attribute(buf.Bytes())
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	for _, m := range append(append([]string(nil), modules...), "other") {
		shares[m] = float64(counts[m]) / float64(max(total, 1))
	}
	return shares, nil
}

// attribute decodes a gzipped profile.proto and counts samples by the
// innermost repro/internal package on their stacks.
func attribute(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		n := s.values[0]
		total += n
		counts[p.moduleOf(s.locations)] += n
	}
	return counts, total, nil
}

// profile is the subset of profile.proto attribution needs.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]int64    // function id → name string index
	strings   []string
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

const internalPrefix = "repro/internal/"

// moduleOf walks a stack from the leaf and names the first
// repro/internal package it meets.
func (p *profile) moduleOf(locs []uint64) string {
	for _, l := range locs {
		for _, fn := range p.locations[l] {
			idx := p.functions[fn]
			if idx < 0 || int(idx) >= len(p.strings) {
				continue
			}
			name := p.strings[idx]
			if rest, ok := strings.CutPrefix(name, internalPrefix); ok {
				if i := strings.IndexAny(rest, "./"); i > 0 {
					return rest[:i]
				}
				return rest
			}
		}
	}
	return "other"
}

// pbField is one decoded protobuf field: a varint, or the bytes of a
// length-delimited value.
type pbField struct {
	num    int
	varint uint64
	bytes  []byte
}

var errProto = errors.New("malformed profile protobuf")

// pbFields splits a protobuf message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		b = b[n:]
		f := pbField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, errProto
			}
			f.varint, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errProto
			}
			f.bytes, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errProto
			}
			b = b[4:]
		default:
			return nil, errProto
		}
		out = append(out, f)
	}
	return out, nil
}

// pbUints reads a repeated integer field in packed or unpacked form.
func pbUints(f pbField, dst []uint64) ([]uint64, error) {
	if f.bytes == nil {
		return append(dst, f.varint), nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

// decodeProfile reads samples (field 2), locations (4), functions (5)
// and the string table (6) of a profile.proto message.
func decodeProfile(raw []byte) (*profile, error) {
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	for _, f := range top {
		switch f.num {
		case 2:
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var s sample
			var vals []uint64
			for _, sf := range fs {
				switch sf.num {
				case 1:
					if s.locations, err = pbUints(sf, s.locations); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = pbUints(sf, vals); err != nil {
						return nil, err
					}
				}
			}
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
			p.samples = append(p.samples, s)
		case 4:
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, lf := range fs {
				switch lf.num {
				case 1:
					id = lf.varint
				case 4: // Line{function_id = 1, line = 2}
					lfs, err := pbFields(lf.bytes)
					if err != nil {
						return nil, err
					}
					for _, x := range lfs {
						if x.num == 1 {
							fns = append(fns, x.varint)
						}
					}
				}
			}
			p.locations[id] = fns
		case 5:
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			name := int64(-1)
			for _, ff := range fs {
				switch ff.num {
				case 1:
					id = ff.varint
				case 2:
					name = int64(ff.varint)
				}
			}
			p.functions[id] = name
		case 6:
			p.strings = append(p.strings, string(f.bytes))
		}
	}
	if len(p.strings) == 0 {
		return nil, fmt.Errorf("%w: no string table", errProto)
	}
	return p, nil
}
