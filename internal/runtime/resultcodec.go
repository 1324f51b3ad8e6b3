package runtime

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"unicode/utf8"

	"fedgpo/internal/device"
	"fedgpo/internal/fl"
)

// resultTag opens every Result cache payload. No JSON text starts with
// 0x01, so a payload's first byte tells the codec's bytes from JSON.
const resultTag = 0x01

// Minimum encoded sizes, used to bound a decoder's allocations by the
// bytes that remain: one category entry is a 1-byte varint key plus a
// float, one round record five floats plus four 1-byte varints.
const (
	minCategoryBytes = 1 + 8
	minRecordBytes   = 5*8 + 4
)

// errResultCodec reports a payload the Result codec cannot decode.
var errResultCodec = errors.New("runtime: corrupt result payload")

// Cache payloads are encoded by Go type: Result and *Result through the
// binary Result codec, anything else (snapshots, traces, fixed-best
// selections, eval probes, json.RawMessage artifacts) as JSON.
func encodePayload(v any) ([]byte, error) {
	switch r := v.(type) {
	case Result:
		return encodeResult(&r)
	case *Result:
		return encodeResult(r)
	}
	return json.Marshal(v)
}

// decodePayload is encodePayload's inverse for the destination v.
func decodePayload(payload []byte, v any) error {
	if r, ok := v.(*Result); ok {
		return decodeResult(payload, r)
	}
	return json.Unmarshal(payload, v)
}

// encodeResult renders r in the Result codec's layout:
//
//	0x01 | Key | Sim.Controller | Sim.Converged (1 byte)
//	     | Sim.ConvergenceRound | Sim.RoundsExecuted
//	     | TimeToConvergenceSec | EnergyToConvergenceJ | FinalAccuracy
//	     | PPW | AvgRoundSeconds
//	     | uvarint(n+1) n × (Category, float), ascending (0 = nil map)
//	     | ControllerOverheadSec
//	     | uvarint(n+1) n × RoundRecord in field order (0 = nil slice)
//	     | Extra | Err | Provenance
//
// Floats are little-endian IEEE-754 bits, ints zigzag varints, strings
// and Extra a uvarint length then the bytes. Decoding the output gives
// exactly what a JSON round trip of r gives: nil and empty slices and
// maps stay apart, -0 and subnormals keep their bits, invalid UTF-8
// becomes U+FFFD byte by byte, Extra is compacted and HTML-escaped
// (empty decodes to nil), and the json:"-" fields are dropped. A NaN
// or infinite float is an error, as in json.Marshal.
func encodeResult(r *Result) ([]byte, error) {
	s := &r.Sim
	var extra []byte
	if len(r.Extra) > 0 {
		var err error
		if extra, err = json.Marshal(r.Extra); err != nil {
			return nil, fmt.Errorf("runtime: result extra: %w", err)
		}
	}
	e := resultEncoder{buf: make([]byte, 0, 64+len(r.Key)+len(s.Controller)+len(extra)+len(r.Err)+
		len(r.Provenance)+minCategoryBytes*len(s.EnergyByCategory)+(minRecordBytes+8)*len(s.History))}
	e.buf = append(e.buf, resultTag)
	e.str(r.Key)
	e.str(s.Controller)
	e.bool(s.Converged)
	e.int(s.ConvergenceRound)
	e.int(s.RoundsExecuted)
	e.float(s.TimeToConvergenceSec)
	e.float(s.EnergyToConvergenceJ)
	e.float(s.FinalAccuracy)
	e.float(s.PPW)
	e.float(s.AvgRoundSeconds)
	if s.EnergyByCategory == nil {
		e.uvarint(0)
	} else {
		cats := make([]device.Category, 0, len(s.EnergyByCategory))
		for c := range s.EnergyByCategory {
			cats = append(cats, c)
		}
		slices.Sort(cats)
		e.uvarint(uint64(len(cats)) + 1)
		for _, c := range cats {
			e.int(int(c))
			e.float(s.EnergyByCategory[c])
		}
	}
	e.float(s.ControllerOverheadSec)
	if s.History == nil {
		e.uvarint(0)
	} else {
		e.uvarint(uint64(len(s.History)) + 1)
		for i := range s.History {
			h := &s.History[i]
			e.int(h.Round)
			e.float(h.Accuracy)
			e.float(h.RoundSeconds)
			e.float(h.EnergyJ)
			e.float(h.MeanB)
			e.float(h.MeanE)
			e.int(h.PlannedK)
			e.int(h.AggregatedK)
			e.int(h.Dropped)
		}
	}
	e.bytes(extra)
	e.str(r.Err)
	e.str(r.Provenance)
	if e.err != nil {
		return nil, e.err
	}
	return e.buf, nil
}

// resultEncoder appends codec fields to buf, keeping the first error.
type resultEncoder struct {
	buf []byte
	err error
}

func (e *resultEncoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *resultEncoder) int(v int)        { e.buf = binary.AppendVarint(e.buf, int64(v)) }

func (e *resultEncoder) bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

func (e *resultEncoder) float(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if e.err == nil {
			e.err = fmt.Errorf("runtime: result codec: unsupported value: %v", v)
		}
		return
	}
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

func (e *resultEncoder) bytes(b []byte) {
	e.uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// str writes s as JSON would carry it: each byte of an invalid UTF-8
// sequence becomes U+FFFD.
func (e *resultEncoder) str(s string) {
	if utf8.ValidString(s) {
		e.uvarint(uint64(len(s)))
		e.buf = append(e.buf, s...)
		return
	}
	valid := make([]byte, 0, len(s)+8)
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			valid = utf8.AppendRune(valid, utf8.RuneError)
		} else {
			valid = append(valid, s[i:i+size]...)
		}
		i += size
	}
	e.bytes(valid)
}

// decodeResult decodes a Result codec payload into *r, replacing it
// whole. It accepts exactly the byte strings encodeResult produces: a
// wrong tag, a truncated or overlong field, a length larger than the
// remaining bytes, a non-canonical varint or map order, a non-finite
// float, invalid UTF-8, non-canonical Extra JSON or trailing bytes is
// an error, and nothing is allocated beyond what the input can fill.
func decodeResult(b []byte, r *Result) error {
	if len(b) == 0 || b[0] != resultTag {
		return errResultCodec
	}
	d := resultDecoder{b: b[1:], ok: true}
	var out Result
	s := &out.Sim
	out.Key = d.str()
	s.Controller = d.str()
	s.Converged = d.bool()
	s.ConvergenceRound = d.int()
	s.RoundsExecuted = d.int()
	s.TimeToConvergenceSec = d.float()
	s.EnergyToConvergenceJ = d.float()
	s.FinalAccuracy = d.float()
	s.PPW = d.float()
	s.AvgRoundSeconds = d.float()
	if n, ok := d.count(minCategoryBytes); ok {
		s.EnergyByCategory = make(map[device.Category]float64, n)
		prev := 0
		for i := 0; i < n && d.ok; i++ {
			c := d.int()
			if i > 0 && c <= prev {
				d.ok = false
			}
			prev = c
			s.EnergyByCategory[device.Category(c)] = d.float()
		}
	}
	s.ControllerOverheadSec = d.float()
	if n, ok := d.count(minRecordBytes); ok {
		s.History = make([]fl.RoundRecord, n)
		for i := 0; i < n && d.ok; i++ {
			h := &s.History[i]
			h.Round = d.int()
			h.Accuracy = d.float()
			h.RoundSeconds = d.float()
			h.EnergyJ = d.float()
			h.MeanB = d.float()
			h.MeanE = d.float()
			h.PlannedK = d.int()
			h.AggregatedK = d.int()
			h.Dropped = d.int()
		}
	}
	if extra := d.bytes(); len(extra) > 0 && d.ok {
		canon, err := json.Marshal(json.RawMessage(extra))
		if err != nil || !bytes.Equal(canon, extra) {
			return errResultCodec
		}
		out.Extra = canon
	}
	out.Err = d.str()
	out.Provenance = d.str()
	if !d.ok || len(d.b) != 0 {
		return errResultCodec
	}
	*r = out
	return nil
}

// resultDecoder consumes codec fields from b. The first malformed field
// clears ok; later reads then return zero values without consuming.
type resultDecoder struct {
	b  []byte
	ok bool
}

// uvarint reads a minimally encoded uvarint (a multi-byte encoding
// ending in a zero byte is the same value written longer).
func (d *resultDecoder) uvarint() uint64 {
	if !d.ok {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 || (n > 1 && d.b[n-1] == 0) {
		d.ok = false
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *resultDecoder) int() int {
	u := d.uvarint()
	v := int64(u>>1) ^ -int64(u&1) // zigzag, as binary.Varint
	if int64(int(v)) != v {
		d.ok = false
		return 0
	}
	return int(v)
}

func (d *resultDecoder) bool() bool {
	if !d.ok || len(d.b) < 1 || d.b[0] > 1 {
		d.ok = false
		return false
	}
	v := d.b[0] == 1
	d.b = d.b[1:]
	return v
}

func (d *resultDecoder) float() float64 {
	if !d.ok || len(d.b) < 8 {
		d.ok = false
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	if math.IsNaN(v) || math.IsInf(v, 0) {
		d.ok = false
		return 0
	}
	d.b = d.b[8:]
	return v
}

// bytes reads a length-prefixed byte string, aliasing the input.
func (d *resultDecoder) bytes() []byte {
	n := d.uvarint()
	if !d.ok || n > uint64(len(d.b)) {
		d.ok = false
		return nil
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

func (d *resultDecoder) str() string {
	v := d.bytes()
	if !utf8.Valid(v) {
		d.ok = false
		return ""
	}
	return string(v)
}

// count reads a nil-able collection length (n+1, 0 = nil) and reports
// a non-nil collection of n elements, failing the decode unless n
// elements of at least each bytes apiece fit in what remains.
func (d *resultDecoder) count(each int) (int, bool) {
	u := d.uvarint()
	if !d.ok || u == 0 {
		return 0, false
	}
	n := u - 1
	if n > uint64(len(d.b)/each) {
		d.ok = false
		return 0, false
	}
	return int(n), true
}
