package stats

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
)

// The wire form of a Histogram is the fixed shape plus a sparse object of
// the non-zero buckets, since latency histograms are overwhelmingly zeros:
//
//	{"width":1,"buckets":16384,"counts":{"12":2,"340":1},"overflow":1,"count":4,"sum":1e+08,"max":1e+08}
//
// It exists so simulation results survive a JSON round-trip through the
// persistent experiment store (internal/results), where histograms are
// ~90 % of a record's bytes — which is why both directions are written by
// hand here, straight between the bytes and the bucket slice, instead of
// going through encoding/json's reflection, a string-keyed map of the
// counts and a dense bucket array per decode.
//
// The bytes are pinned: they are what encoding/json produced for the
// struct-and-map codec frozen as refHistogram in reference_test.go ("counts"
// and "overflow" omitted when empty, counts keyed by decimal index in
// string-sorted order, floats in encoding/json's format), every shard ever
// written holds them, and a store re-Put must reproduce them.

// MarshalJSON encodes the histogram in a sparse, shape-preserving form.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	for _, f := range [...]float64{h.width, h.sum, h.max} {
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return nil, fmt.Errorf("stats: histogram value %v has no JSON form", f)
		}
	}
	b := make([]byte, 0, 256)
	b = appendFloat(append(b, `{"width":`...), h.width)
	b = strconv.AppendInt(append(b, `,"buckets":`...), int64(h.size), 10)
	// "0" sorts before every other decimal string; appendCounts emits the
	// rest by walking the decimal trie below each leading digit.
	n := len(b)
	b = h.appendCount(b, n, 0)
	for d := 1; d <= 9; d++ {
		b = h.appendCounts(b, n, d)
	}
	if len(b) > n {
		b = append(b, '}')
	}
	if h.overflow != 0 {
		b = strconv.AppendInt(append(b, `,"overflow":`...), h.overflow, 10)
	}
	b = strconv.AppendInt(append(b, `,"count":`...), h.count, 10)
	b = appendFloat(append(b, `,"sum":`...), h.sum)
	b = appendFloat(append(b, `,"max":`...), h.max)
	return append(b, '}'), nil
}

// appendCounts emits the non-zero buckets whose decimal index starts with
// the digits of i, in string-sorted order: i itself, then everything under
// i0, i1, … i9 — a pre-order walk of the decimal trie, which is the order
// encoding/json gives a map keyed by those strings. start is where the
// counts object begins in b (nothing written there yet = no bucket so far).
func (h *Histogram) appendCounts(b []byte, start, i int) []byte {
	if i >= len(h.buckets) {
		return b
	}
	b = h.appendCount(b, start, i)
	for d := 0; d <= 9; d++ {
		b = h.appendCounts(b, start, i*10+d)
	}
	return b
}

// appendCount emits bucket i as "<i>":<count> if it is non-zero, opening
// the counts object before the first pair and separating the later ones.
func (h *Histogram) appendCount(b []byte, start, i int) []byte {
	if i >= len(h.buckets) || h.buckets[i] == 0 {
		return b
	}
	if len(b) == start {
		b = append(b, `,"counts":{"`...)
	} else {
		b = append(b, ',', '"')
	}
	b = strconv.AppendInt(b, int64(i), 10)
	b = append(b, '"', ':')
	return strconv.AppendInt(b, h.buckets[i], 10)
}

// appendFloat formats f as encoding/json does: shortest round-trip
// digits, exponent form only below 1e-6 and from 1e21, with a two-digit
// exponent's leading zero dropped.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && (b[n-3] == '-' || b[n-3] == '+') && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// UnmarshalJSON restores a histogram from exactly the bytes MarshalJSON
// writes, and from nothing else: decoding succeeds only if MarshalJSON of
// the result gives back data byte for byte. The input is therefore read as
// a fixed sequence — the fields in MarshalJSON's order with no whitespace,
// "counts" only with at least one non-zero bucket, keyed in the
// string-sorted order appendCounts emits, "overflow" only when non-zero,
// every number spelt as appendFloat or strconv.AppendInt spells it — with
// the counts read pair by pair into the bucket slice. Every stored
// histogram was written through encoding/json, which compacts a
// Marshaler's output, so it is in this form. On error h is left
// untouched; the store counts the record as skipped and recomputes the
// point.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	r := wireReader{data: data}
	var out Histogram
	out.width = r.float(`{"width":`)
	size := r.integer(`,"buckets":`)
	if r.err != nil {
		return r.err
	}
	if out.width <= 0 || size <= 0 || size != int64(int(size)) {
		return fmt.Errorf("stats: bad histogram shape %gx%d in JSON", out.width, size)
	}
	out.size = int(size)
	if r.literal(`,"counts":{`) {
		var prev []byte // the previous bucket key, where it stands in data
		for more := true; more; more = r.literal(",") {
			key := r.key()
			i, ok := bucketIndex(key, out.size)
			if !ok || bytes.Compare(prev, key) >= 0 {
				r.fail("bucket key out of range or out of order")
			}
			prev = key
			v := r.integer("")
			if v == 0 {
				r.fail("zero bucket count")
				break
			}
			if i >= len(out.buckets) {
				out.grow(i + 1)
			}
			out.buckets[i] = v
		}
		r.expect("}")
	}
	if r.literal(`,"overflow":`) {
		if out.overflow = r.integer(""); out.overflow == 0 {
			r.fail("zero overflow")
		}
	}
	out.count = r.integer(`,"count":`)
	out.sum = r.float(`,"sum":`)
	out.max = r.float(`,"max":`)
	r.expect("}")
	if r.pos != len(data) {
		r.fail("trailing data after histogram")
	}
	if r.err != nil {
		return r.err
	}
	*h = out
	return nil
}

// wireReader reads canonical histogram bytes front to back. The first
// mismatch is kept in err, and every read after it consumes nothing and
// returns zero.
type wireReader struct {
	data []byte
	pos  int
	err  error
}

// fail records the first mismatch, at the current offset.
func (r *wireReader) fail(msg string) {
	if r.err == nil {
		r.err = fmt.Errorf("stats: histogram JSON offset %d: %s", r.pos, msg)
	}
}

// literal consumes s if the input continues with it.
func (r *wireReader) literal(s string) bool {
	rest := r.data[r.pos:]
	if r.err != nil || len(rest) < len(s) || string(rest[:len(s)]) != s {
		return false
	}
	r.pos += len(s)
	return true
}

// expect consumes s or fails.
func (r *wireReader) expect(s string) {
	if !r.literal(s) {
		r.fail("want " + s)
	}
}

// key consumes a quoted bucket key and the colon after it.
func (r *wireReader) key() []byte {
	r.expect(`"`)
	end := bytes.IndexByte(r.data[r.pos:], '"')
	if r.err != nil || end < 0 {
		r.fail("unterminated bucket key")
		return nil
	}
	key := r.data[r.pos : r.pos+end]
	r.pos += end
	r.expect(`":`)
	return key
}

// number consumes the run of bytes that can spell a number.
func (r *wireReader) number() []byte {
	start := r.pos
	for ; r.pos < len(r.data); r.pos++ {
		if c := r.data[r.pos]; (c < '0' || c > '9') && c != '-' && c != '+' && c != '.' && c != 'e' {
			break
		}
	}
	return r.data[start:r.pos]
}

// integer consumes prefix, then an integer spelt as strconv.AppendInt
// spells it: a minus sign only before a non-zero value, and no leading
// zero.
func (r *wireReader) integer(prefix string) int64 {
	r.expect(prefix)
	if r.err != nil {
		return 0
	}
	neg := r.literal("-")
	start := r.pos
	var v uint64
	for ; r.pos < len(r.data) && r.pos-start < 19 && '0' <= r.data[r.pos] && r.data[r.pos] <= '9'; r.pos++ {
		v = v*10 + uint64(r.data[r.pos]-'0')
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	if n := r.pos - start; n == 0 || r.data[start] == '0' && (n > 1 || neg) || v > limit {
		r.fail("want an integer in canonical form")
		return 0
	}
	if neg {
		return -int64(v)
	}
	return int64(v)
}

// float consumes prefix, then a finite number spelt as appendFloat spells
// it.
func (r *wireReader) float(prefix string) float64 {
	r.expect(prefix)
	if r.err != nil {
		return 0
	}
	tok := r.number()
	f, err := strconv.ParseFloat(string(tok), 64)
	var buf [32]byte
	if err != nil || !bytes.Equal(appendFloat(buf[:0], f), tok) {
		r.pos -= len(tok)
		r.fail("want a number in canonical form")
		return 0
	}
	return f
}

// bucketIndex parses a counts key: exactly what strconv.Itoa prints for an
// index below size.
func bucketIndex(key []byte, size int) (int, bool) {
	if len(key) == 0 || len(key) > 18 || key[0] == '0' && len(key) > 1 {
		return 0, false
	}
	i := 0
	for _, ch := range key {
		if ch < '0' || ch > '9' {
			return 0, false
		}
		i = i*10 + int(ch-'0')
	}
	return i, i < size
}
