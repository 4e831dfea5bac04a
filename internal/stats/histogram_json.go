package stats

import (
	"bytes"
	"errors"
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

// histogramFields are the wire field names, in the order MarshalJSON
// writes them; a field's position is its bit in the decoder's seen mask.
var histogramFields = [...]string{"width", "buckets", "counts", "overflow", "count", "sum", "max"}

const (
	fieldWidth = iota
	fieldBuckets
	fieldCounts
	fieldOverflow
	fieldCount
	fieldSum
	fieldMax

	fieldUnknown = -1 // no such field: its value is skipped
	fieldFolded  = -2 // a known name in another case: see fieldIndex
)

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

// UnmarshalJSON restores a histogram written by MarshalJSON, in one pass
// over data: fields in any order, unknown fields skipped, whitespace
// tolerated, counts read pair by pair into the bucket slice. It accepts
// no input encoding/json would reject for the reference codec, and on
// everything it accepts it yields the same histogram; where the two would
// be hard to keep in step it is deliberately stricter — a repeated field,
// a field name differing from a known one only by case, a name or bucket
// key spelt with an escape, a bucket key Itoa would not print ("07", "+7")
// and a null where a number belongs are all errors, none of which
// MarshalJSON writes. On error h is left untouched; the store counts the
// record as skipped and recomputes the point.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	c := cursor{data: data}
	var out Histogram
	var seen uint
	deferred := -1 // where a counts object that preceded "buckets" starts

	if err := c.open('{'); err != nil {
		return err
	}
	for more := !c.close('}'); more; {
		key, err := c.key()
		if err != nil {
			return err
		}
		field := fieldIndex(key)
		switch {
		case field == fieldFolded:
			return fmt.Errorf("stats: histogram field %q differs from a known one only by case", key)
		case field >= 0 && seen&(1<<field) != 0:
			return fmt.Errorf("stats: duplicate histogram field %q", key)
		case field >= 0:
			seen |= 1 << field
		}
		switch field {
		case fieldWidth:
			out.width, err = c.float()
		case fieldSum:
			out.sum, err = c.float()
		case fieldMax:
			out.max, err = c.float()
		case fieldBuckets:
			var n int64
			if n, err = c.integer(); err == nil && n != int64(int(n)) {
				err = fmt.Errorf("stats: histogram bucket count %d out of range", n)
			}
			out.size = int(n)
		case fieldOverflow:
			out.overflow, err = c.integer()
		case fieldCount:
			out.count, err = c.integer()
		case fieldCounts:
			if seen&(1<<fieldBuckets) != 0 {
				err = c.counts(&out)
			} else {
				// The range check needs the shape: validate the syntax now,
				// read the pairs once the object has been walked.
				deferred = c.pos
				err = c.skipValue(0)
			}
		default:
			err = c.skipValue(0)
		}
		if err != nil {
			return err
		}
		if more, err = c.next('}'); err != nil {
			return err
		}
	}
	if c.skipSpace(); c.pos != len(c.data) {
		return c.errorf("trailing data after histogram")
	}
	if out.width <= 0 || out.size <= 0 {
		return fmt.Errorf("stats: bad histogram shape %gx%d in JSON", out.width, out.size)
	}
	if deferred >= 0 {
		c.pos = deferred
		if err := c.counts(&out); err != nil {
			return err
		}
	}
	*h = out
	return nil
}

// fieldIndex maps a wire field name to its index in histogramFields,
// fieldUnknown for any other name, and fieldFolded for a name encoding/json
// would still match to a known field (it folds case) but this decoder
// would skip.
func fieldIndex(key []byte) int {
	for i, name := range histogramFields {
		if string(key) == name {
			return i
		}
	}
	for _, name := range histogramFields {
		if bytes.EqualFold(key, []byte(name)) {
			return fieldFolded
		}
	}
	return fieldUnknown
}

// counts reads a counts object — "<index>":<count> pairs, or null — into
// h's buckets, growing them to the highest non-zero index. A repeated
// index keeps its last count, as a map decode would.
func (c *cursor) counts(h *Histogram) error {
	if c.literal("null") {
		return nil
	}
	if err := c.open('{'); err != nil {
		return err
	}
	for more := !c.close('}'); more; {
		key, err := c.key()
		if err != nil {
			return err
		}
		i, ok := bucketIndex(key, h.size)
		if !ok {
			return fmt.Errorf("stats: bad histogram bucket index %q", key)
		}
		v, err := c.integer()
		if err != nil {
			return err
		}
		if i >= len(h.buckets) && v != 0 {
			h.grow(i + 1)
		}
		if i < len(h.buckets) {
			h.buckets[i] = v
		}
		if more, err = c.next('}'); err != nil {
			return err
		}
	}
	return nil
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

// cursor is a position in a JSON text with the few strict, allocation-free
// reads the histogram decoder needs. Every read rejects what encoding/json's
// scanner rejects.
type cursor struct {
	data []byte
	pos  int
}

// maxSkipDepth bounds the nesting of a skipped unknown field's value, as
// encoding/json bounds every document's.
const maxSkipDepth = 10000

var errUnexpectedEnd = errors.New("stats: unexpected end of histogram JSON")

func (c *cursor) errorf(format string, args ...any) error {
	return fmt.Errorf("stats: histogram JSON offset %d: %s", c.pos, fmt.Sprintf(format, args...))
}

func (c *cursor) skipSpace() {
	for c.pos < len(c.data) {
		switch c.data[c.pos] {
		case ' ', '\t', '\r', '\n':
			c.pos++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte without consuming it.
func (c *cursor) peek() (byte, error) {
	c.skipSpace()
	if c.pos >= len(c.data) {
		return 0, errUnexpectedEnd
	}
	return c.data[c.pos], nil
}

// open consumes the opening bracket of an object or array.
func (c *cursor) open(bracket byte) error {
	ch, err := c.peek()
	if err != nil {
		return err
	}
	if ch != bracket {
		return c.errorf("%q where %q belongs", ch, bracket)
	}
	c.pos++
	return nil
}

// close consumes bracket if it comes next: the object or array is empty.
func (c *cursor) close(bracket byte) bool {
	if ch, err := c.peek(); err != nil || ch != bracket {
		return false
	}
	c.pos++
	return true
}

// next consumes what follows an element: a comma (more elements follow)
// or the closing bracket.
func (c *cursor) next(bracket byte) (more bool, err error) {
	ch, err := c.peek()
	if err != nil {
		return false, err
	}
	if ch != ',' && ch != bracket {
		return false, c.errorf("%q after a value", ch)
	}
	c.pos++
	return ch == ',', nil
}

// literal consumes word if it comes next.
func (c *cursor) literal(word string) bool {
	c.skipSpace()
	if !bytes.HasPrefix(c.data[c.pos:], []byte(word)) {
		return false
	}
	c.pos += len(word)
	return true
}

// str consumes a string and returns the bytes between its quotes, still
// escaped, and whether any escape occurred.
func (c *cursor) str() (raw []byte, escaped bool, err error) {
	if err := c.open('"'); err != nil {
		return nil, false, err
	}
	start := c.pos
	for c.pos < len(c.data) {
		switch ch := c.data[c.pos]; {
		case ch == '"':
			c.pos++
			return c.data[start : c.pos-1], escaped, nil
		case ch < ' ':
			return nil, false, c.errorf("control character in string")
		case ch == '\\':
			escaped = true
			if err := c.escape(); err != nil {
				return nil, false, err
			}
		default:
			c.pos++
		}
	}
	return nil, false, errUnexpectedEnd
}

// escape consumes one backslash escape.
func (c *cursor) escape() error {
	if c.pos+1 >= len(c.data) {
		return errUnexpectedEnd
	}
	switch c.data[c.pos+1] {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		c.pos += 2
		return nil
	case 'u':
		if c.pos+6 > len(c.data) {
			return errUnexpectedEnd
		}
		for _, ch := range c.data[c.pos+2 : c.pos+6] {
			if !('0' <= ch && ch <= '9' || 'a' <= ch && ch <= 'f' || 'A' <= ch && ch <= 'F') {
				return c.errorf("bad \\u escape")
			}
		}
		c.pos += 6
		return nil
	}
	return c.errorf("bad escape")
}

// key consumes an object key and the colon after it. Keys spelt with an
// escape are rejected: comparing them would need unescaping, and nothing
// this package writes has one.
func (c *cursor) key() ([]byte, error) {
	raw, escaped, err := c.str()
	if err != nil {
		return nil, err
	}
	if escaped {
		return nil, c.errorf("escape in key %q", raw)
	}
	ch, err := c.peek()
	if err != nil {
		return nil, err
	}
	if ch != ':' {
		return nil, c.errorf("%q after a key", ch)
	}
	c.pos++
	return raw, nil
}

// number consumes a number token (JSON's grammar, nothing more) and
// reports whether it is spelt as an integer.
func (c *cursor) number() (tok []byte, integral bool, err error) {
	if _, err := c.peek(); err != nil {
		return nil, false, err
	}
	start := c.pos
	digits := func() int {
		from := c.pos
		for c.pos < len(c.data) && '0' <= c.data[c.pos] && c.data[c.pos] <= '9' {
			c.pos++
		}
		return c.pos - from
	}
	if c.data[c.pos] == '-' {
		c.pos++
	}
	if c.pos < len(c.data) && c.data[c.pos] == '0' {
		c.pos++
	} else if digits() == 0 {
		return nil, false, c.errorf("no number here")
	}
	integral = true
	if c.pos < len(c.data) && c.data[c.pos] == '.' {
		integral = false
		c.pos++
		if digits() == 0 {
			return nil, false, c.errorf("no digits after the decimal point")
		}
	}
	if c.pos < len(c.data) && (c.data[c.pos] == 'e' || c.data[c.pos] == 'E') {
		integral = false
		c.pos++
		if c.pos < len(c.data) && (c.data[c.pos] == '+' || c.data[c.pos] == '-') {
			c.pos++
		}
		if digits() == 0 {
			return nil, false, c.errorf("no digits in the exponent")
		}
	}
	return c.data[start:c.pos], integral, nil
}

// integer consumes a number that must fit an int64.
func (c *cursor) integer() (int64, error) {
	tok, integral, err := c.number()
	if err != nil {
		return 0, err
	}
	if !integral {
		return 0, c.errorf("%s where an integer belongs", tok)
	}
	return strconv.ParseInt(string(tok), 10, 64)
}

// float consumes a number that must fit a float64.
func (c *cursor) float() (float64, error) {
	tok, _, err := c.number()
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(string(tok), 64)
}

// skipValue consumes one value of any kind, validating it.
func (c *cursor) skipValue(depth int) error {
	if depth > maxSkipDepth {
		return c.errorf("nested too deeply")
	}
	ch, err := c.peek()
	if err != nil {
		return err
	}
	switch ch {
	case '"':
		_, _, err := c.str()
		return err
	case '{', '[':
		closing := ch + 2 // '}' follows '{' and ']' follows '[' by two
		c.pos++
		for more := !c.close(closing); more; {
			if ch == '{' {
				if _, _, err := c.str(); err != nil {
					return err
				}
				if err := c.open(':'); err != nil {
					return err
				}
			}
			if err := c.skipValue(depth + 1); err != nil {
				return err
			}
			if more, err = c.next(closing); err != nil {
				return err
			}
		}
		return nil
	case 't', 'f', 'n':
		if c.literal("true") || c.literal("false") || c.literal("null") {
			return nil
		}
		return c.errorf("bad literal")
	}
	_, _, err = c.number()
	return err
}
