package graph

import (
	"errors"
	"fmt"
	"math"
	"unicode"
	"unicode/utf8"
)

// maxJSONDepth is encoding/json's nesting limit. The reader enforces the
// same limit, so both accept the same documents and skipping a nested
// unknown member recurses at most this deep.
const maxJSONDepth = 10000

// minEdgeJSONLen is the length of the shortest edge MarshalJSON writes,
// {"u":0,"pu":0,"v":1,"pv":0} plus its comma. Dividing a document's length
// by it bounds the edge count of MarshalJSON output, so the edge list is
// allocated once.
const minEdgeJSONLen = 28

// jsonReader decodes the wire form {"n":N,"edges":[{"u","pu","v","pv"},…]}
// in one pass over its bytes. It accepts exactly the documents that
// encoding/json decodes into that shape without error:
//   - any member order and JSON whitespace;
//   - keys matched as encoding/json matches struct fields: after unescaping,
//     case-insensitively under Unicode simple folding (so "N", "EDGES",
//     "edgeſ" and "n" all match);
//   - unknown members skipped but still checked to be valid JSON;
//   - null members ignored, and of duplicate keys the last wins, down to
//     encoding/json's reuse of the edge slice: an element of a repeated
//     "edges" array is decoded on top of the element at the same index of
//     the previous one;
//   - numbers that are not integers, or overflow an int, rejected, as is
//     anything after the top-level value.
type jsonReader struct {
	data []byte
	pos  int
}

var errJSONEnd = errors.New("unexpected end of JSON input")

// syntaxError reports a malformed document at the current position.
func (r *jsonReader) syntaxError(what string) error {
	if r.pos >= len(r.data) {
		return errJSONEnd
	}
	return fmt.Errorf("invalid character %q %s at offset %d", r.data[r.pos], what, r.pos)
}

// typeError reports a value of the wrong type for its field. The rest of
// the document goes unchecked: encoding/json rejects it either way.
func (r *jsonReader) typeError(field string) error {
	return fmt.Errorf("%s at offset %d has the wrong JSON type", field, r.pos)
}

func (r *jsonReader) skipSpace() {
	for r.pos < len(r.data) {
		switch r.data[r.pos] {
		case ' ', '\t', '\n', '\r':
			r.pos++
		default:
			return
		}
	}
}

// peek returns the next byte, or 0 at the end of the input.
func (r *jsonReader) peek() byte {
	if r.pos < len(r.data) {
		return r.data[r.pos]
	}
	return 0
}

// graph decodes the whole document into a node count and an edge list.
func (r *jsonReader) graph() (n int, edges []Edge, err error) {
	r.skipSpace()
	if r.peek() != '{' {
		return 0, nil, r.typeError("graph")
	}
	var backing []Edge // every element decoded so far, as encoding/json keeps them
	count := 0
	var buf [8]byte
	err = r.object(func(key []byte) error {
		switch string(foldKey(key, &buf)) {
		case "N":
			if r.null() {
				return nil
			}
			n, err = r.int()
			return err
		case "EDGES":
			if backing == nil {
				backing = make([]Edge, 0, len(r.data)/minEdgeJSONLen+1)
			}
			backing, count, err = r.edges(backing)
			return err
		}
		return r.value(2)
	})
	if err != nil {
		return 0, nil, err
	}
	r.skipSpace()
	if r.pos != len(r.data) {
		return 0, nil, r.syntaxError("after top-level value")
	}
	return n, backing[:count], nil
}

// edges decodes an "edges" member value. Element i is decoded on top of
// backing[i] when a previous "edges" member left one there; null and []
// drop the previous elements.
func (r *jsonReader) edges(backing []Edge) ([]Edge, int, error) {
	if r.null() {
		return backing[:0], 0, nil
	}
	if r.peek() != '[' {
		return nil, 0, r.typeError("edges")
	}
	r.pos++
	r.skipSpace()
	if r.peek() == ']' {
		r.pos++
		return backing[:0], 0, nil
	}
	for i := 0; ; i++ {
		if i == len(backing) {
			backing = append(backing, Edge{})
		}
		if err := r.edge(&backing[i]); err != nil {
			return nil, 0, err
		}
		r.skipSpace()
		switch r.peek() {
		case ',':
			r.pos++
			r.skipSpace()
		case ']':
			r.pos++
			return backing, i + 1, nil
		default:
			return nil, 0, r.syntaxError("after array element")
		}
	}
}

// edge decodes one element of "edges" into e, which keeps the fields the
// element does not set.
func (r *jsonReader) edge(e *Edge) error {
	if r.null() {
		return nil
	}
	if r.peek() != '{' {
		return r.typeError("edge")
	}
	var buf [8]byte
	return r.object(func(key []byte) error {
		var field *int
		switch string(foldKey(key, &buf)) {
		case "U":
			field = &e.U
		case "PU":
			field = &e.PU
		case "V":
			field = &e.V
		case "PV":
			field = &e.PV
		default:
			return r.value(4)
		}
		if r.null() {
			return nil
		}
		v, err := r.int()
		*field = v
		return err
	})
}

// object reads an object starting at '{', calling member with each key
// once the reader stands at the member's value; member must consume it.
func (r *jsonReader) object(member func(key []byte) error) error {
	r.pos++ // '{'
	r.skipSpace()
	if r.peek() == '}' {
		r.pos++
		return nil
	}
	for {
		if r.peek() != '"' {
			return r.syntaxError("looking for beginning of object key string")
		}
		key, err := r.str()
		if err != nil {
			return err
		}
		r.skipSpace()
		if r.peek() != ':' {
			return r.syntaxError("after object key")
		}
		r.pos++
		r.skipSpace()
		if err := member(key); err != nil {
			return err
		}
		r.skipSpace()
		switch r.peek() {
		case ',':
			r.pos++
			r.skipSpace()
		case '}':
			r.pos++
			return nil
		default:
			return r.syntaxError("after object key:value pair")
		}
	}
}

// null consumes a null literal if one is next.
func (r *jsonReader) null() bool {
	if len(r.data)-r.pos >= 4 && string(r.data[r.pos:r.pos+4]) == "null" {
		r.pos += 4
		return true
	}
	return false
}

// int reads a JSON number that must be an integer in int's range.
func (r *jsonReader) int() (int, error) {
	start := r.pos
	neg := r.peek() == '-'
	if neg {
		r.pos++
	}
	// While u <= cutoff, u*10+9 cannot wrap a uint64; once u > cutoff,
	// another digit exceeds every int.
	const cutoff = (1 << 63) / 10
	var u uint64
	overflow := false
	switch c := r.peek(); {
	case c == '0':
		r.pos++
	case '1' <= c && c <= '9':
		for r.pos < len(r.data) && '0' <= r.data[r.pos] && r.data[r.pos] <= '9' {
			if u > cutoff {
				overflow = true
			}
			u = u*10 + uint64(r.data[r.pos]-'0')
			r.pos++
		}
	default:
		return 0, r.typeError("integer field")
	}
	if c := r.peek(); c == '.' || c == 'e' || c == 'E' {
		return 0, r.typeError("integer field")
	}
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	if overflow || u > limit {
		return 0, fmt.Errorf("number %s at offset %d overflows int", r.data[start:r.pos], start)
	}
	if neg {
		return int(-u), nil
	}
	return int(u), nil
}

// value validates and skips one JSON value. depth is the nesting level an
// array or object value would have, the top-level value being level 1.
func (r *jsonReader) value(depth int) error {
	switch c := r.peek(); c {
	case '{', '[':
		if depth > maxJSONDepth {
			return fmt.Errorf("exceeded max depth at offset %d", r.pos)
		}
		if c == '{' {
			return r.object(func([]byte) error { return r.value(depth + 1) })
		}
		r.pos++
		r.skipSpace()
		if r.peek() == ']' {
			r.pos++
			return nil
		}
		for {
			if err := r.value(depth + 1); err != nil {
				return err
			}
			r.skipSpace()
			switch r.peek() {
			case ',':
				r.pos++
				r.skipSpace()
			case ']':
				r.pos++
				return nil
			default:
				return r.syntaxError("after array element")
			}
		}
	case '"':
		_, err := r.str()
		return err
	case 't':
		return r.literal("true")
	case 'f':
		return r.literal("false")
	case 'n':
		return r.literal("null")
	default:
		return r.number()
	}
}

func (r *jsonReader) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if r.peek() != lit[i] {
			return r.syntaxError("in literal " + lit)
		}
		r.pos++
	}
	return nil
}

// number validates and skips a JSON number.
func (r *jsonReader) number() error {
	if r.peek() == '-' {
		r.pos++
	}
	switch c := r.peek(); {
	case c == '0':
		r.pos++
	case '1' <= c && c <= '9':
		r.digits()
	default:
		return r.syntaxError("looking for beginning of value")
	}
	if r.peek() == '.' {
		r.pos++
		if !r.digits() {
			return r.syntaxError("after decimal point in numeric literal")
		}
	}
	if c := r.peek(); c == 'e' || c == 'E' {
		r.pos++
		if c := r.peek(); c == '+' || c == '-' {
			r.pos++
		}
		if !r.digits() {
			return r.syntaxError("in exponent of numeric literal")
		}
	}
	return nil
}

// digits skips a run of decimal digits, reporting whether there was one.
func (r *jsonReader) digits() bool {
	start := r.pos
	for r.pos < len(r.data) && '0' <= r.data[r.pos] && r.data[r.pos] <= '9' {
		r.pos++
	}
	return r.pos > start
}

// str reads a string starting at '"' and returns its raw bytes between the
// quotes, escapes validated but not decoded.
func (r *jsonReader) str() ([]byte, error) {
	r.pos++ // opening quote
	start := r.pos
	for r.pos < len(r.data) {
		switch c := r.data[r.pos]; {
		case c == '"':
			r.pos++
			return r.data[start : r.pos-1], nil
		case c == '\\':
			r.pos++
			switch r.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				r.pos++
			case 'u':
				r.pos++
				for i := 0; i < 4; i++ {
					if !isHex(r.peek()) {
						return nil, r.syntaxError("in \\u hexadecimal character escape")
					}
					r.pos++
				}
			default:
				return nil, r.syntaxError("in string escape code")
			}
		case c < 0x20:
			return nil, r.syntaxError("in string literal")
		default:
			r.pos++
		}
	}
	return nil, errJSONEnd
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// foldKey folds an object key (its raw bytes between the quotes, escapes
// already validated) into buf the way encoding/json does before matching
// it to a struct field: escapes decoded, ASCII letters upper-cased and
// every other rune replaced by the smallest rune of its simple
// case-folding orbit. It returns nil unless the folded key is ASCII and
// fits buf, as every field name of the wire form does.
func foldKey(raw []byte, buf *[8]byte) []byte {
	n := 0
	for len(raw) > 0 {
		var r rune
		switch c := raw[0]; {
		case c == '\\':
			r, raw = unescape(raw)
		case c < utf8.RuneSelf:
			r, raw = rune(c), raw[1:]
		default:
			var size int
			r, size = utf8.DecodeRune(raw)
			raw = raw[size:]
		}
		if 'a' <= r && r <= 'z' {
			r -= 'a' - 'A'
		} else if r >= utf8.RuneSelf {
			r = foldRune(r)
		}
		if r >= utf8.RuneSelf || n == len(buf) {
			return nil
		}
		buf[n] = byte(r)
		n++
	}
	return buf[:n]
}

// unescape decodes the escape sequence at the start of raw, returning the
// rune it stands for and the rest of raw. A \u escape of a UTF-16
// surrogate yields the surrogate itself, which folds to no ASCII rune, as
// neither the pair's decoded rune nor U+FFFD does.
func unescape(raw []byte) (rune, []byte) {
	switch raw[1] {
	case 'u':
		var r rune
		for _, c := range raw[2:6] {
			r <<= 4
			switch {
			case c <= '9':
				r |= rune(c - '0')
			case c <= 'F':
				r |= rune(c - 'A' + 10)
			default:
				r |= rune(c - 'a' + 10)
			}
		}
		return r, raw[6:]
	case 'b':
		return '\b', raw[2:]
	case 'f':
		return '\f', raw[2:]
	case 'n':
		return '\n', raw[2:]
	case 'r':
		return '\r', raw[2:]
	case 't':
		return '\t', raw[2:]
	}
	return rune(raw[1]), raw[2:] // \" \\ \/
}

// foldRune returns the smallest rune in r's simple case-folding orbit.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// buildFromEdges builds and validates the graph with n nodes and the given
// edges. It rejects node counts no edge list this long can connect before
// allocating anything sized by n, and rejects port numbers beyond a node's
// edge count (the Builder would leave a gap there) before the Builder
// would grow a slice to them.
func buildFromEdges(n int, edges []Edge) (*Graph, error) {
	if n < 0 || n > len(edges)+1 {
		return nil, fmt.Errorf("graph: %d nodes cannot be connected by %d edges", n, len(edges))
	}
	deg := make([]int, n)
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("graph: AddEdge(%d,%d,%d,%d): node out of range", e.U, e.PU, e.V, e.PV)
		}
		deg[e.U]++
		deg[e.V]++
	}
	b := newBuilderSized(deg)
	for _, e := range edges {
		if e.PU >= len(b.adj[e.U]) || e.PV >= len(b.adj[e.V]) {
			return nil, fmt.Errorf("graph: AddEdge(%d,%d,%d,%d): port beyond the node's edge count (ports must be 0..deg-1)",
				e.U, e.PU, e.V, e.PV)
		}
		b.AddEdge(e.U, e.PU, e.V, e.PV)
	}
	return b.Build()
}
