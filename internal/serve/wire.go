package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"ngd/internal/core"
	"ngd/internal/graph"
)

// Every violation the daemon sends — a GET /violations row, a GET
// /violations/{key} body, a feed event's "added" entry — is appended by
// appendVio into a buffer taken from bodies, never built as a value and
// marshaled. The bytes are encoding/json's for the shape
//
//	{"key":"<key>","rule":"<rule>","match":[id,…],"text":"rule(x=id, …)"}
//
// with HTML escaping on (FuzzViolationBody holds the two to each other), so
// a whole-store read streams in constant memory and costs the same few
// allocations as a one-row page.

// bodyFlush is the length at which a streamed body is handed to the
// ResponseWriter; bodies lends buffers of a little more, so a row rarely
// grows one.
const bodyFlush = 16 << 10

var bodies = sync.Pool{New: func() any {
	b := make([]byte, 0, bodyFlush+1<<10)
	return &b
}}

// appendVio appends the wire form of k.
func appendVio(b []byte, k *core.Keyed) []byte {
	b = append(b, `{"key":`...)
	b = appendString(b, k.Key)
	b = append(b, `,"rule":`...)
	b = appendString(b, k.Rule.Name)
	b = append(b, `,"match":[`...)
	for i, id := range k.Match {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	// the text is Violation.String(), escaped piece by piece: every piece
	// is bounded by ASCII, so no rune spans two of them
	b = append(b, `],"text":"`...)
	b = appendEscaped(b, k.Rule.Name)
	b = append(b, '(')
	for i, id := range k.Match {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = appendEscaped(b, k.Rule.Pattern.Nodes[i].Var)
		b = append(b, '=')
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return append(b, `)"}`...)
}

// appendString appends s as a JSON string.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	b = appendEscaped(b, s)
	return append(b, '"')
}

// appendEscaped appends s escaped as encoding/json escapes a string with
// HTML escaping on: '"', '\\', '<', '>', '&' and the control bytes, each
// byte of invalid UTF-8 as \ufffd, and U+2028 and U+2029.
func appendEscaped(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(b, s[start:]...)
}

// A POST /update body is decoded by decodeUpdate, not by encoding/json: one
// pass over the body, read once into a buffer from requests and copied into
// one string whose substrings become the ops' fields. It accepts exactly
// the bodies, and yields exactly the ops, that encoding/json with UseNumber
// yields for
//
//	struct{ Ops []UpdateOp `json:"ops"` }
//
// followed by nothing but white space (FuzzUpdateDecoder holds the two to
// each other): field names match case-insensitively under encoding/json's
// folding, the last of a duplicated key wins, a repeated "attrs" merges into
// the map and a repeated "ops" decodes into the ops already there, null
// leaves a field as it is (and empties "ops" and "attrs"), unknown fields
// are skipped but must be valid JSON, strings decode \u escapes and
// surrogate pairs and turn invalid UTF-8 into U+FFFD, and at most maxDepth
// arrays and objects nest. An attribute value is converted as it is read:
// a string, a bool, or the int64 a number denotes by graph.ParseInt's
// exactness rule; a value outside that domain is left as encoding/json
// gives it (a json.Number, nil, []any or map[string]any) for checkAttrs to
// refuse.

// requestKeep is the largest request buffer requests takes back.
const requestKeep = 1 << 20

var requests = sync.Pool{New: func() any {
	b := make([]byte, 0, 64<<10)
	return &b
}}

// readBody reads r to its end into a buffer from requests and returns it
// as one string; a body over max bytes is an *http.MaxBytesError.
func readBody(w http.ResponseWriter, r *http.Request, max int64) (string, error) {
	body := http.MaxBytesReader(w, r.Body, max)
	bp := requests.Get().(*[]byte)
	b := (*bp)[:0]
	var err error
	for err == nil {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		var n int
		n, err = body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
	}
	var s string
	if err == io.EOF {
		s, err = string(b), nil
	}
	if cap(b) <= requestKeep {
		*bp = b[:0]
		requests.Put(bp)
	}
	return s, err
}

// maxDepth is encoding/json's bound on nested arrays and objects.
const maxDepth = 10000

// errTrailing refuses a body with more than white space after its object.
var errTrailing = errors.New("trailing data after JSON body")

// decodeUpdate decodes a POST /update body into its ops.
func decodeUpdate(body string) ([]UpdateOp, error) {
	d := updateDecoder{s: body}
	var ops []UpdateOp
	d.space()
	switch {
	case d.i == len(d.s):
		return nil, errors.New("empty body")
	case d.s[d.i] == '{':
		d.object(func(key string) {
			if fieldOf(key) != fOps {
				d.skip()
			} else if !d.null() {
				ops = d.ops(ops)
			} else {
				ops = nil
			}
		})
	case !d.null():
		d.typeErr("the request (an object)")
	}
	if d.space(); d.err == nil && d.i < len(d.s) {
		d.err = errTrailing
	}
	return ops, d.err
}

// updateDecoder is a cursor over a body with one sticky error: once err is
// set, peek reads 0, so no method reads on, and the body is refused.
type updateDecoder struct {
	s     string
	i     int
	depth int
	err   error
}

func (d *updateDecoder) syntax(what string) {
	if d.err != nil {
		return
	}
	if d.i >= len(d.s) {
		d.err = errors.New("unexpected end of JSON input")
		return
	}
	d.err = fmt.Errorf("invalid character %q %s at offset %d", d.s[d.i], what, d.i)
}

// typeErr refuses the value at the cursor, of the wrong JSON type for
// where it stands; a value that is not JSON at all is refused as that.
func (d *updateDecoder) typeErr(where string) {
	at := d.i
	if d.skip(); d.err == nil {
		d.err = fmt.Errorf("cannot decode the value at offset %d into %s", at, where)
	}
}

func (d *updateDecoder) space() {
	i, s := d.i, d.s
	for i < len(s) && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r') {
		i++
	}
	d.i = i
}

// peek is the byte at the cursor, 0 at the end or after an error.
func (d *updateDecoder) peek() byte {
	if d.err != nil || d.i >= len(d.s) {
		return 0
	}
	return d.s[d.i]
}

// lit consumes the literal word at the cursor.
func (d *updateDecoder) lit(word string) {
	if !strings.HasPrefix(d.s[d.i:], word) {
		for j := 0; j < len(word) && d.i < len(d.s) && d.s[d.i] == word[j]; j++ {
			d.i++
		}
		d.syntax("in literal " + word)
		return
	}
	d.i += len(word)
}

// null consumes a null at the cursor and reports whether there was one.
func (d *updateDecoder) null() bool {
	if d.peek() != 'n' {
		return false
	}
	d.lit("null")
	return d.err == nil
}

// enter and leave bracket an array or object, holding the nesting bound.
func (d *updateDecoder) enter() {
	if d.depth++; d.depth > maxDepth {
		d.syntax("exceeding the maximum nesting depth")
	}
	d.i++
}

func (d *updateDecoder) leave() { d.depth--; d.i++ }

// object reads the object at the cursor, calling member with each key and
// the cursor on its value, which member must consume.
func (d *updateDecoder) object(member func(key string)) {
	d.enter()
	if d.space(); d.peek() == '}' {
		d.leave()
		return
	}
	for d.err == nil {
		if d.peek() != '"' {
			d.syntax("looking for beginning of object key string")
			return
		}
		key := d.str()
		if d.space(); d.peek() != ':' {
			d.syntax("after object key")
			return
		}
		d.i++
		d.space()
		member(key)
		switch d.space(); d.peek() {
		case ',':
			d.i++
			d.space()
		case '}':
			d.leave()
			return
		default:
			d.syntax("after object key:value pair")
		}
	}
}

// array reads the array at the cursor, calling elem with the cursor on each
// element, which elem must consume.
func (d *updateDecoder) array(elem func()) {
	d.enter()
	if d.space(); d.peek() == ']' {
		d.leave()
		return
	}
	for d.err == nil {
		elem()
		switch d.space(); d.peek() {
		case ',':
			d.i++
			d.space()
		case ']':
			d.leave()
			return
		default:
			d.syntax("after array element")
		}
	}
}

// ops decodes the array at the cursor into ops as encoding/json decodes an
// array into a slice: element i into ops[i] as it stands (a repeated "ops"
// key merges into the ops of the one before), ops cut to the array's
// length, and an empty array is a fresh empty slice.
func (d *updateDecoder) ops(ops []UpdateOp) []UpdateOp {
	if d.peek() != '[' {
		d.typeErr("ops (an array)")
		return ops
	}
	if cap(ops) == 0 { // an estimate: every op object closes a brace and spans ≥ 16 bytes
		ops = make([]UpdateOp, 0, min(strings.Count(d.s[d.i:], "}"), (len(d.s)-d.i)/16))
	}
	n := 0
	d.array(func() {
		switch {
		case n < len(ops):
		case n < cap(ops): // the slots past len keep what an earlier "ops" left
			ops = ops[:n+1]
		default:
			ops = append(ops, UpdateOp{})
		}
		switch d.peek() {
		case '{':
			d.op(&ops[n])
		case 'n':
			d.null()
		default:
			d.typeErr("an op (an object)")
		}
		n++
	})
	if n == 0 {
		return []UpdateOp{}
	}
	return ops[:n]
}

// op decodes the object at the cursor into op.
func (d *updateDecoder) op(op *UpdateOp) {
	d.object(func(key string) {
		var to *string
		switch fieldOf(key) {
		case fOp:
			to = &op.Op
		case fSrc:
			to = &op.Src
		case fDst:
			to = &op.Dst
		case fLabel:
			to = &op.Label
		case fID:
			to = &op.ID
		case fAttrs:
			switch d.peek() {
			case '{':
				if op.Attrs == nil {
					op.Attrs = make(map[string]any, 1)
				}
				d.object(func(name string) { op.Attrs[name] = d.attr() })
			case 'n':
				d.null()
				op.Attrs = nil
			default:
				d.typeErr("attrs (an object)")
			}
			return
		default:
			d.skip()
			return
		}
		switch d.peek() {
		case '"':
			*to = d.str()
		case 'n':
			d.null()
		default:
			d.typeErr(strconv.Quote(key) + " (a string)")
		}
	})
}

// attr reads one attribute value. A string is copied out of the body: it
// may outlive the request as a stored attribute.
func (d *updateDecoder) attr() any {
	switch c := d.peek(); {
	case c == '"':
		return strings.Clone(d.str())
	case c == 't':
		d.lit("true")
		return true
	case c == 'f':
		d.lit("false")
		return false
	case c == 'n':
		d.null()
		return nil
	case c == '-' || c >= '0' && c <= '9':
		text := d.number()
		if n, err := graph.ParseInt(text); err == nil {
			return n
		}
		return json.Number(text) // checkAttrs refuses it with ParseInt's error
	}
	// an array or an object, as encoding/json gives it: checkAttrs refuses it
	start := d.i
	if d.skip(); d.err != nil {
		return nil
	}
	dec := json.NewDecoder(strings.NewReader(d.s[start:d.i]))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		d.err = err
	}
	return v
}

// skip consumes one value, any value, checking its syntax.
func (d *updateDecoder) skip() {
	switch c := d.peek(); {
	case c == '{':
		d.object(func(string) { d.skip() })
	case c == '[':
		d.array(d.skip)
	case c == '"':
		d.str()
	case c == 't':
		d.lit("true")
	case c == 'f':
		d.lit("false")
	case c == 'n':
		d.lit("null")
	case c == '-' || c >= '0' && c <= '9':
		d.number()
	default:
		d.syntax("looking for beginning of value")
	}
}

// number consumes a number and returns its text:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *updateDecoder) number() string {
	start := d.i
	digits := func() {
		if d.i >= len(d.s) || d.s[d.i] < '0' || d.s[d.i] > '9' {
			d.syntax("in numeric literal")
			return
		}
		for d.i < len(d.s) && d.s[d.i] >= '0' && d.s[d.i] <= '9' {
			d.i++
		}
	}
	if d.s[d.i] == '-' {
		d.i++
	}
	if d.i < len(d.s) && d.s[d.i] == '0' {
		d.i++
	} else {
		digits()
	}
	if d.i < len(d.s) && d.s[d.i] == '.' {
		d.i++
		digits()
	}
	if d.i < len(d.s) && (d.s[d.i] == 'e' || d.s[d.i] == 'E') {
		d.i++
		if d.i < len(d.s) && (d.s[d.i] == '+' || d.s[d.i] == '-') {
			d.i++
		}
		digits()
	}
	return d.s[start:d.i]
}

// str consumes the string at the cursor and returns its value: a substring
// of the body when it holds no escape and no invalid UTF-8.
func (d *updateDecoder) str() string {
	s := d.s
	for i := d.i + 1; i < len(s); {
		c := s[i]
		switch {
		case c >= 0x20 && c != '"' && c != '\\' && c < utf8.RuneSelf:
			i++
		case c == '"':
			v := s[d.i+1 : i]
			d.i = i + 1
			return v
		case c == '\\' || c < 0x20:
			return d.unquote(i)
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				return d.unquote(i)
			}
			i += size
		}
	}
	d.i = len(s)
	d.syntax("")
	return ""
}

// unquote is str's slow path, from i on: escapes decoded as encoding/json
// decodes them, and each byte of invalid UTF-8 made U+FFFD.
func (d *updateDecoder) unquote(i int) string {
	b := []byte(d.s[d.i+1 : i])
	for i < len(d.s) {
		switch c := d.s[i]; {
		case c == '"':
			d.i = i + 1
			return string(b)
		case c < 0x20:
			d.i = i
			d.syntax("in string literal")
			return ""
		case c == '\\':
			if i+1 >= len(d.s) {
				d.i = len(d.s)
				d.syntax("")
				return ""
			}
			switch e := d.s[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(d.s[i+2:])
				if r < 0 {
					d.i = min(i+2, len(d.s))
					d.syntax("in \\u hexadecimal character escape")
					return ""
				}
				i += 6
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if strings.HasPrefix(d.s[i:], `\u`) {
						r2 = hex4(d.s[i+2:])
					}
					if pair := utf16.DecodeRune(r, r2); pair != unicode.ReplacementChar {
						r, i = pair, i+6
					} else {
						r = unicode.ReplacementChar
					}
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				d.i = i + 1
				d.syntax("in string escape code")
				return ""
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRuneInString(d.s[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	d.i = len(d.s)
	d.syntax("")
	return ""
}

// hex4 is the value of the four hex digits s starts with, or -1.
func hex4(s string) rune {
	if len(s) < 4 {
		return -1
	}
	var r rune
	for _, c := range []byte(s[:4]) {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		case c >= 'A' && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// The fields of the request and of an op, as fieldOf names them.
const (
	fNone = iota
	fOps
	fOp
	fSrc
	fDst
	fLabel
	fID
	fAttrs
)

// fieldOf names the field key stands for. encoding/json matches field
// names case-insensitively under its folding: ASCII letters upper-cased,
// any other rune made the least rune of its unicode.SimpleFold orbit
// ("ſrc" is "SRC", "ıd" no field). A key longer than three bytes a letter
// of the longest name, the most a folded rune shrinks by, is no field.
func fieldOf(key string) int {
	if len(key) > 3*len("label") {
		return fNone
	}
	var buf [4 * 3 * len("label")]byte
	b := buf[:0]
	for i := 0; i < len(key); {
		c := key[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(key[i:])
			for next := unicode.SimpleFold(r); next < r; next = unicode.SimpleFold(r) {
				r = next
			}
			b = utf8.AppendRune(b, r)
			i += size
			continue
		}
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		b = append(b, c)
		i++
	}
	switch string(b) {
	case "OPS":
		return fOps
	case "OP":
		return fOp
	case "SRC":
		return fSrc
	case "DST":
		return fDst
	case "LABEL":
		return fLabel
	case "ID":
		return fID
	case "ATTRS":
		return fAttrs
	}
	return fNone
}
