package serve

import (
	"strconv"
	"sync"
	"unicode/utf8"

	"ngd/internal/core"
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
