package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// UpdateBodySeeds are POST /update bodies for FuzzUpdateBody (which adds an
// oversized one) and FuzzUpdateDecoder, over the paper's merged example
// graph (node ids 0–2 G1, 3–6 G2, 7–14 G3, 15–23 G4).
var UpdateBodySeeds = []string{
	// φ1's destruction date goes, then an empty batch
	`{"ops":[{"op":"delete","src":"0","dst":"2","label":"wasDestroyedOnDate"}]}`,
	`{"ops":[]}`,
	// a new area arrives with a star that breaks φ2
	`{"ops":[{"op":"node","id":"tw","label":"area"},{"op":"node","id":"tw-f","label":"integer","attrs":{"val":1}},` +
		`{"op":"node","id":"tw-m","label":"integer","attrs":{"val":1}},{"op":"node","id":"tw-t","label":"integer","attrs":{"val":3}},` +
		`{"op":"insert","src":"tw","dst":"tw-f","label":"femalePopulation"},{"op":"insert","src":"tw","dst":"tw-m","label":"malePopulation"},` +
		`{"op":"insert","src":"tw","dst":"tw-t","label":"populationTotal"}]}`,
	// setattr: φ2 repaired by value (600 + 722 = 1322), φ4's fake account
	// demoted; a fractional, a string and an unsupported value refuse
	// the request
	`{"ops":[{"op":"setattr","id":"6","attrs":{"val":1322}},{"op":"setattr","id":"21","attrs":{"val":false}}]}`,
	`{"ops":[{"op":"setattr","id":"11","attrs":{"val":100000.5,"name":"x"}},{"op":"setattr","id":"12","attrs":{"val":[1]}}]}`,
	// numbers are taken as the exact int64 they denote, or refused
	`{"ops":[{"op":"setattr","id":"6","attrs":{"val":9007199254740993.0}},{"op":"setattr","id":"5","attrs":{"val":1e3}}]}`,
	`{"ops":[{"op":"setattr","id":"6","attrs":{"val":2.5}}]}`,
	`{"ops":[{"op":"setattr","id":"6","attrs":{"val":1e30}}]}`,
	`{"ops":[{"op":"node","id":"n","label":"integer","attrs":{"val":1e999999999}}]}`,
	// an integer float64 would round (2⁶² − 1), and one past int64
	`{"ops":[{"op":"setattr","id":"6","attrs":{"val":4611686018427387903}},{"op":"setattr","id":"5","attrs":{"val":9223372036854775808}}]}`,
	// unknown ids, an unseen label, an unknown op, a numeric node id
	`{"ops":[{"op":"insert","src":"nobody","dst":"3","label":"femalePopulation"},{"op":"delete","src":"99","dst":"0","label":"unseen"},` +
		`{"op":"setattr","id":"-1","attrs":{"val":1}},{"op":"bogus"},{"op":"node","id":"7","label":"place"}]}`,
	// trailing garbage, concatenated objects, not JSON at all
	`{"ops":[]}garbage`,
	`{"ops":[]}{"ops":[]}`,
	`ops`,
}

// decoderContract is one body per clause of decodeUpdate's contract with
// encoding/json.
var decoderContract = []string{
	// field names match case-insensitively, by encoding/json's folding
	// (ſ folds to S, ı to nothing but itself)
	`{"OPS":[{"Op":"insert","SRC":"a","dSt":"b","LaBeL":"l"}]}`,
	`{"ops":[{"op":"node","ıd":"x","ſrc":"y","labeL":"z"}],"oPſ":[{"op":"delete"}]}`,
	// the last of a duplicated key wins
	`{"ops":[{"op":"insert","op":"delete","src":"a","src":"b","label":"l","LABEL":"m"}]}`,
	// repeated attrs objects merge, null empties them
	`{"ops":[{"op":"node","id":"n","attrs":{"a":1,"b":2},"attrs":{"b":"x","c":true}}]}`,
	`{"ops":[{"op":"setattr","id":"1","attrs":{"a":1},"attrs":null,"attrs":{"b":2}}]}`,
	// a repeated "ops" decodes into the ops before it, and reaches past a
	// shorter one into what the longer one left
	`{"ops":[{"op":"insert","src":"a"},{"op":"delete","label":"l"},{"id":"z"}],"ops":[{"dst":"b"}],"ops":[{},{},{},{"op":"node"}]}`,
	`{"ops":[{"op":"insert"}],"ops":[],"ops":[{"src":"a"}]}`,
	// null leaves a field as it is, empties ops
	`{"ops":[{"op":"node","id":"n","id":null,"label":null,"attrs":{"v":1}},null,{"op":null}]}`,
	`{"ops":[{"op":"node"}],"ops":null}`,
	`null`,
	` {"ops":null} `,
	// unknown fields are skipped, and must be valid
	`{"ops":[{"op":"node","extra":{"deep":[1,2,{"x":null}],"s":"A"},"id":"n"}],"more":[true,false,-0.5e+3,"",{}]}`,
	`{"ops":[],"x":[1,]}`,
	`{"ops":[],"x":{"a"}}`,
	`{"ops":[],"x":01}`,
	`{"ops":[],"x":tru}`,
	// escapes, surrogate pairs, lone surrogates, invalid UTF-8
	`{"ops":[{"op":"node","id":"é😀","label":"\ud800x","attrs":{"s":"\ud800A","t":"a\/b\"\\\b\f\n\r\t","a":"\udc00\ud800"}}]}`,
	"{\"ops\":[{\"op\":\"node\",\"id\":\"a\xffb\xed\xa0\x80\",\"attrs\":{\"k\xfe\":\"\xc3\"}}],\"\xff\":1}",
	`{"ops":[{"op":"node","id":"\x"}]}`,
	`{"ops":[{"op":"node","id":"\u12"}]}`,
	"{\"ops\":[{\"op\":\"node\",\"id\":\"a\tb\"}]}",
	// numbers: exact int64 past 2⁵³, exponents, fractions, zero signs
	`{"ops":[{"op":"setattr","id":"1","attrs":{"a":9007199254740993,"b":1e3,"c":-1E+2,"d":2.50e1,"e":0.5,"f":-0,"g":-9223372036854775808,"h":1e-2}}]}`,
	`{"ops":[{"op":"node","id":"n","attrs":{"a":-}}]}`,
	`{"ops":[{"op":"node","id":"n","attrs":{"a":1.}}]}`,
	// values of the wrong type, in a checked op and in an unchecked one
	`{"ops":[{"op":"insert","attrs":{"a":null,"b":[1,{"c":1.5}],"c":{"d":"e"}}}]}`,
	`{"ops":[{"op":"node","id":"n","attrs":{"a":null}}]}`,
	`{"ops":{}}`,
	`{"ops":[1]}`,
	`{"ops":[{"op":1}]}`,
	`{"ops":[{"attrs":[]}]}`,
	`[]`,
	`"ops"`,
	`1`,
	// trailing data, white space, nothing
	`{"ops":[]} x`,
	"{\"ops\":[]}\n\t\r ",
	`{"ops":[]}}`,
	`null x`,
	``,
	` `,
	`{"ops":[]`,
}

// nestingBodies nest arrays to encoding/json's bound and one past it: the
// contract test reads them, the fuzzer starts from nothing this long.
var nestingBodies = []string{
	`{"x":` + strings.Repeat("[", maxDepth-1) + strings.Repeat("]", maxDepth-1) + `}`,
	`{"x":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}`,
}

// refDecode is how POST /update decoded a body before decodeUpdate:
// encoding/json with UseNumber into the request struct, then nothing but
// white space.
func refDecode(body []byte) ([]UpdateOp, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var req struct {
		Ops []UpdateOp `json:"ops"`
	}
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, errTrailing
	}
	return req.Ops, nil
}

// sameDecoding reports how decodeUpdate's answer for body differs from
// encoding/json's, "" when it does not: both accept or both refuse the
// body once checkAttrs has read the ops, and when they accept, the ops are
// equal field by field and every attribute converts by toValue to the same
// value or the same refusal.
func sameDecoding(body []byte) string {
	want, wantErr := refDecode(body)
	if wantErr == nil {
		wantErr = checkAttrs(want)
	}
	got, gotErr := decodeUpdate(string(body))
	if gotErr == nil {
		gotErr = checkAttrs(got)
	}
	if (gotErr == nil) != (wantErr == nil) {
		return fmt.Sprintf("decodeUpdate says %v, encoding/json %v", gotErr, wantErr)
	}
	if wantErr != nil {
		return ""
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d ops, encoding/json %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Op != w.Op || g.Src != w.Src || g.Dst != w.Dst || g.Label != w.Label || g.ID != w.ID ||
			(g.Attrs == nil) != (w.Attrs == nil) || len(g.Attrs) != len(w.Attrs) {
			return fmt.Sprintf("op %d is %+v, encoding/json %+v", i, g, w)
		}
		for name, raw := range w.Attrs {
			graw, ok := g.Attrs[name]
			gv, gerr := toValue(graw)
			wv, werr := toValue(raw)
			if !ok || fmt.Sprint(gerr) != fmt.Sprint(werr) || gerr == nil && !gv.Equal(wv) {
				return fmt.Sprintf("op %d attribute %q is %#v (%v), encoding/json %#v (%v)", i, name, graw, gerr, raw, werr)
			}
		}
	}
	return ""
}

// TestDecodeUpdateContract: decodeUpdate agrees with encoding/json on every
// clause of its contract and on FuzzUpdateBody's seeds, and accepts and
// refuses the bodies it should.
func TestDecodeUpdateContract(t *testing.T) {
	accepted := 0
	for _, body := range slices.Concat(decoderContract, nestingBodies, UpdateBodySeeds) {
		if diff := sameDecoding([]byte(body)); diff != "" {
			t.Errorf("%.200q: %s", body, diff)
		}
		if ops, err := decodeUpdate(body); err == nil && checkAttrs(ops) == nil {
			accepted++
		}
	}
	if accepted < 20 {
		t.Fatalf("only %d of the bodies decode: the table checks little", accepted)
	}
	ops, err := decodeUpdate(`{"ops":[{"op":"setattr","id":"1","attrs":{"a":9007199254740993,"b":1e3,"c":"s"}}]}`)
	if err != nil || ops[0].Attrs["a"] != int64(9007199254740993) || ops[0].Attrs["b"] != int64(1000) || ops[0].Attrs["c"] != "s" {
		t.Fatalf("attributes decode to %#v, %v; want int64 9007199254740993, int64 1000 and \"s\"", ops, err)
	}
}

// FuzzUpdateDecoder holds decodeUpdate to encoding/json on arbitrary bodies
// (see sameDecoding).
func FuzzUpdateDecoder(f *testing.F) {
	for _, body := range slices.Concat(decoderContract, UpdateBodySeeds) {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if diff := sameDecoding(body); diff != "" {
			t.Fatalf("%q: %s", body, diff)
		}
	})
}

// burstBody is a POST /update body shaped like the burst-memory workload's:
// 504 ops, mostly edge inserts and deletes between entity names, with a
// node arrival (four "node" ops, three with an integer attribute, and four
// inserts) in about one eight-op slot of twenty, marshaled as its client
// marshals it.
func burstBody() string {
	rng := rand.New(rand.NewSource(1))
	labels := []string{"next", "follows", "p0", "p1", "p2", "r3x7"}
	name := func() string { return "n" + strconv.Itoa(rng.Intn(64000)) }
	var ops []UpdateOp
	for arrival := 0; len(ops) < 504; {
		if rng.Intn(20) > 0 || len(ops) > 504-8 {
			for range 8 {
				op := UpdateOp{Op: "insert", Src: name(), Dst: name(), Label: labels[rng.Intn(len(labels))]}
				if rng.Intn(100) >= 63 {
					op.Op = "delete"
				}
				ops = append(ops, op)
			}
			continue
		}
		a := "a" + strconv.Itoa(arrival)
		arrival++
		ops = append(ops, UpdateOp{Op: "node", ID: a, Label: "T" + strconv.Itoa(rng.Intn(8))})
		for j := 1; j <= 3; j++ {
			ops = append(ops, UpdateOp{Op: "node", ID: a + "p" + strconv.Itoa(j), Label: "integer", Attrs: map[string]any{"val": rng.Int63n(100000)}})
		}
		for j := 1; j <= 3; j++ {
			ops = append(ops, UpdateOp{Op: "insert", Src: a, Dst: a + "p" + strconv.Itoa(j), Label: "p" + strconv.Itoa(j)})
		}
		ops = append(ops, UpdateOp{Op: "insert", Src: a, Dst: name(), Label: "next"})
	}
	body, err := json.Marshal(map[string]any{"ops": ops})
	if err != nil {
		panic(err)
	}
	return string(body)
}

// TestDecodeUpdateAllocs: decoding a burst body allocates at most 50
// objects — the ops, and each node attribute's map and value — where
// encoding/json made ≈ 2,000.
func TestDecodeUpdateAllocs(t *testing.T) {
	body := burstBody()
	if diff := sameDecoding([]byte(body)); diff != "" {
		t.Fatal(diff)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := decodeUpdate(body); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("decodeUpdate: %.0f objects for a %d-byte, 504-op body", allocs, len(body))
	if allocs > 50 {
		t.Fatalf("decoding a burst body allocated %.0f objects, budget 50", allocs)
	}
}

// BenchmarkDecodeUpdate decodes a burst body (see burstBody).
func BenchmarkDecodeUpdate(b *testing.B) {
	body := burstBody()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := decodeUpdate(body); err != nil {
			b.Fatal(err)
		}
	}
}
