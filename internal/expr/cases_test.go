package expr

import (
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ngd/internal/graph"
)

// FuzzCasesMatchesCompare: the translation the solver receives is the
// literal. Whenever Compare decides l ⊗ r and no case is nil, the literal
// holds iff every atom of some case holds, each form evaluated exactly
// under the same binding. The inputs are FuzzKernelMatchesCompare's: the
// fuzzer mutates the literal text, seed picks the integer bound to each of
// its terms, and the seed corpus is that fuzz target's.
func FuzzCasesMatchesCompare(f *testing.F) {
	addKernelCorpus(f)
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		if len(src) > 200 {
			return // the parser recurses per nesting level; depth is not the subject
		}
		l, op, r, err := ParseComparison(src)
		if err != nil {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		vals := map[TermKey]int64{}
		for _, e := range []*Expr{l, r} {
			e.Terms(func(v, a string) {
				if _, ok := vals[TermKey{v, a}]; !ok {
					vals[TermKey{v, a}] = genInt(rng)
				}
			})
		}
		want, err := Compare(l, op, r, func(v, a string) (graph.Value, bool) {
			return graph.Int(vals[TermKey{v, a}]), true
		})
		if err != nil {
			return
		}
		got := false
		for _, atoms := range Cases(l, op, r) {
			if atoms == nil {
				return
			}
			all := true
			for _, a := range atoms {
				all = all && a.Op.Holds(evalForm(a.Form, vals).Sign())
			}
			got = got || all
		}
		if got != want {
			t.Errorf("%s under %v: cases say %v, Compare says %v", FormatComparison(l, op, r), vals, got, want)
		}
	})
}

func genInt(rng *rand.Rand) int64 {
	if rng.Intn(4) == 0 {
		return genConsts[rng.Intn(len(genConsts))]
	}
	return int64(rng.Intn(41) - 20)
}

// evalForm evaluates Σ cᵢ·tᵢ + Const exactly.
func evalForm(f *LinearForm, vals map[TermKey]int64) *big.Rat {
	sum := new(big.Rat).Set(f.Const)
	for k, c := range f.Coeffs {
		sum.Add(sum, new(big.Rat).Mul(c, new(big.Rat).SetInt64(vals[k])))
	}
	return sum
}

// addKernelCorpus seeds f with FuzzKernelMatchesCompare's committed corpus,
// files of the form
//
//	go test fuzz v1
//	string("x.a = y.a")
//	int64(5)
func addKernelCorpus(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzKernelMatchesCompare", "*"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("kernel corpus: %v (%d files)", err, len(paths))
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		if len(lines) != 3 {
			f.Fatalf("%s: %d lines, want 3", p, len(lines))
		}
		src, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")"))
		if err != nil {
			f.Fatalf("%s: %v", p, err)
		}
		seed, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(lines[2], "int64("), ")"), 10, 64)
		if err != nil {
			f.Fatalf("%s: %v", p, err)
		}
		f.Add(src, seed)
	}
}
