package reason

import (
	"fmt"
	"strings"
	"testing"

	"ngd/internal/core"
	"ngd/internal/gen"
	"ngd/internal/paperdata"
	"ngd/internal/pattern"
)

// mk builds a rule from a compact pattern ("x: a; y: _; x -e-> y") and
// ';'-separated X and Y literals.
func mk(name, match, when, then string) *core.NGD {
	p := pattern.New()
	idx := map[string]int{}
	for _, item := range strings.Split(match, ";") {
		f := strings.Fields(item)
		if len(f) == 3 && strings.HasPrefix(f[1], "-") && strings.HasSuffix(f[1], "->") {
			p.AddEdge(idx[f[0]], idx[f[2]], strings.TrimSuffix(strings.TrimPrefix(f[1], "-"), "->"))
			continue
		}
		v := strings.TrimSuffix(f[0], ":")
		idx[v] = p.AddNode(v, f[1])
	}
	lits := func(src string) []core.Literal {
		var out []core.Literal
		for _, s := range strings.Split(src, ";") {
			if s = strings.TrimSpace(s); s != "" {
				out = append(out, core.MustLiteral(s))
			}
		}
		return out
	}
	return core.MustNew(name, p, lits(when), lits(then))
}

// shapes is the hand table of subsumption: one row per shape, with the
// verdict of {ψ} ⊨ φ and whether subsumption by ψ decides it or the probe
// must fall through to the search.
var shapes = []struct {
	shape    string
	psi, phi *core.NGD
	want     Verdict
	byPsi    bool
}{
	{"renamed-variable clone",
		mk("psi", "x: a; y: b; x -e-> y", "x.A > 0", "y.B <= 10"),
		mk("phi", "u: a; v: b; u -e-> v", "u.A > 0", "v.B <= 10"), Yes, true},
	{"reordered literals",
		mk("psi", "x: a", "x.A > 0; x.C = 1", "x.A = 1; x.B = 2"),
		mk("phi", "x: a", "x.C = 1; x.A > 0", "x.B = 2; x.A = 1"), Yes, true},
	{"φ with extra X literals",
		mk("psi", "x: a", "x.A > 0", "x.B > 6"),
		mk("phi", "x: a", "x.A > 0; x.C = 1", "x.B > 6"), Yes, true},
	{"ψ with extra X literals (falls through)",
		mk("psi", "x: a", "x.A > 0; x.C = 1", "x.B > 6"),
		mk("phi", "x: a", "x.A > 0", "x.B > 6"), No, false},
	{"φ with a larger pattern",
		mk("psi", "x: a; y: b; x -e-> y", "", "x.A <= y.B"),
		mk("phi", "x: a; y: b; z: c; x -e-> y; y -f-> z", "z.C = 0", "x.A <= y.B"), Yes, true},
	{"ψ wildcard onto a labelled φ node",
		mk("psi", "x: _", "", "x.A >= 0"),
		mk("phi", "x: a", "", "x.A >= 0"), Yes, true},
	{"labelled ψ node, wildcard φ node (falls through)",
		mk("psi", "x: a", "", "x.A >= 0"),
		mk("phi", "x: _", "", "x.A >= 0"), No, false},
	{"Y_φ ⊂ Y_ψ",
		mk("psi", "x: a", "", "x.A = 1; x.B = 2"),
		mk("phi", "x: a", "", "x.A = 1"), Yes, true},
	{"Y_ψ ⊂ Y_φ (falls through)",
		mk("psi", "x: a", "", "x.A = 1"),
		mk("phi", "x: a", "", "x.A = 1; x.B = 2"), No, false},
	{"non-injective h",
		mk("psi", "x: a; y: a; x -e-> y", "", "x.A <= y.B"),
		mk("phi", "x: a; x -e-> x", "", "x.A <= x.B"), Yes, true},
	{"same literal text over other nodes (falls through)",
		mk("psi", "x: a; y: a; x -e-> y", "", "x.A <= y.A"),
		mk("phi", "x: a; y: a; y -e-> x", "", "x.A <= y.A"), No, false},
	{"string literal",
		mk("psi", "x: a", `x.cat = "living"`, "x.A > 0"),
		mk("phi", "v: a", `v.cat = "living"`, "v.A > 0"), Yes, true},
	{"differing constant (falls through; the search implies it)",
		mk("psi", "x: a", "", "x.A >= 5"),
		mk("phi", "x: a", "", "x.A >= 3"), Yes, false},
}

// TestSubsumptionShapes runs the hand table; every row's verdict is also
// the search's alone.
func TestSubsumptionShapes(t *testing.T) {
	for _, tc := range shapes {
		t.Run(tc.shape, func(t *testing.T) {
			sigma := core.NewSet(tc.psi)
			v, by, err := ImpliedBy(sigma, tc.phi, Options{})
			if err != nil || v != tc.want {
				t.Fatalf("ImpliedBy = %v, %v; want %v", v, err, tc.want)
			}
			if (by == tc.psi) != tc.byPsi || (by != nil && by != tc.psi) {
				t.Fatalf("decided by %v, want subsumption by ψ: %v", by, tc.byPsi)
			}
			if s, _, err := implies(sigma, tc.phi, Options{}, false); err != nil || s != tc.want {
				t.Fatalf("search alone = %v, %v; want %v", s, err, tc.want)
			}
		})
	}

	// subsumption answers before a budget can: the search alone runs out of
	// branches on a clone, the check does not
	psi := mk("psi", "x: a; y: a; x -e-> y", "", "abs(x.A - y.A) <= 5")
	phi := mk("phi", "u: a; v: a; u -e-> v", "", "abs(u.A - v.A) <= 5")
	setMaxBranches(t, 1)
	if v, by, _ := ImpliedBy(core.NewSet(psi), phi, Options{}); v != Yes || by != psi {
		t.Fatalf("clone under a 1-branch budget: %v by %v, want yes by psi", v, by)
	}
	if v, _, _ := implies(core.NewSet(psi), phi, Options{}, false); v != Unknown {
		t.Fatalf("search alone under a 1-branch budget: %v, want unknown", v)
	}
}

// TestSubsumptionAgreesWithSearch probes Σ∖{φ} ⊨ φ for every φ of the
// generated, effectiveness, paper and commit-fuzz rule sets and of the hand
// table's pairs, with and without the subsumption check. The verdicts must be equal, except that
// the check may decide a probe the search leaves Unknown; a probe the
// check decides must be Yes. The branch budget keeps the search-only
// probes of the clone-heavy sets short, so they end in Unknown.
func TestSubsumptionAgreesWithSearch(t *testing.T) {
	corpora := probeCorpora()
	setMaxBranches(t, 200)
	var opts Options
	probes, subsumed, rescued := 0, 0, 0
	for _, c := range corpora {
		for i, phi := range c.set.Rules {
			rest := core.NewSet(append(append([]*core.NGD{}, c.set.Rules[:i]...), c.set.Rules[i+1:]...)...)
			fast, by, err := ImpliedBy(rest, phi, opts)
			if err != nil {
				t.Fatalf("%s %s: %v", c.name, phi.Name, err)
			}
			spec, _, err := implies(rest, phi, opts, false)
			if err != nil {
				t.Fatalf("%s %s: search alone: %v", c.name, phi.Name, err)
			}
			probes++
			if by != nil {
				subsumed++
				if fast != Yes {
					t.Fatalf("%s %s: decided by %s but verdict %v", c.name, phi.Name, by.Name, fast)
				}
			}
			switch {
			case fast == spec:
			case spec == Unknown && fast == Yes:
				rescued++
			default:
				t.Fatalf("%s %s: %v with subsumption (by %v), %v by the search alone", c.name, phi.Name, fast, by, spec)
			}
		}
	}
	t.Logf("%d probes over %d rule sets: %d decided by subsumption, %d of them unknown to the search alone",
		probes, len(corpora), subsumed, rescued)
	if subsumed == 0 || rescued == 0 {
		t.Fatal("the corpora no longer exercise the subsumption check")
	}
}

// corpus is a named rule set to probe.
type corpus struct {
	name string
	set  *core.Set
}

// probeCorpora is the generated, effectiveness, paper and commit-fuzz rule
// sets, and the hand table's pairs.
func probeCorpora() []corpus {
	var corpora []corpus
	for _, p := range []gen.Profile{gen.YAGO2, gen.Pokec} {
		for _, n := range []int{7, 14, 28} {
			for _, seed := range []int64{1, 3} {
				corpora = append(corpora, corpus{fmt.Sprintf("%s/n=%d/seed=%d", p.Name, n, seed),
					gen.Rules(p, gen.RuleConfig{Count: n, MaxDiameter: 4, Seed: seed})})
			}
		}
	}
	corpora = append(corpora,
		corpus{"effectiveness/yago2", gen.EffectivenessRules(gen.YAGO2)},
		corpus{"paper", paperdata.AllRules()},
		corpus{"commit-fuzz", paperdata.ExtendedRules()})
	for _, tc := range shapes {
		corpora = append(corpora, corpus{"shape/" + tc.shape, core.NewSet(tc.psi, tc.phi)})
	}
	return corpora
}
