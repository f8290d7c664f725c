package analyze

import (
	"encoding/json"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"ngd/internal/core"
	"ngd/internal/expr"
	"ngd/internal/pattern"
	"ngd/internal/reason"
)

func rule(name, label string, x, y []core.Literal) *core.NGD {
	p := pattern.New()
	p.AddNode("x", label)
	return core.MustNew(name, p, x, y)
}

func lits(srcs ...string) []core.Literal {
	var out []core.Literal
	for _, s := range srcs {
		out = append(out, core.MustLiteral(s))
	}
	return out
}

// phi5/phi6/phi7/phi8/phi9 are the §4 Example 5 families pinned in
// reason_test.go; the gate must diagnose them.
func phi5() *core.NGD { return rule("phi5", "_", nil, lits("x.A = 7", "x.B = 7")) }
func phi6() *core.NGD { return rule("phi6", "_", nil, lits("x.A + x.B = 11")) }
func phi7() *core.NGD {
	return rule("phi7", "_", lits("x.A <= 3"), lits("x.B > 6"))
}
func phi8() *core.NGD {
	return rule("phi8", "_", lits("x.A > 3"), lits("x.B > 6"))
}
func phi9() *core.NGD { return rule("phi9", "_", nil, lits("x.B < 6", "x.A != 0")) }

func TestUnsatCorePhi56(t *testing.T) {
	// a benign rule rides along; the core must shrink to exactly {φ5, φ6}
	benign := rule("benign", "a", lits("x.C > 0"), lits("x.C < 100"))
	set := core.NewSet(phi5(), benign, phi6())
	rep := Analyze(set, Options{Lines: map[string]int{"phi5": 1, "phi6": 21}})

	if rep.Satisfiable != reason.No || !rep.Unsat() {
		t.Fatalf("satisfiable = %v, want no", rep.Satisfiable)
	}
	if rep.Core == nil || !rep.Core.Minimal {
		t.Fatalf("core = %+v, want minimal", rep.Core)
	}
	if got := strings.Join(rep.Core.Rules, ","); got != "phi5,phi6" {
		t.Fatalf("core rules = %s, want phi5,phi6", got)
	}
	// the ground witness must render the constants in place: 7 + 7 = 11
	joined := strings.Join(rep.Core.Literals, "\n")
	if !strings.Contains(joined, "7 + 7 = 11 fails") {
		t.Fatalf("no ground witness in core literals:\n%s", joined)
	}
	if !strings.Contains(joined, "(line 1)") || !strings.Contains(joined, "(line 21)") {
		t.Fatalf("line numbers missing from core literals:\n%s", joined)
	}
	if d := rep.Diagnostic(); !strings.Contains(d, "Σ unsatisfiable: minimal core {phi5, phi6}") {
		t.Fatalf("diagnostic:\n%s", d)
	}
}

func TestUnsatCorePhi789(t *testing.T) {
	// {φ7, φ8, φ9} is jointly unsatisfiable but every 2-subset is
	// satisfiable: deletion shrinking must keep all three.
	set := core.NewSet(phi7(), phi8(), phi9())
	rep := Analyze(set, Options{})
	if rep.Satisfiable != reason.No {
		t.Fatalf("satisfiable = %v, want no", rep.Satisfiable)
	}
	if rep.Core == nil || !rep.Core.Minimal {
		t.Fatalf("core = %+v, want minimal", rep.Core)
	}
	if got := strings.Join(rep.Core.Rules, ","); got != "phi7,phi8,phi9" {
		t.Fatalf("core rules = %s, want all three", got)
	}
}

func TestUnsatCoreSingleRule(t *testing.T) {
	bad := rule("bad", "_", nil, lits("x.A < 0", "x.A > 0"))
	rep := Analyze(core.NewSet(bad), Options{})
	if rep.Satisfiable != reason.No || rep.Core == nil {
		t.Fatalf("rep = %+v", rep)
	}
	if len(rep.Core.Rules) != 1 || rep.Core.Rules[0] != "bad" {
		t.Fatalf("core = %+v, want just bad", rep.Core)
	}
}

func TestMinimizeDropsUnviolable(t *testing.T) {
	// deadpre's precondition is unsatisfiable and deadcons has an empty
	// consequence: neither can be violated in any graph, so both drop;
	// live stays.
	deadpre := rule("deadpre", "_", lits("x.A < 0", "x.A > 0"), lits("x.B = 1"))
	deadcons := rule("deadcons", "a", lits("x.A > 0"), nil)
	live := rule("live", "a", nil, lits("x.A >= 0"))
	set := core.NewSet(deadpre, live, deadcons)
	rep := Analyze(set, Options{})

	if rep.Satisfiable != reason.Yes {
		t.Fatalf("satisfiable = %v, want yes", rep.Satisfiable)
	}
	if got := strings.Join(rep.Dropped, ","); got != "deadpre,deadcons" {
		t.Fatalf("dropped = %q, want deadpre,deadcons", got)
	}
	// the session's minimization drops exactly what the report drops
	min, dropped := MinimizeUnviolable(set)
	if !slices.Equal(dropped, rep.Dropped) {
		t.Fatalf("MinimizeUnviolable dropped %v, Analyze dropped %v", dropped, rep.Dropped)
	}
	if len(min.Rules) != 1 || min.Rules[0].Name != "live" {
		t.Fatalf("minimized = %v", min.Rules)
	}
	// a second pass over the minimized set is a fixpoint
	rep2 := Analyze(min, Options{})
	if len(rep2.Dropped) != 0 {
		t.Fatalf("re-analysis dropped %v", rep2.Dropped)
	}
}

func TestImpliedReportedNotDropped(t *testing.T) {
	// strong: A>0 → B>6 implies weak: A>0 → B>5, but weak is violable, so
	// minimization must keep it (violations carry rule identity).
	strong := rule("strong", "a", lits("x.A > 0"), lits("x.B > 6"))
	weak := rule("weak", "a", lits("x.A > 0"), lits("x.B > 5"))
	set := core.NewSet(strong, weak)

	rep := Analyze(set, Options{})
	if rep.Satisfiable != reason.Yes {
		t.Fatalf("satisfiable = %v, want yes", rep.Satisfiable)
	}
	var weakRep *RuleReport
	for i := range rep.Rules {
		if rep.Rules[i].Name == "weak" {
			weakRep = &rep.Rules[i]
		}
	}
	if weakRep == nil || weakRep.Implied != reason.Yes {
		t.Fatalf("weak implied = %+v, want yes", weakRep)
	}
	if weakRep.Unviolable || weakRep.Dropped || len(rep.Dropped) != 0 {
		t.Fatalf("minimization dropped a violable rule: %+v", rep)
	}
}

func TestImpliedByNamesTheSubsumer(t *testing.T) {
	// twinB is twinA with its variable renamed: each subsumes the other, so
	// the report names the subsumer. weak is implied by strong only through
	// the search (a differing constant), so it names nobody.
	twinA := rule("twinA", "a", lits("x.A > 0"), lits("x.B = 1"))
	p := pattern.New()
	p.AddNode("v", "a")
	twinB := core.MustNew("twinB", p, lits("v.A > 0"), lits("v.B = 1"))
	strong := rule("strong", "b", nil, lits("x.B > 6"))
	weak := rule("weak", "b", nil, lits("x.B > 5"))
	set := core.NewSet(twinA, twinB, strong, weak)
	rep := Analyze(set, Options{Lines: map[string]int{"twinB": 9}})

	by := map[string]string{}
	for _, rr := range rep.Rules {
		if rr.ProbeMS < 0 {
			t.Fatalf("%s: probe_ms %v", rr.Name, rr.ProbeMS)
		}
		by[rr.Name] = rr.ImpliedBy
	}
	if want := map[string]string{"twinA": "twinB", "twinB": "twinA", "strong": "", "weak": ""}; !maps.Equal(by, want) {
		t.Fatalf("implied_by = %v, want %v", by, want)
	}
	if rep.Rules[3].Implied != reason.Yes {
		t.Fatalf("weak implied = %v, want yes", rep.Rules[3].Implied)
	}
	d := rep.Diagnostic()
	for _, want := range []string{
		"rule twinB (line 9): implied by twinA (kept: violations carry rule identity)",
		"rule weak: implied by Σ∖{φ} (kept: violations carry rule identity)",
	} {
		if !strings.Contains(d, want) {
			t.Fatalf("diagnostic lacks %q:\n%s", want, d)
		}
	}
	slow := rep.SlowestProbe()
	for _, rr := range rep.Rules {
		if rr.ProbeMS > slow.ProbeMS {
			t.Fatalf("slowest probe %s (%v ms) but %s took %v ms", slow.Name, slow.ProbeMS, rr.Name, rr.ProbeMS)
		}
	}
	raw, _ := json.Marshal(rep)
	if !strings.Contains(string(raw), `"implied_by":"twinB"`) || !strings.Contains(string(raw), `"probe_ms":`) {
		t.Fatalf("JSON lacks implied_by or probe_ms:\n%s", raw)
	}
}

func TestUnknownIsConservative(t *testing.T) {
	// an exhausted match budget degrades everything to Unknown: no core,
	// no drops, Unsat() false (strict mode cannot refuse). Seven unlinked
	// a-nodes map onto their canonical instance in 7! ways, far past the
	// obligations reason enumerates, so the unsatisfiable {φ5, φ6} cannot
	// be proved so once the wide rule rides along.
	p := pattern.New()
	for _, v := range []string{"x0", "x1", "x2", "x3", "x4", "x5", "x6"} {
		p.AddNode(v, "a")
	}
	wide := core.MustNew("wide", p, nil, lits("x0.A = 1"))
	set := core.NewSet(phi5(), phi6(), wide)
	rep := Analyze(set, Options{})
	if rep.Satisfiable != reason.Unknown {
		t.Fatalf("satisfiable = %v, want unknown", rep.Satisfiable)
	}
	if rep.Unsat() || rep.Core != nil || len(rep.Dropped) != 0 {
		t.Fatalf("unknown verdict was not conservative: %+v", rep)
	}
}

func TestTimeoutDegradesToUnknown(t *testing.T) {
	// an expired deadline degrades everything to Unknown: no core, no
	// drops, Unsat() false (strict mode cannot refuse).
	set := core.NewSet(phi5(), phi6())
	rep := Analyze(set, Options{Timeout: time.Nanosecond})
	if rep.Satisfiable != reason.Unknown || rep.Core != nil || len(rep.Dropped) != 0 {
		t.Fatalf("expired deadline not conservative: sat=%v core=%v dropped=%v",
			rep.Satisfiable, rep.Core, rep.Dropped)
	}
	if rep.Unsat() {
		t.Fatal("an unknown verdict refused Σ")
	}
}

func TestEmptySetAdmitted(t *testing.T) {
	rep := Analyze(core.NewSet(), Options{})
	if rep.Unsat() {
		t.Fatal("empty Σ must not be refused")
	}
	if rep.StronglySatisfiable != reason.Yes {
		t.Fatalf("strong(∅) = %v, want yes", rep.StronglySatisfiable)
	}
}

func TestSignatureStability(t *testing.T) {
	a := core.NewSet(phi5(), phi6())
	b := core.NewSet(phi5(), phi6())
	if Signature(a) != Signature(b) {
		t.Fatal("identical Σ, different signatures")
	}
	if Signature(a) == Signature(core.NewSet(phi5())) {
		t.Fatal("different Σ, same signature")
	}
	if got := Analyze(a, Options{}).Signature; got != Signature(a) {
		t.Fatalf("report signature %s != %s", got, Signature(a))
	}
}

func TestReportJSON(t *testing.T) {
	rep := Analyze(core.NewSet(phi5(), phi6()), Options{})
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"satisfiable":"no"`, `"core":`, `"minimal":true`, `"signature":"`} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("JSON missing %s:\n%s", want, raw)
		}
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Satisfiable != reason.No || back.Core == nil {
		t.Fatalf("roundtrip lost data: %+v", back)
	}
}

func TestNonLinearReported(t *testing.T) {
	// smuggle a degree-2 literal past core.New's validation (Theorem 3:
	// the analyses are undecidable there; the gate must surface the error)
	p := pattern.New()
	p.AddNode("x", "_")
	bad := &core.NGD{Name: "square", Pattern: p, Y: []core.Literal{
		core.Lit(expr.Mul(expr.V("x", "A"), expr.V("x", "A")), expr.Eq, expr.C(4)),
	}}
	rep := Analyze(core.NewSet(bad), Options{})
	if rep.Err == "" || rep.Satisfiable != reason.Unknown {
		t.Fatalf("non-linear Σ: err=%q sat=%v", rep.Err, rep.Satisfiable)
	}
	if rep.Unsat() {
		t.Fatal("non-linear Σ must not be refused as unsat")
	}
}

func TestParseMode(t *testing.T) {
	for s, want := range map[string]Mode{"off": ModeOff, "warn": ModeWarn, "strict": ModeStrict} {
		m, err := ParseMode(s)
		if err != nil || m != want {
			t.Fatalf("ParseMode(%s) = %v, %v", s, m, err)
		}
		if m.String() != s {
			t.Fatalf("String() roundtrip: %s -> %s", s, m)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Fatal("bogus mode accepted")
	}
}
