// Package analyze turns the §4 decision procedures of internal/reason into
// an operational static-analysis pass over Σ — the admission gate every
// ingest path (dsl load, session construction, ngdserve boot and recovery,
// ngdcheck) runs before a rule set is allowed near a graph.
//
// The pass has three stages:
//
//  1. Satisfiability triage: each rule's pattern is probed against the whole
//     set (reason.PatternConsistent, rules analyzed in parallel), which both
//     yields a per-rule verdict and decides Satisfiable(Σ) — Σ is
//     satisfiable iff some pattern's canonical instance is consistent.
//     StronglySatisfiable(Σ) runs alongside.
//  2. Unsat-core extraction: when Σ is unsatisfiable, deletion-based
//     shrinking over reason.Satisfiable reduces Σ to a minimal conflicting
//     subset; the core's literals are rendered — with a ground witness like
//     "7 + 7 = 11 fails" when constant propagation closes the literals — so
//     an operator sees which constraints cannot coexist.
//  3. Implication-based minimization: for each rule φ the pass decides
//     whether φ is unviolable (∅ ⊨ φ: no graph whatsoever can violate it)
//     and whether it is implied by the rest (Σ∖{φ} ⊨ φ). Unviolable rules
//     are dropped by default — Vio(Σ∖{φ}, G) = Vio(Σ, G) for every G, since
//     φ contributes no violations anywhere, so detection output is
//     bit-identical. Implied-but-violable rules are only *reported*:
//     violations carry rule identity, so removing such a rule would
//     preserve the consistency verdict (Vio = ∅ iff Vio = ∅) but not the
//     violation list itself.
//
// Every stage is budgeted (reason's search budgets plus a wall-clock Timeout
// handed to it as a Done channel) and degrades to Unknown —
// conservatively treated as "keep the rule / cannot refuse Σ" — never to a
// wrong verdict.
package analyze

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"ngd/internal/core"
	"ngd/internal/dsl"
	"ngd/internal/expr"
	"ngd/internal/reason"
)

// Mode selects how a caller acts on the report.
type Mode uint8

// Gate modes: Off skips the analysis entirely, Warn runs it and logs
// findings but always admits Σ, Strict refuses an unsatisfiable Σ.
const (
	ModeOff Mode = iota
	ModeWarn
	ModeStrict
)

func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeWarn:
		return "warn"
	default:
		return "strict"
	}
}

// ParseMode parses the -analyze flag values off|warn|strict.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "off":
		return ModeOff, nil
	case "warn":
		return ModeWarn, nil
	case "strict":
		return ModeStrict, nil
	}
	return ModeOff, fmt.Errorf("analyze: unknown mode %q (want off, warn or strict)", s)
}

// Options configure the pass.
type Options struct {
	// Timeout bounds the whole pass in wall-clock time; expired stages
	// report Unknown. Zero = no deadline.
	Timeout time.Duration
	// NoMinimize disables dropping unviolable rules (the analysis still
	// reports them).
	NoMinimize bool
	// Lines maps rule names to source line numbers (dsl.ParseRulesLocated)
	// for diagnostics.
	Lines map[string]int
}

// RuleReport is the per-rule triage result.
type RuleReport struct {
	Name string `json:"name"`
	Line int    `json:"line,omitempty"`
	// Satisfiable: can this rule's pattern be materialized in a model of
	// the whole Σ? (reason.PatternConsistent against the full set.)
	Satisfiable reason.Verdict `json:"satisfiable"`
	// Implied: Σ∖{φ} ⊨ φ.
	Implied reason.Verdict `json:"implied"`
	// ImpliedBy names the rule of Σ∖{φ} that subsumes φ, set only when
	// subsumption decided Implied (reason.ImpliedBy).
	ImpliedBy string `json:"implied_by,omitempty"`
	// Unviolable: ∅ ⊨ φ — no graph can violate φ.
	Unviolable bool `json:"unviolable"`
	// Dropped: minimization removed this (unviolable) rule from Σ.
	Dropped bool `json:"dropped"`
	// ProbeMS is the wall time, in milliseconds, of this rule's probes:
	// pattern consistency, unviolability and implication.
	ProbeMS float64 `json:"probe_ms"`
	// Err records a per-rule analysis failure (e.g. non-linear literal).
	Err string `json:"error,omitempty"`
}

// UnsatCore is a conflicting subset of an unsatisfiable Σ.
type UnsatCore struct {
	// Rules names the conflicting subset, in Σ order.
	Rules []string `json:"rules"`
	// Literals renders each core rule's dependency, plus ground witnesses
	// ("7 + 7 = 11 fails") when constant propagation closes a literal.
	Literals []string `json:"literals"`
	// Minimal is false when a budget-exhausted (Unknown) probe forced the
	// shrinker to keep a rule it could not decide.
	Minimal bool `json:"minimal"`
}

// Report is the gate's structured output (JSON-stable: served by
// GET /rules/analysis).
type Report struct {
	// Signature identifies Σ: sha256 over the canonical DSL rendering.
	Signature string `json:"signature"`
	NumRules  int    `json:"num_rules"`

	Satisfiable         reason.Verdict `json:"satisfiable"`
	StronglySatisfiable reason.Verdict `json:"strongly_satisfiable"`

	// Core is present iff Satisfiable is No and Σ is non-empty.
	Core *UnsatCore `json:"core,omitempty"`

	Rules []RuleReport `json:"rules"`
	// Dropped lists rules removed by minimization, in Σ order.
	Dropped []string `json:"dropped,omitempty"`

	ElapsedMS int64 `json:"elapsed_ms"`
	// Err is a whole-set analysis failure (ErrNonLinear); verdicts are
	// Unknown when set.
	Err string `json:"error,omitempty"`
}

// Signature returns the Σ identity the report (and the serve-layer cache)
// is keyed by: sha256 over the canonical re-parseable DSL rendering.
func Signature(set *core.Set) string {
	h := sha256.Sum256([]byte(dsl.FormatRules(set)))
	return hex.EncodeToString(h[:])
}

// Unsat reports whether the gate should refuse Σ in strict mode: proven
// unsatisfiable and non-empty. (The empty set is "unsatisfiable" by the
// paper's convention — no pattern can match — but refusing it would reject
// a server with no rules registered yet.) Unknown never refuses.
func (r *Report) Unsat() bool {
	return r.Satisfiable == reason.No && r.NumRules > 0
}

// Diagnostic renders the report for an operator (stderr of a strict boot,
// warn-mode logs). One line per finding; empty when Σ is clean.
func (r *Report) Diagnostic() string {
	var b strings.Builder
	if r.Err != "" {
		fmt.Fprintf(&b, "analysis error: %s\n", r.Err)
	}
	if r.Core != nil {
		min := "minimal "
		if !r.Core.Minimal {
			min = "non-minimal (budget-limited) "
		}
		fmt.Fprintf(&b, "Σ unsatisfiable: %score {%s}\n", min, strings.Join(r.Core.Rules, ", "))
		for _, l := range r.Core.Literals {
			fmt.Fprintf(&b, "  %s\n", l)
		}
	}
	for _, rr := range r.Rules {
		loc := ""
		if rr.Line > 0 {
			loc = fmt.Sprintf(" (line %d)", rr.Line)
		}
		switch {
		case rr.Err != "":
			fmt.Fprintf(&b, "rule %s%s: %s\n", rr.Name, loc, rr.Err)
		case rr.Dropped:
			fmt.Fprintf(&b, "rule %s%s: unviolable (∅ ⊨ φ), dropped — detection output unchanged\n", rr.Name, loc)
		case rr.Unviolable:
			fmt.Fprintf(&b, "rule %s%s: unviolable (∅ ⊨ φ) — dead weight, minimization disabled\n", rr.Name, loc)
		case rr.Satisfiable == reason.No && r.Core == nil:
			fmt.Fprintf(&b, "rule %s%s: pattern cannot be materialized in any model of Σ\n", rr.Name, loc)
		case rr.Implied == reason.Yes && r.Core == nil:
			by := rr.ImpliedBy
			if by == "" {
				by = "Σ∖{φ}"
			}
			fmt.Fprintf(&b, "rule %s%s: implied by %s (kept: violations carry rule identity)\n", rr.Name, loc, by)
		}
	}
	return b.String()
}

// SlowestProbe returns the rule whose probes took the longest (nil for an
// empty Σ).
func (r *Report) SlowestProbe() *RuleReport {
	var slow *RuleReport
	for i := range r.Rules {
		if slow == nil || r.Rules[i].ProbeMS > slow.ProbeMS {
			slow = &r.Rules[i]
		}
	}
	return slow
}

// MinimizeUnviolable drops exactly the rules φ with ∅ ⊨ φ — the
// Vio-preserving fragment of minimization: an unviolable rule contributes
// no violation in any graph, so Vio(Σ∖{φ}, G) = Vio(Σ, G) for every G. It
// returns the minimized set (set itself when nothing drops) plus the
// dropped names in Σ order. This is the light-weight entry the session
// runs at construction; the full Analyze triage is the serve/CLI gate.
// Probes that fail or exhaust their budget keep the rule (conservative).
func MinimizeUnviolable(set *core.Set) (*core.Set, []string) {
	empty := core.NewSet()
	var dropped []string
	out := core.NewSet()
	for _, r := range set.Rules {
		v, err := reason.Implies(empty, r, reason.Options{})
		if err == nil && v == reason.Yes {
			dropped = append(dropped, r.Name)
			continue
		}
		out.Add(r)
	}
	if len(dropped) == 0 {
		return set, nil
	}
	return out, dropped
}

// Analyze runs the full pass over Σ.
func Analyze(set *core.Set, opts Options) *Report {
	start := time.Now()
	rep := &Report{
		Signature: Signature(set),
		NumRules:  len(set.Rules),
		Rules:     make([]RuleReport, len(set.Rules)),
	}
	for i, rule := range set.Rules {
		rep.Rules[i] = RuleReport{Name: rule.Name, Line: opts.Lines[rule.Name]}
	}
	spent := make([]time.Duration, len(set.Rules)) // each rule's probe wall time
	defer func() {
		for i := range rep.Rules {
			rep.Rules[i].ProbeMS = millis(spent[i])
		}
	}()

	// the deadline counts from start: one already past is closed here, so
	// no stage can decide before a timer gets round to firing
	var ropts reason.Options
	if opts.Timeout > 0 {
		done := make(chan struct{})
		if left := opts.Timeout - time.Since(start); left > 0 {
			defer time.AfterFunc(left, func() { close(done) }).Stop()
		} else {
			close(done)
		}
		ropts.Done = done
	}

	// Stage 1: satisfiability triage. Per-rule pattern probes against the
	// whole set run in parallel; Satisfiable(Σ) is their disjunction.
	// StronglySatisfiable runs as one extra unit of the same pool.
	type probe struct {
		v   reason.Verdict
		err error
	}
	probes := make([]probe, len(set.Rules)+1)
	runParallel(len(probes), func(i int) {
		if i == len(set.Rules) {
			v, err := reason.StronglySatisfiable(set, ropts)
			probes[i] = probe{v, err}
			return
		}
		began := time.Now()
		v, err := reason.PatternConsistent(set, set.Rules[i], ropts)
		probes[i] = probe{v, err}
		spent[i] = time.Since(began)
	})
	sat := reason.No
	for i := range set.Rules {
		p := probes[i]
		if p.err != nil {
			rep.Rules[i].Err = p.err.Error()
			rep.Rules[i].Satisfiable = reason.Unknown
			if rep.Err == "" {
				rep.Err = p.err.Error()
			}
			sat = reason.Unknown
			continue
		}
		rep.Rules[i].Satisfiable = p.v
		switch p.v {
		case reason.Yes:
			sat = reason.Yes
		case reason.Unknown:
			if sat == reason.No {
				sat = reason.Unknown
			}
		}
	}
	if len(set.Rules) > 0 && sat == reason.Yes {
		// any Yes wins even if another probe was Unknown
		rep.Satisfiable = reason.Yes
	} else {
		rep.Satisfiable = sat
	}
	strong := probes[len(set.Rules)]
	if strong.err != nil {
		rep.StronglySatisfiable = reason.Unknown
	} else {
		rep.StronglySatisfiable = strong.v
	}
	if rep.Err != "" {
		rep.ElapsedMS = time.Since(start).Milliseconds()
		return rep
	}

	switch {
	case rep.Unsat():
		rep.Core = extractCore(set, ropts, opts.Lines)
	case rep.Satisfiable == reason.Yes:
		minimize(set, rep, spent, ropts, opts)
	}
	rep.ElapsedMS = time.Since(start).Milliseconds()
	return rep
}

// millis renders d in milliseconds, to the microsecond.
func millis(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}

// runParallel executes fn(0..n-1) on up to GOMAXPROCS goroutines.
func runParallel(n int, fn func(int)) {
	par := min(runtime.GOMAXPROCS(0), n)
	if par <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// extractCore shrinks an unsatisfiable Σ to a minimal conflicting subset by
// deletion: drop φ whenever Σ′∖{φ} stays unsatisfiable. Probes that return
// Unknown keep their rule and mark the core non-minimal.
func extractCore(set *core.Set, ropts reason.Options, lines map[string]int) *UnsatCore {
	kept := append([]*core.NGD(nil), set.Rules...)
	minimal := true
	for i := 0; i < len(kept); {
		if len(kept) == 1 {
			break // a single self-contradictory rule is its own core
		}
		cand := core.NewSet(append(append([]*core.NGD(nil), kept[:i]...), kept[i+1:]...)...)
		v, err := reason.Satisfiable(cand, ropts)
		switch {
		case err == nil && v == reason.No:
			kept = append(kept[:i], kept[i+1:]...) // still unsat without it: not needed
		case err == nil && v == reason.Yes:
			i++ // needed for the conflict
		default:
			minimal = false
			i++
		}
	}
	c := &UnsatCore{Minimal: minimal}
	for _, r := range kept {
		c.Rules = append(c.Rules, r.Name)
		c.Literals = append(c.Literals, renderDependency(r, lines))
	}
	c.Literals = append(c.Literals, groundWitnesses(kept)...)
	return c
}

// renderDependency prints rule φ as "name (line N): X → Y".
func renderDependency(r *core.NGD, lines map[string]int) string {
	var b strings.Builder
	b.WriteString(r.Name)
	if n := lines[r.Name]; n > 0 {
		fmt.Fprintf(&b, " (line %d)", n)
	}
	b.WriteString(": ")
	if len(r.X) == 0 {
		b.WriteString("∅")
	}
	for i, l := range r.X {
		if i > 0 {
			b.WriteString(" ∧ ")
		}
		b.WriteString(l.String())
	}
	b.WriteString(" → ")
	for i, l := range r.Y {
		if i > 0 {
			b.WriteString(" ∧ ")
		}
		b.WriteString(l.String())
	}
	return b.String()
}

// groundWitnesses attempts the cheap constant-propagation witness: when
// every core rule is an unconditional single-node rule, x.A = c consequences
// bind attributes, and any other literal that closes under the substitution
// and evaluates false is rendered with the constants in place — the paper's
// "7 + 7 ≠ 11" style explanation for Example 5.
func groundWitnesses(rules []*core.NGD) []string {
	for _, r := range rules {
		if len(r.Pattern.Nodes) != 1 || len(r.X) != 0 {
			return nil
		}
	}
	// collect x.A = c bindings by attribute
	bind := map[string]int64{}
	for _, r := range rules {
		for _, l := range r.Y {
			if l.Op != expr.Eq {
				continue
			}
			switch {
			case l.L.Op == expr.OpVar && l.R.Op == expr.OpConst:
				bind[l.L.Attr] = l.R.Const
			case l.R.Op == expr.OpVar && l.L.Op == expr.OpConst:
				bind[l.R.Attr] = l.L.Const
			}
		}
	}
	if len(bind) == 0 {
		return nil
	}
	var out []string
	for _, r := range rules {
		for _, l := range r.Y {
			ls, okL := substitute(l.L, bind)
			rs, okR := substitute(l.R, bind)
			if !okL || !okR || (ground(l.L) && ground(l.R)) {
				continue // open terms remain, or nothing was substituted
			}
			// ground: Compare never consults the binding
			holds, err := expr.Compare(ls, l.Op, rs, nil)
			if err == nil && !holds {
				out = append(out, fmt.Sprintf("witness: %s fails under %s",
					expr.FormatComparison(ls, l.Op, rs), l))
			}
		}
	}
	return out
}

// substitute replaces bound x.A terms with constants; ok is false when an
// unbound term remains (the result would not be ground).
func substitute(e *expr.Expr, bind map[string]int64) (*expr.Expr, bool) {
	switch e.Op {
	case expr.OpVar:
		c, ok := bind[e.Attr]
		if !ok {
			return e, false
		}
		return expr.C(c), true
	case expr.OpConst, expr.OpStr:
		return e, true
	}
	c := e.Clone()
	okL, okR := true, true
	if e.L != nil {
		c.L, okL = substitute(e.L, bind)
	}
	if e.R != nil {
		c.R, okR = substitute(e.R, bind)
	}
	return c, okL && okR
}

// ground reports whether e contains no x.A terms.
func ground(e *expr.Expr) bool {
	open := false
	e.Terms(func(string, string) { open = true })
	return !open
}

// minimize runs stage 3 on a satisfiable Σ: parallel unviolability and
// implication probes, whose wall time it adds to spent, then the drop
// decision.
func minimize(set *core.Set, rep *Report, spent []time.Duration, ropts reason.Options, opts Options) {
	empty := core.NewSet()
	runParallel(len(set.Rules), func(i int) {
		began := time.Now()
		r, rr := set.Rules[i], &rep.Rules[i]
		uv, err := reason.Implies(empty, r, ropts)
		rr.Unviolable = err == nil && uv == reason.Yes
		im, by, err := reason.ImpliedBy(without(set, i), r, ropts)
		if err != nil {
			im = reason.Unknown
		}
		rr.Implied, rr.ImpliedBy = im, name(by)
		spent[i] += time.Since(began)
	})

	// Drop decision: unviolable rules only (Vio-preserving for every G).
	if opts.NoMinimize {
		return
	}
	for i := range set.Rules {
		if rep.Rules[i].Unviolable {
			rep.Rules[i].Dropped = true
			rep.Dropped = append(rep.Dropped, set.Rules[i].Name)
		}
	}
}

// name returns r's name, or "" for nil.
func name(r *core.NGD) string {
	if r == nil {
		return ""
	}
	return r.Name
}

// without returns Σ∖{rules[i]}.
func without(set *core.Set, i int) *core.Set {
	out := core.NewSet()
	for j, r := range set.Rules {
		if j != i {
			out.Add(r)
		}
	}
	return out
}
