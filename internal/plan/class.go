package plan

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"ngd/internal/core"
	"ngd/internal/expr"
	"ngd/internal/pattern"
)

// This file decides which rules are clones: one dependency under several
// names. Two rules are clones when they sit in the same (pattern, filters)
// group and have equal X and equal Y, each compared as the sorted list of
// its literals rendered with every variable renamed to its pattern node
// index. Renamed variables and reordered literals therefore still match;
// nothing looser does — not a differing constant, not a literal written
// twice, not an equivalent but differently written expression. Clones have
// the same matches and the same violating ones, so a detector may search a
// class once and report the result under every member's name.

// Class is one clone class of a rule set.
type Class struct {
	// C is the class's first member in the set: its plans, searchers and
	// pivot dedup serve the whole class.
	C *Compiled
	// Rules lists the members, in set order.
	Rules []*core.NGD
}

type classEntry struct {
	rules   []*core.NGD // the set's rules the classes were built from (validity token)
	classes []Class
	of      []int
}

// Classes partitions the rules of a set into clone classes, listed in order
// of their first member, and reports in of[i] the class of rules.Rules[i].
// It is memoized per set and rebuilt when the set's rules change; rules the
// program has not seen yet are absorbed, as by CompiledFor. The returned
// slices are shared: callers must not modify them.
func (p *Program) Classes(rules *core.Set) (classes []Class, of []int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.classes[rules]; ok && slices.Equal(e.rules, rules.Rules) {
		return e.classes, e.of
	}
	// keyed by set pointer like the forest memo, and reset the same way
	if len(p.classes) >= 16 {
		clear(p.classes)
	}
	e := &classEntry{rules: slices.Clone(rules.Rules), of: make([]int, len(rules.Rules))}
	at := make(map[int]int) // program class id -> index in e.classes
	for i, r := range rules.Rules {
		ri := p.addRuleLocked(r)
		k, ok := at[p.classOf[ri]]
		if !ok {
			k = len(e.classes)
			at[p.classOf[ri]] = k
			e.classes = append(e.classes, Class{C: p.compiled[ri]})
		}
		e.classes[k].Rules = append(e.classes[k].Rules, r)
		e.of[i] = k
	}
	p.classes[rules] = e
	return e.classes, e.of
}

// cloneKey extends a rule's group key with its X and Y, so that rules with
// equal clone keys are clones.
func cloneKey(groupKey string, r *core.NGD) string {
	return fmt.Sprintf("%s|%q->%q", groupKey, litKeys(r.X, r.Pattern), litKeys(r.Y, r.Pattern))
}

// litKeys renders each literal with its variables renamed to pattern node
// indices, sorted. A literal written twice stays twice.
func litKeys(lits []core.Literal, p *pattern.Pattern) []string {
	keys := make([]string, len(lits))
	for i, l := range lits {
		var b strings.Builder
		exprKey(&b, l.L, p)
		fmt.Fprintf(&b, "%d ", l.Op)
		exprKey(&b, l.R, p)
		keys[i] = b.String()
	}
	sort.Strings(keys)
	return keys
}

// exprKey writes e in prefix form: each operator's arity is fixed and every
// leaf is quoted or numeric, so the rendering is unambiguous whatever the
// attribute names and string constants hold.
func exprKey(b *strings.Builder, e *expr.Expr, p *pattern.Pattern) {
	switch e.Op {
	case expr.OpConst:
		fmt.Fprintf(b, "c%d ", e.Const)
	case expr.OpStr:
		fmt.Fprintf(b, "s%q ", e.Str)
	case expr.OpVar:
		fmt.Fprintf(b, "v%d%q ", p.VarIndex(e.Var), e.Attr)
	default:
		fmt.Fprintf(b, "o%d ", e.Op)
		if e.L != nil {
			exprKey(b, e.L, p)
		}
		if e.R != nil {
			exprKey(b, e.R, p)
		}
	}
}
