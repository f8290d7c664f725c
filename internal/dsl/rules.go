// Package dsl implements the textual formats of the library: a rule file
// format for NGDs and a line-oriented graph/update format, so rule sets and
// datasets can live outside Go code (cmd/ngdcheck, cmd/ngdgen consume them).
//
// Rule syntax (one or more rules per file; '#' outside a string literal
// starts a comment):
//
//	rule phi1 {
//	  match {
//	    x: _
//	    y: date
//	    z: date
//	    x -wasCreatedOnDate-> y
//	    x -wasDestroyedOnDate-> z
//	  }
//	  when {
//	    # X literals, one per line (may be empty)
//	  }
//	  then {
//	    z.val - y.val >= 365
//	  }
//	}
//
// Rule names are unique within a file and hold no ':' — a violation is
// identified by name:id:id… (core.Violation.Key), and the keyed violation
// store needs those identities distinct.
package dsl

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"ngd/internal/core"
	"ngd/internal/pattern"
)

// ParseRules reads a rule file.
func ParseRules(r io.Reader) (*core.Set, error) {
	set, _, err := ParseRulesLocated(r)
	return set, err
}

// ParseRulesLocated reads a rule file and additionally returns the source
// line number of each rule's header, keyed by rule name — the analysis gate
// attaches them to its diagnostics so an operator can jump to the offending
// rule.
func ParseRulesLocated(r io.Reader) (*core.Set, map[string]int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	set := core.NewSet()
	lines := make(map[string]int)
	line := 0

	next := func() (string, bool) {
		for sc.Scan() {
			line++
			s := strings.TrimSpace(stripComment(sc.Text()))
			if s == "" {
				continue
			}
			return s, true
		}
		return "", false
	}

	for {
		s, ok := next()
		if !ok {
			break
		}
		name, err := parseRuleHeader(s, line)
		if err != nil {
			return nil, nil, err
		}
		if first, dup := lines[name]; dup {
			// violation keys start with the rule name: two rules of one name
			// would share every key and the keyed store would hold one
			// violation where Dect reports two
			return nil, nil, fmt.Errorf("dsl: line %d: duplicate rule name %q (first declared at line %d)", line, name, first)
		}
		lines[name] = line
		rule, err := parseRuleBody(name, next, &line)
		if err != nil {
			return nil, nil, err
		}
		set.Add(rule)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return set, lines, nil
}

// stripComment cuts s at its first '#' outside a "…" string literal, whose
// escapes are those strconv.Quote writes (FormatRules renders string
// constants with it).
func stripComment(s string) string {
	quoted := false
	for i := 0; i < len(s); i++ {
		switch {
		case quoted && s[i] == '\\':
			i++ // the escaped byte cannot close the literal
		case s[i] == '"':
			quoted = !quoted
		case s[i] == '#' && !quoted:
			return s[:i]
		}
	}
	return s
}

func parseRuleHeader(s string, line int) (string, error) {
	fields := strings.Fields(s)
	if len(fields) != 3 || fields[0] != "rule" || fields[2] != "{" {
		return "", fmt.Errorf("dsl: line %d: expected `rule <name> {`, got %q", line, s)
	}
	if strings.Contains(fields[1], ":") {
		return "", fmt.Errorf("dsl: line %d: rule name %q contains ':' (the separator of violation keys, name:id:id…)", line, fields[1])
	}
	return fields[1], nil
}

func parseRuleBody(name string, next func() (string, bool), line *int) (*core.NGD, error) {
	p := pattern.New()
	var xLits, yLits []core.Literal
	section := ""
	for {
		s, ok := next()
		if !ok {
			return nil, fmt.Errorf("dsl: rule %s: unexpected EOF", name)
		}
		switch {
		case s == "}":
			if section == "" {
				// end of rule
				rule, err := core.New(name, p, xLits, yLits)
				if err != nil {
					return nil, fmt.Errorf("dsl: line %d: %w", *line, err)
				}
				return rule, nil
			}
			section = ""
		case strings.HasSuffix(s, "{"):
			section = strings.TrimSpace(strings.TrimSuffix(s, "{"))
			switch section {
			case "match", "when", "then":
			default:
				return nil, fmt.Errorf("dsl: line %d: unknown section %q", *line, section)
			}
		default:
			switch section {
			case "match":
				if err := parsePatternLine(p, s); err != nil {
					return nil, fmt.Errorf("dsl: line %d: %w", *line, err)
				}
			case "when", "then":
				lit, err := core.ParseLiteral(s)
				if err != nil {
					return nil, fmt.Errorf("dsl: line %d: %w", *line, err)
				}
				if section == "when" {
					xLits = append(xLits, lit)
				} else {
					yLits = append(yLits, lit)
				}
			default:
				return nil, fmt.Errorf("dsl: line %d: statement outside a section: %q", *line, s)
			}
		}
	}
}

// parsePatternLine handles "x: label" node declarations and
// "x -label-> y" edges.
func parsePatternLine(p *pattern.Pattern, s string) error {
	if i := strings.Index(s, "->"); i >= 0 {
		// x -label-> y
		left := strings.TrimSpace(s[:i])
		dst := strings.TrimSpace(s[i+2:])
		j := strings.Index(left, "-")
		if j < 0 {
			return fmt.Errorf("dsl: bad edge %q (want `x -label-> y`)", s)
		}
		src := strings.TrimSpace(left[:j])
		label := strings.TrimSpace(left[j+1:])
		if src == "" || label == "" || dst == "" {
			return fmt.Errorf("dsl: bad edge %q", s)
		}
		si := p.VarIndex(src)
		di := p.VarIndex(dst)
		if si < 0 {
			return fmt.Errorf("dsl: edge %q references undeclared variable %q", s, src)
		}
		if di < 0 {
			return fmt.Errorf("dsl: edge %q references undeclared variable %q", s, dst)
		}
		p.AddEdge(si, di, label)
		return nil
	}
	i := strings.IndexByte(s, ':')
	if i < 0 {
		return fmt.Errorf("dsl: bad pattern line %q (want `x: label` or `x -label-> y`)", s)
	}
	v := strings.TrimSpace(s[:i])
	label := strings.TrimSpace(s[i+1:])
	if v == "" || label == "" {
		return fmt.Errorf("dsl: bad node declaration %q", s)
	}
	if p.VarIndex(v) >= 0 {
		return fmt.Errorf("dsl: duplicate variable %q", v)
	}
	p.AddNode(v, label)
	return nil
}

// FormatRules renders a rule set in the file format (re-parseable).
func FormatRules(set *core.Set) string {
	var b strings.Builder
	for _, r := range set.Rules {
		fmt.Fprintf(&b, "rule %s {\n  match {\n", r.Name)
		for _, n := range r.Pattern.Nodes {
			fmt.Fprintf(&b, "    %s: %s\n", n.Var, n.Label)
		}
		for _, e := range r.Pattern.Edges {
			fmt.Fprintf(&b, "    %s -%s-> %s\n",
				r.Pattern.Nodes[e.Src].Var, e.Label, r.Pattern.Nodes[e.Dst].Var)
		}
		b.WriteString("  }\n  when {\n")
		for _, l := range r.X {
			fmt.Fprintf(&b, "    %s\n", l)
		}
		b.WriteString("  }\n  then {\n")
		for _, l := range r.Y {
			fmt.Fprintf(&b, "    %s\n", l)
		}
		b.WriteString("  }\n}\n")
	}
	return b.String()
}
