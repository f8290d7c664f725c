// Package ngd is a Go implementation of numeric graph dependencies (NGDs)
// from Fan, Liu, Lu, Tian: "Catching Numeric Inconsistencies in Graphs"
// (SIGMOD 2018) — graph data-quality rules that combine a graph pattern,
// matched by homomorphism, with an attribute dependency X → Y over linear
// arithmetic expressions and comparison predicates.
//
// The package provides:
//
//   - attributed directed graphs and batch updates ΔG (edge insertions and
//     deletions);
//   - NGD rules, parsed from a text DSL or built programmatically;
//   - batch violation detection (Dect), parallel batch detection (PDect),
//     incremental detection (IncDect) and parallel scalable incremental
//     detection with hybrid workload balancing (PIncDect);
//   - a shared rule-program layer (NewProgram): Σ compiled once, cost-based
//     matching plans cached with churn-driven invalidation, and overlapping
//     rules merged into shared matching prefixes, amortizing the planning
//     preamble across detector invocations;
//   - continuous detection sessions that commit ΔG in place and keep the
//     violation store live across batches (NewSession);
//   - a serving layer over sessions (Serve): snapshot-isolated concurrent
//     reads, coalescing asynchronous update ingestion, and an HTTP API
//     (the ngdserve daemon);
//   - the static analyses: satisfiability, strong satisfiability and
//     implication, with exact integer arithmetic;
//   - workload generators reproducing the paper's evaluation setup.
//
// Quick start:
//
//	g := ngd.NewGraph()
//	v := g.AddNode("place")
//	g.SetAttr(v, "population", ngd.Int(160000))
//	...
//	rules, _ := ngd.ParseRules(strings.NewReader(ruleText))
//	res := ngd.Detect(g, rules)
//	for _, vio := range res.Violations { fmt.Println(vio) }
package ngd

import (
	"io"

	"ngd/internal/analyze"
	"ngd/internal/core"
	"ngd/internal/detect"
	"ngd/internal/dsl"
	"ngd/internal/graph"
	"ngd/internal/inc"
	"ngd/internal/par"
	"ngd/internal/pattern"
	"ngd/internal/plan"
	"ngd/internal/reason"
	"ngd/internal/repair"
	"ngd/internal/serve"
	"ngd/internal/session"
	"ngd/internal/store"
)

// Re-exported core types. The aliases expose the full method sets of the
// internal implementations as the public API.
type (
	// Graph is a directed graph with labeled nodes/edges and per-node
	// attribute tuples (paper §2).
	Graph = graph.Graph
	// View is a read-only graph view (a *Graph).
	View = graph.View
	// NodeID identifies a node.
	NodeID = graph.NodeID
	// Value is an attribute value (int, string, bool).
	Value = graph.Value
	// Delta is a batch update ΔG of edge insertions/deletions (§5.2).
	Delta = graph.Delta
	// Pattern is a graph pattern Q[x̄] with wildcard support (§2).
	Pattern = pattern.Pattern
	// Rule is an NGD Q[x̄](X → Y) (§3).
	Rule = core.NGD
	// RuleSet is a set Σ of NGDs.
	RuleSet = core.Set
	// Literal is a comparison e₁ ⊗ e₂ between arithmetic expressions.
	Literal = core.Literal
	// Match is an instantiation h(x̄) of a pattern in a graph.
	Match = core.Match
	// Violation is a match violating a rule: h ⊨ X but h ⊭ Y (§5.1).
	Violation = core.Violation
	// DeltaVio is the incremental answer (ΔVio⁺, ΔVio⁻) (§5.2).
	DeltaVio = inc.DeltaVio
	// ParallelOptions configure PDect / PIncDect (§6.3): worker count,
	// the latency parameter C, balancing interval, and the hybrid
	// strategy toggles.
	ParallelOptions = par.Options
	// ParallelMetrics report the simulated makespan in cost units, total
	// work, splits and balancing moves.
	ParallelMetrics = par.Metrics
	// Session is a continuous detection session: it owns a graph, commits
	// batch updates in place, and keeps the violation store Vio(Σ, G) live
	// by reconciling incremental answers (internal/session).
	Session = session.Session
	// SessionOptions configure a session (admission analysis, plan-cache
	// threshold).
	SessionOptions = session.Options
	// BatchStats report what one session commit did (coalescing, commit
	// effects, ΔVio sizes, detection cost, store size).
	BatchStats = session.BatchStats
	// Snapshot is an immutable, consistent view of a session at one commit
	// epoch: the violation store sorted by canonical key. Snapshots are
	// copy-on-write, so concurrent readers are never blocked by a commit.
	Snapshot = session.Snapshot
	// Server is the concurrency-safe serving layer over a session: a
	// single writer coalescing queued updates into commits, many readers
	// on atomically published snapshots, and an HTTP API (internal/serve;
	// cmd/ngdserve is the daemon around it).
	Server = serve.Server
	// ServeOptions configure a Server (ingest queue depth, external node
	// ids).
	ServeOptions = serve.Options
	// ServerStats summarize a running Server (epoch, store size, commit
	// and coalescing counters).
	ServerStats = serve.Stats
	// UpdateOp is the serving layer's wire-format update operation (edge
	// insert/delete, or a new node arriving with attributes).
	UpdateOp = serve.UpdateOp
	// Ack is the handle Server.Enqueue returns: Done() is closed when the
	// ops' batch has committed, and Epoch() then reports the exact commit
	// epoch that contained it (recorded at commit time, never a later one).
	Ack = serve.Ack
	// CommitEvent is one commit's reconciled violation delta — the store's
	// records of ΔVio⁺ and ΔVio⁻ in key order, carried on BatchStats.Event
	// and streamed to feed subscribers.
	CommitEvent = session.CommitEvent
	// FeedEvent is one change-feed event: a committed epoch's CommitEvent,
	// whose wire payload (GET /feed on the HTTP API) JSON renders on first
	// use.
	FeedEvent = serve.FeedEvent
	// FeedSub is a live change-feed subscription (Server.Subscribe):
	// events arrive on C in epoch order; when C closes, Err says whether
	// the subscriber was evicted for falling behind.
	FeedSub = serve.FeedSub
	// RepairResult is the ranked candidate-fix list the repair engine
	// produces for one stored violation (internal/repair): solver-backed
	// minimal attribute reassignments and match-breaking edge deletions,
	// each previewed on a fork of the graph for cross-violation clearance.
	RepairResult = repair.Result
	// RepairFix is one candidate fix with its previewed consequences
	// (cleared and introduced violation keys, perturbation, rank score).
	RepairFix = repair.Fix
	// RepairOptions configure fix enumeration (the ranked-list cap and the
	// deadline, a Done channel in Solver).
	RepairOptions = repair.Options
	// RepairApplied reports an applied fix: the commit epoch it landed in
	// and the store size after (Server.ApplyRepair, POST /repair/apply).
	RepairApplied = serve.ApplyResult
	// Program is the shared rule-program layer (internal/plan): Σ compiled
	// once, cost-based matching plans cached with churn invalidation, and
	// overlapping rules arranged into shared matching prefixes. Sessions
	// build one automatically; hand-built Programs (NewProgram) amortize
	// planning across repeated one-shot detector calls.
	Program = plan.Program
	// PlanOptions configure a Program (the plan-cache churn threshold).
	PlanOptions = plan.Options
	// PlanCounters snapshot a Program's plan-cache activity (hits, misses,
	// invalidations, shared-prefix rules); also surfaced per batch in
	// BatchStats and cumulatively under the server's /stats endpoint.
	PlanCounters = plan.Counters
	// Store makes a serving session durable: a versioned binary snapshot
	// of the whole session state plus a CRC-checked write-ahead log of
	// update batches, with crash recovery proportional to the WAL suffix
	// (internal/store; cmd/ngdserve -data wires it into the daemon).
	Store = store.Store
	// StoreOptions configure a Store (checkpoint cadence, WAL fsync
	// policy, the session options recovery restores with).
	StoreOptions = store.Options
	// StoreStats summarize a Store (sequence numbers, batches and bytes
	// logged, checkpoints completed).
	StoreStats = store.Stats
	// Recovered reports what Open reconstructed from a data directory: the
	// restored session, rules, external-id map, and the recovery costs
	// (snapshot load vs. WAL replay).
	Recovered = store.Recovered
)

// Value constructors.
var (
	// Int wraps an integer attribute value.
	Int = graph.Int
	// Str wraps a string attribute value.
	Str = graph.Str
	// Bool wraps a boolean attribute value (0/1 in arithmetic).
	Bool = graph.Bool
)

// NewGraph returns an empty graph.
func NewGraph() *Graph { return graph.New() }

// NewPattern returns an empty pattern; add nodes with AddNode(var, label)
// ("_" is the wildcard) and edges with AddEdge.
func NewPattern() *Pattern { return pattern.New() }

// MustRule validates and builds an NGD, panicking on error. Every literal
// must be linear (Theorem 3) and reference pattern variables only.
func MustRule(name string, q *Pattern, when, then []Literal) *Rule {
	return core.MustNew(name, q, when, then)
}

// NewRuleSet bundles rules into a Σ.
func NewRuleSet(rules ...*Rule) *RuleSet { return core.NewSet(rules...) }

// MustLiteral parses "e1 <= e2" style text into a literal, panicking on
// error.
func MustLiteral(src string) Literal { return core.MustLiteral(src) }

// ParseRules reads the rule-file DSL (see package documentation of
// internal/dsl for the grammar).
func ParseRules(r io.Reader) (*RuleSet, error) { return dsl.ParseRules(r) }

// ParseRulesLocated additionally returns each rule's source line (by name)
// for analysis diagnostics.
func ParseRulesLocated(r io.Reader) (*RuleSet, map[string]int, error) {
	return dsl.ParseRulesLocated(r)
}

// FormatRules renders a rule set in the DSL (re-parseable).
func FormatRules(set *RuleSet) string { return dsl.FormatRules(set) }

// LoadGraph reads the line-oriented graph format; it returns the graph and
// the textual-id → NodeID mapping.
func LoadGraph(r io.Reader) (*Graph, map[string]NodeID, error) { return dsl.LoadGraph(r) }

// WriteGraph renders a graph in the text format.
func WriteGraph(w io.Writer, g *Graph) error { return dsl.WriteGraph(w, g) }

// LoadDelta reads an update file against g (new nodes are added to g).
func LoadDelta(r io.Reader, g *Graph, ids map[string]NodeID) (*Delta, error) {
	return dsl.LoadDelta(r, g, ids)
}

// Result of a batch detection run.
type Result struct {
	// Violations is Vio(Σ, G): every match violating some rule.
	Violations []Violation
}

// Detect computes Vio(Σ, G) with the sequential batch algorithm (Dect).
func Detect(g View, rules *RuleSet) *Result {
	r := detect.Dect(g, rules, detect.Options{})
	return &Result{Violations: r.Violations}
}

// NewProgram compiles Σ once into a shared, reusable rule program over g's
// symbol table. Pass it to DetectWith to amortize compilation, cost-based
// planning and cross-rule prefix sharing across repeated detection runs;
// sessions (NewSession/Serve) build and reuse one internally, so serving
// batches never pay the per-call planning preamble.
func NewProgram(g View, rules *RuleSet, opts PlanOptions) *Program {
	return plan.New(g, rules, opts)
}

// DetectWith is Detect planning through a shared Program (limit 0 =
// unlimited).
func DetectWith(g View, rules *RuleSet, prog *Program, limit int) *Result {
	r := detect.Dect(g, rules, detect.Options{Limit: limit, Program: prog})
	return &Result{Violations: r.Violations}
}

// DetectLimit is Detect stopping after limit violations.
func DetectLimit(g View, rules *RuleSet, limit int) *Result {
	r := detect.Dect(g, rules, detect.Options{Limit: limit})
	return &Result{Violations: r.Violations}
}

// Validate decides G ⊨ Σ (the validation problem; coNP-complete,
// Corollary 4 — this implementation enumerates matches with literal-based
// pruning).
func Validate(g View, rules *RuleSet) bool { return detect.Validate(g, rules) }

// IncDetect computes ΔVio(Σ, G, ΔG) incrementally with the localizable
// algorithm IncDect (§6.2). g is the pre-update graph and is not mutated;
// apply the delta afterwards with delta.Apply(g) if desired.
func IncDetect(g *Graph, rules *RuleSet, delta *Delta) *DeltaVio {
	r := inc.IncDect(g, rules, delta, inc.Options{})
	return &r.DeltaVio
}

// PDetect computes Vio(Σ, G) with the parallel batch algorithm.
func PDetect(g View, rules *RuleSet, opts ParallelOptions) (*Result, ParallelMetrics) {
	r := par.PDect(g, rules, opts)
	return &Result{Violations: r.Violations}, r.Metrics
}

// PIncDetect computes ΔVio(Σ, G, ΔG) with PIncDect, the parallel scalable
// incremental algorithm with hybrid workload balancing (§6.3).
func PIncDetect(g *Graph, rules *RuleSet, delta *Delta, opts ParallelOptions) (*DeltaVio, ParallelMetrics) {
	r := par.PIncDect(g, rules, delta, opts)
	return &r.Delta, r.Metrics
}

// Parallel returns the default hybrid parallel configuration for p
// workers. PDetect and PIncDetect run it as a deterministic virtual-time
// simulation of p processors: the answers are exact and the makespan is
// reported in machine-independent cost units.
func Parallel(p int) ParallelOptions { return par.Hybrid(p) }

// NewSession opens a continuous detection session over g: the store seeds
// from a full batch run, then each Commit(delta) coalesces ΔG, detects
// incrementally, commits the update into g in place, and reconciles the
// live store — which always equals Detect(g, rules).Violations.
func NewSession(g *Graph, rules *RuleSet, opts SessionOptions) *Session {
	return session.New(g, rules, opts)
}

// Serve starts the serving layer over a session: a writer goroutine that
// owns the session, coalesces queued updates into single commits, and
// atomically publishes immutable store snapshots (with secondary indexes
// by rule and by node) for lock-free concurrent reads. Wire it to HTTP
// with Server.Handler, push updates with Server.Enqueue, subscribe to the
// violation change feed with Server.Subscribe, read with Server.Snapshot,
// stop with Server.Close. The session (and its graph) must not be used
// directly afterwards.
func Serve(sess *Session, opts ServeOptions) *Server {
	return serve.New(sess, opts)
}

// Open opens (creating if necessary) a durable data directory. When it
// holds a recoverable state, the returned Recovered carries a session
// restored to exactly the pre-crash state: newest snapshot loaded, WAL
// suffix replayed (a torn final record is truncated away). On a fresh
// directory Recovered is nil: open a session with NewSession and attach it
// with Store.Bootstrap, which snapshots the seeded state and starts
// write-ahead logging every subsequent commit. Wire the store into the
// serving layer via ServeOptions.OnNewNode = Store.NoteName and a
// ServeOptions.AfterCommit callback invoking Store.MaybeCheckpoint.
func Open(dir string, opts StoreOptions) (*Store, *Recovered, error) {
	return store.Open(dir, opts)
}

// Checkpoint synchronously captures the attached session's current state
// into a new durable snapshot and prunes the WAL segments it covers. Call
// it from the goroutine owning the session (or after Server.Close).
func Checkpoint(st *Store) error { return st.Checkpoint() }

// Verdict is the three-valued answer of the static analyses.
type Verdict = reason.Verdict

// Verdict values.
const (
	// No: unsatisfiable / not implied.
	No = reason.No
	// Yes: satisfiable / implied.
	Yes = reason.Yes
	// Unknown: the analysis budget was exhausted.
	Unknown = reason.Unknown
)

// Satisfiable decides whether Σ has a model in which some pattern matches
// (Σp2-complete, Theorem 1; non-linear rules are rejected per Theorem 3).
func Satisfiable(rules *RuleSet) (Verdict, error) {
	return reason.Satisfiable(rules, reason.Options{})
}

// StronglySatisfiable decides whether Σ has a model in which every pattern
// matches.
func StronglySatisfiable(rules *RuleSet) (Verdict, error) {
	return reason.StronglySatisfiable(rules, reason.Options{})
}

// Implies decides Σ ⊨ φ (Πp2-complete, Theorem 1).
func Implies(rules *RuleSet, phi *Rule) (Verdict, error) {
	return reason.Implies(rules, phi, reason.Options{})
}

// AnalysisOptions configure the Σ admission analysis (wall-clock timeout,
// minimization toggles, rule source lines for diagnostics); the search
// budgets are fixed.
type AnalysisOptions = analyze.Options

// AnalysisReport is the structured result of the Σ admission analysis:
// whole-set and per-rule satisfiability, the minimal unsat core when Σ is
// unsatisfiable, implication flags and the minimization drop list. It is
// the JSON document GET /rules/analysis serves.
type AnalysisReport = analyze.Report

// RuleAnalysis is one rule's triage entry in an AnalysisReport.
type RuleAnalysis = analyze.RuleReport

// UnsatCore is a minimal conflicting subset of an unsatisfiable Σ, with
// its literals rendered for diagnostics.
type UnsatCore = analyze.UnsatCore

// AnalyzeMode selects how a caller acts on an AnalysisReport (off, warn,
// strict); parse flag values with ParseAnalyzeMode.
type AnalyzeMode = analyze.Mode

// Analyze modes.
const (
	AnalyzeOff    = analyze.ModeOff
	AnalyzeWarn   = analyze.ModeWarn
	AnalyzeStrict = analyze.ModeStrict
)

// ParseAnalyzeMode parses "off", "warn" or "strict".
func ParseAnalyzeMode(s string) (AnalyzeMode, error) { return analyze.ParseMode(s) }

// AnalyzeRules runs the full Σ admission analysis: satisfiability triage,
// unsat-core extraction and implication-based minimization.
func AnalyzeRules(rules *RuleSet, opts AnalysisOptions) *AnalysisReport {
	return analyze.Analyze(rules, opts)
}

// MinimizeRules drops exactly the unviolable rules of Σ (∅ ⊨ φ) — the
// Vio-preserving fragment of minimization: detection output is identical
// on every graph. It returns the minimized set and the dropped names.
func MinimizeRules(rules *RuleSet) (*RuleSet, []string) {
	return analyze.MinimizeUnviolable(rules)
}

// RulesSignature is the canonical Σ identity (sha256 over the DSL
// rendering) that analysis reports and the serving layer's cache key on.
func RulesSignature(rules *RuleSet) string { return analyze.Signature(rules) }
