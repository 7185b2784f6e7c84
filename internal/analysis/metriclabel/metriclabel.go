// Package metriclabel vets internal/obs registry call sites: metric
// names must be compile-time constants following the repo convention
// (subtrav_ prefix, Prometheus-safe characters, counters end in
// _total, no reserved exposition suffixes), and label values must not
// be derived from unbounded domains. A label minted per query ID —
// or per iteration of an unbounded loop — creates a new series per
// value, which grows the registry without bound and turns every
// scrape into a full walk of it: an unbounded-cardinality leak, the
// classic way an observability layer takes down the system it
// observes.
package metriclabel

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
	"strings"

	"subtrav/internal/analysis"
)

// Analyzer checks obs metric names and label cardinality.
var Analyzer = &analysis.Analyzer{
	Name: "metriclabel",
	Doc: "checks internal/obs registry call sites: constant subtrav_-prefixed " +
		"metric names (counters ending _total, no reserved suffixes), constant " +
		"label keys, and label values not derived from query/task IDs or " +
		"loop variables (unbounded cardinality)",
	Run: run,
}

const obsPath = "subtrav/internal/obs"

// registryMethods maps *obs.Registry method names to whether the
// family is a counter (name must end in _total).
var registryMethods = map[string]bool{
	"Counter":           true,
	"CounterFunc":       true,
	"Gauge":             false,
	"GaugeFunc":         false,
	"FloatGauge":        false,
	"Histogram":         false,
	"RegisterHistogram": false,
}

var (
	nameRE = regexp.MustCompile(`^subtrav_[a-z0-9_]+$`)
	keyRE  = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
	// unboundedRef matches identifiers/selectors that smell like
	// per-query or per-task identity: queryID, q.QueryID, taskID,
	// req.ID, qid... Tenant and user identity (tenantName, userID)
	// counts too: clients mint those freely, so a label fed straight
	// from one grows the registry without bound — fold through a
	// capped bucket table first (see sim.Admission.Tenant). The unit
	// index (u.id, bounded by the unit count) deliberately does not
	// match.
	unboundedRef = regexp.MustCompile(`(?i)(query|task|request|req)[a-zA-Z_]*id|\bqid\b|(?i)(tenant|user)[a-zA-Z_]*(id|name)\b`)
)

// reservedSuffixes collide with the histogram exposition series the
// registry itself emits.
var reservedSuffixes = []string{"_bucket", "_sum", "_count"}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		// Track the stack of enclosing for/range statements so label
		// values referencing a loop variable can be flagged.
		var loops []ast.Stmt
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				loops = append(loops, n.(ast.Stmt))
				for _, c := range children(n) {
					ast.Inspect(c, visit)
				}
				loops = loops[:len(loops)-1]
				return false
			case *ast.CallExpr:
				checkCall(pass, n, loops)
			}
			return true
		}
		ast.Inspect(file, visit)
	}
	return nil
}

// children returns the loop's body and clause nodes for traversal.
func children(n ast.Node) []ast.Node {
	switch n := n.(type) {
	case *ast.ForStmt:
		out := []ast.Node{}
		if n.Init != nil {
			out = append(out, n.Init)
		}
		if n.Cond != nil {
			out = append(out, n.Cond)
		}
		if n.Post != nil {
			out = append(out, n.Post)
		}
		return append(out, n.Body)
	case *ast.RangeStmt:
		return []ast.Node{n.X, n.Body}
	}
	return nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr, loops []ast.Stmt) {
	fn := pass.Callee(call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != obsPath {
		return
	}
	if fn.Name() == "L" {
		checkLabelPair(pass, call, loops)
		return
	}
	isCounter, isRegistry := registryMethods[fn.Name()]
	if !isRegistry || !isRegistryMethod(fn) || len(call.Args) == 0 {
		return
	}
	checkName(pass, call.Args[0], fn.Name(), isCounter)
}

func isRegistryMethod(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Registry"
}

func checkName(pass *analysis.Pass, arg ast.Expr, method string, isCounter bool) {
	tv, ok := pass.TypesInfo.Types[arg]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		pass.Reportf(arg.Pos(),
			"metric name passed to Registry.%s is not a compile-time constant; dynamic names create unbounded metric families", method)
		return
	}
	name := constant.StringVal(tv.Value)
	if !nameRE.MatchString(name) {
		pass.Reportf(arg.Pos(),
			"metric name %q violates the naming convention %s", name, nameRE)
		return
	}
	for _, suf := range reservedSuffixes {
		if strings.HasSuffix(name, suf) {
			pass.Reportf(arg.Pos(),
				"metric name %q ends in %q, which the exposition format reserves for histogram series", name, suf)
			return
		}
	}
	if isCounter && !strings.HasSuffix(name, "_total") {
		pass.Reportf(arg.Pos(), "counter %q must end in _total", name)
	}
	if !isCounter && strings.HasSuffix(name, "_total") {
		pass.Reportf(arg.Pos(), "non-counter %q must not end in _total", name)
	}
}

// checkLabelPair vets one obs.L(key, value) construction.
func checkLabelPair(pass *analysis.Pass, call *ast.CallExpr, loops []ast.Stmt) {
	if len(call.Args) != 2 {
		return
	}
	keyArg, valArg := call.Args[0], call.Args[1]

	if tv, ok := pass.TypesInfo.Types[keyArg]; !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		pass.Reportf(keyArg.Pos(), "label key is not a compile-time constant")
	} else if key := constant.StringVal(tv.Value); !keyRE.MatchString(key) {
		pass.Reportf(keyArg.Pos(), "label key %q violates the naming convention %s", key, keyRE)
	}

	// A constant value is always bounded.
	if tv, ok := pass.TypesInfo.Types[valArg]; ok && tv.Value != nil {
		return
	}
	// Heuristic 1: the value's text references per-query identity.
	if ref := unboundedExprRef(valArg); ref != "" {
		pass.Reportf(valArg.Pos(),
			"label value derives from %q: one series per query/task is unbounded cardinality; aggregate into a histogram or drop the label", ref)
		return
	}
	// Heuristic 2: the value references a surrounding loop's
	// variable — one series per iteration.
	if len(loops) > 0 {
		if v := loopVarRef(pass, valArg, loops); v != "" {
			pass.Reportf(valArg.Pos(),
				"label value derives from loop variable %q: series count grows with the iteration space; ensure the loop is bounded or drop the label", v)
		}
	}
}

// unboundedExprRef returns the first identifier path in e matching
// the per-query identity heuristic, or "".
func unboundedExprRef(e ast.Expr) string {
	found := ""
	ast.Inspect(e, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if s := types.ExprString(n); unboundedRef.MatchString(s) {
				found = s
				return false
			}
		case *ast.Ident:
			if unboundedRef.MatchString(n.Name) {
				found = n.Name
				return false
			}
		}
		return true
	})
	return found
}

// loopVarRef returns the name of a loop-declared variable referenced
// by e, or "".
func loopVarRef(pass *analysis.Pass, e ast.Expr, loops []ast.Stmt) string {
	loopVars := map[types.Object]bool{}
	collect := func(x ast.Expr) {
		if id, ok := x.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				loopVars[obj] = true
			}
		}
	}
	for _, l := range loops {
		switch l := l.(type) {
		case *ast.RangeStmt:
			collect(l.Key)
			collect(l.Value)
		case *ast.ForStmt:
			if init, ok := l.Init.(*ast.AssignStmt); ok {
				for _, lhs := range init.Lhs {
					collect(lhs)
				}
			}
		}
	}
	if len(loopVars) == 0 {
		return ""
	}
	found := ""
	ast.Inspect(e, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Uses[id]; obj != nil && loopVars[obj] {
				found = id.Name
			}
		}
		return true
	})
	return found
}
