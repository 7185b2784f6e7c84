// Package simdet enforces the repo's bit-for-bit determinism
// invariant: the discrete-event simulator, generators and workload
// synthesis must produce identical output for identical seeds, since
// the paper's scheduler comparisons (Figures 8-12) subtract one run's
// numbers from another's. Wall-clock reads, the process-global
// math/rand source, and anything a map-range body does in iteration
// order all break that property.
package simdet

import (
	"go/ast"
	"go/token"
	"go/types"

	"subtrav/internal/analysis"
)

// Analyzer flags nondeterminism sources in deterministic packages.
var Analyzer = &analysis.Analyzer{
	Name: "simdet",
	Doc: "flags wall-clock time (time.Now/Since/Until), the process-global " +
		"math/rand source, and order-dependent work inside a map range (calls, " +
		"unsorted appends, sends, float accumulation) in packages that must stay " +
		"bit-for-bit deterministic; use the simulator's virtual clock, " +
		"internal/xrand and sorted keys instead",
	Run: run,
}

// wallClockFuncs are time-package functions that read the wall clock.
// Construction helpers (time.Date, time.Unix) and arithmetic are fine.
var wallClockFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// globalRandOK lists math/rand package-level functions that do NOT
// touch the shared global source; everything else at package level
// does (Intn, Float64, Perm, Shuffle, Seed, Read, ...).
var globalRandOK = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.BlockStmt:
				checkMapRanges(pass, n.List)
			case *ast.CaseClause:
				checkMapRanges(pass, n.Body)
			case *ast.CommClause:
				checkMapRanges(pass, n.Body)
			}
			return true
		})
	}
	return nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := pass.Callee(call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	pkg, name := fn.Pkg().Path(), fn.Name()
	switch {
	case pkg == "time" && fn.Type().(*types.Signature).Recv() == nil && wallClockFuncs[name]:
		pass.Reportf(call.Pos(),
			"wall-clock time.%s in deterministic code; use the simulator's virtual clock (sim event time / signature.Clock)", name)
	case (pkg == "math/rand" || pkg == "math/rand/v2") &&
		fn.Type().(*types.Signature).Recv() == nil && !globalRandOK[name]:
		pass.Reportf(call.Pos(),
			"global %s.%s draws from the process-wide source; use a seeded internal/xrand.RNG", pkg, name)
	}
}

// checkMapRanges checks every range over a map in one statement list
// against the statements that follow it.
func checkMapRanges(pass *analysis.Pass, list []ast.Stmt) {
	for i, s := range list {
		for {
			l, ok := s.(*ast.LabeledStmt)
			if !ok {
				break
			}
			s = l.Stmt
		}
		if rng, ok := s.(*ast.RangeStmt); ok && isMap(pass, rng.X) {
			checkMapRange(pass, rng, list[i+1:])
		}
	}
}

func isMap(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// sortFuncs put their first argument, a slice, in a fixed order.
var sortFuncs = map[string]bool{
	"sort.Strings": true, "sort.Ints": true, "sort.Float64s": true,
	"sort.Slice": true, "sort.SliceStable": true,
	"slices.Sort": true, "slices.SortFunc": true, "slices.SortStableFunc": true,
}

// checkMapRange reports what a map-range body does in iteration order,
// which Go randomizes, so its effect differs between two runs of one
// seed. The body may aggregate — assign, write a map, do integer
// arithmetic, call builtins and conversions — and may append to a
// slice that the statements after the loop sort (the collect, sort,
// emit idiom). It may not call anything else: a trace record, an edge
// insert or a print each replays the randomized order, and PR 5's
// CollabFilter and graphgen's Barabási-Albert generator each leaked
// map order that way. Nor may it send on a channel, or accumulate
// floats, whose low bits depend on the order of the additions.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt, after []ast.Stmt) {
	sorted := map[string]bool{}
	for _, s := range after {
		ast.Inspect(s, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && len(call.Args) > 0 {
				if fn := pass.Callee(call); fn != nil && fn.Pkg() != nil && sortFuncs[fn.Pkg().Path()+"."+fn.Name()] {
					sorted[types.ExprString(call.Args[0])] = true
				}
			}
			return true
		})
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A closure is not necessarily called during iteration.
			return false
		case *ast.RangeStmt:
			// A nested map range is checked on its own.
			return !isMap(pass, n.X)
		case *ast.SendStmt:
			pass.Reportf(n.Pos(),
				"channel send during map iteration: map order is randomized, so delivery order is nondeterministic; collect and sort first")
			return false
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				if isFloat(pass.TypesInfo.TypeOf(n.Lhs[0])) {
					pass.Reportf(n.Pos(),
						"floating-point %s during map iteration: the result's low bits depend on randomized map order; accumulate over sorted keys", n.Tok)
				}
			}
		case *ast.CallExpr:
			if tv, ok := pass.TypesInfo.Types[n.Fun]; ok && tv.IsType() {
				return true // conversion
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
					if b.Name() == "append" && len(n.Args) > 0 && !sorted[types.ExprString(n.Args[0])] {
						pass.Reportf(n.Pos(),
							"append to %s during map iteration builds it in randomized map order; sort it after the loop or iterate sorted keys",
							types.ExprString(n.Args[0]))
					}
					return true
				}
			}
			pass.Reportf(n.Pos(),
				"call to %s during map iteration runs in randomized map order; collect the keys, sort them, then iterate",
				types.ExprString(n.Fun))
			return false
		}
		return true
	})
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}
