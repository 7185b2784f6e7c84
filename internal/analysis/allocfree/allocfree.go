// Package allocfree enforces the zero-steady-state-allocation
// discipline in functions marked with a `//vet:hotpath` doc comment.
// The traversal kernels (internal/traverse's Workspace methods) run
// millions of times per second under the balance-affinity benchmark;
// a single allocation per call turns the GC into the bottleneck the
// workspace layer exists to avoid, and nothing but review discipline
// kept it that way before this analyzer.
//
// Inside a marked function the analyzer flags every construct that
// allocates on each call:
//
//   - make and new (fresh backing array / map / pointee every call)
//   - slice, map, and &T{} composite literals
//   - append without reuse evidence — accepted evidence is the
//     self-append form `x = append(x, ...)` (amortized growth into
//     the same variable) or a `buf[:0]` first argument (explicit
//     reuse of retained capacity)
//   - function literals (closures capture to the heap)
//   - fmt calls (formatting boxes operands) and strings.Builder
//     growth methods
//   - string <-> []byte / []rune conversions (copy on every call)
//   - boxing: a non-constant value converted to an interface type —
//     as a call argument, in an assignment, a return or a composite
//     literal element, or by an explicit conversion — is copied to the
//     heap by runtime.convT on every call (heap.Push(&h, e) on a
//     struct, views[i] = view{...} into a []Interface). Values that
//     live in the interface word itself are excused: pointers,
//     channels, maps, funcs, unsafe.Pointer; so are zero-size values,
//     constants, and interface-to-interface conversions
//
// Intentional amortized growth — a ring buffer doubling — is excused
// with `//lint:allow allocfree <amortization argument>`, which keeps
// the argument in the source next to the allocation it defends.
package allocfree

import (
	"go/ast"
	"go/types"
	"strings"

	"subtrav/internal/analysis"
)

// marker is the doc-comment line that opts a function into the
// discipline.
const marker = "//vet:hotpath"

// Analyzer reports per-call allocations in //vet:hotpath functions.
var Analyzer = &analysis.Analyzer{
	Name: "allocfree",
	Doc: "reports per-call allocations (make/new, composite literals, " +
		"append without reuse evidence, closures, fmt, strings.Builder " +
		"growth, string conversions, boxing into an interface) inside " +
		"functions whose doc comment carries //vet:hotpath",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotpath(fd) {
				continue
			}
			var results *types.Tuple
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				results = fn.Type().(*types.Signature).Results()
			}
			checkBody(pass, fd.Body, results)
		}
	}
	return nil
}

func isHotpath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == marker {
			return true
		}
	}
	return false
}

// checkBody walks one hot-path body; results is the function's result
// tuple, against which its return statements are checked for boxing.
func checkBody(pass *analysis.Pass, body *ast.BlockStmt, results *types.Tuple) {
	// First pass: collect append calls with self-assign evidence
	// (`x = append(x, ...)`, compared by printed form, so field and
	// index targets work too).
	selfAssigned := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isBuiltin(pass, call, "append") || len(call.Args) == 0 {
				continue
			}
			if types.ExprString(as.Lhs[i]) == types.ExprString(call.Args[0]) {
				selfAssigned[call] = true
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(),
				"hot path allocates: closure captures escape to the heap; hoist the function value out of the hot path or pass state explicitly")
			return false
		case *ast.UnaryExpr:
			if cl, ok := n.X.(*ast.CompositeLit); ok {
				pass.Reportf(n.Pos(),
					"hot path allocates: &%s{...} heap-allocates a fresh value each call; reuse a workspace field",
					types.ExprString(cl.Type))
				return false
			}
		case *ast.CompositeLit:
			t := pass.TypesInfo.TypeOf(n)
			if t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					pass.Reportf(n.Pos(),
						"hot path allocates: composite literal builds a fresh %s each call; reuse a workspace buffer",
						t.Underlying().String())
				}
				checkLiteralBoxing(pass, n, t)
			}
		case *ast.CallExpr:
			if !checkCall(pass, n, selfAssigned) {
				checkCallBoxing(pass, n)
			}
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, rhs := range n.Rhs {
					checkBoxing(pass, pass.TypesInfo.TypeOf(n.Lhs[i]), rhs)
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil && len(n.Names) == len(n.Values) {
				for _, v := range n.Values {
					checkBoxing(pass, pass.TypesInfo.TypeOf(n.Type), v)
				}
			}
		case *ast.ReturnStmt:
			// Function literals are reported and skipped above, so
			// every return seen here is the marked function's own.
			if results != nil && len(n.Results) == results.Len() {
				for i, r := range n.Results {
					checkBoxing(pass, results.At(i).Type(), r)
				}
			}
		}
		return true
	})
}

// checkBoxing reports e when storing it in a variable of type target
// converts a concrete value to an interface by copying it to the heap.
func checkBoxing(pass *analysis.Pass, target types.Type, e ast.Expr) {
	if target == nil || !isInterface(target) {
		return
	}
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil || tv.Value != nil || tv.IsNil() {
		return // untyped nil and constants live in read-only data
	}
	if _, generic := tv.Type.(*types.TypeParam); generic || isInterface(tv.Type) ||
		pointerShaped(tv.Type) || zeroSize(tv.Type) {
		return
	}
	pass.Reportf(e.Pos(),
		"hot path allocates: %s is boxed into %s — converting a non-pointer value to an interface copies it to the heap on every call (runtime.convT); hand over a pointer to retained storage, or keep the value behind its concrete type",
		types.TypeString(tv.Type, types.RelativeTo(pass.Pkg)), types.TypeString(target, types.RelativeTo(pass.Pkg)))
}

// isInterface excludes type parameters, whose underlying type is their
// constraint interface but which box nothing.
func isInterface(t types.Type) bool {
	if _, generic := t.(*types.TypeParam); generic {
		return false
	}
	return types.IsInterface(t)
}

// pointerShaped reports whether a value of type t is stored directly
// in an interface's data word: a single pointer, or a one-field struct
// or one-element array of such.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	case *types.Struct:
		return u.NumFields() == 1 && pointerShaped(u.Field(0).Type())
	case *types.Array:
		return u.Len() == 1 && pointerShaped(u.Elem())
	}
	return false
}

// zeroSize reports whether a value of type t occupies no memory, so
// that boxing it has nothing to copy.
func zeroSize(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if !zeroSize(u.Field(i).Type()) {
				return false
			}
		}
		return true
	case *types.Array:
		return u.Len() == 0 || zeroSize(u.Elem())
	}
	return false
}

// checkCallBoxing checks a call's arguments against its parameter
// types, and an explicit conversion's operand against its target.
func checkCallBoxing(pass *analysis.Pass, call *ast.CallExpr) {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok {
		return
	}
	if tv.IsType() {
		if len(call.Args) == 1 {
			checkBoxing(pass, tv.Type, call.Args[0])
		}
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var target types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // f(xs...) passes the slice through
			}
			target = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			target = params.At(i).Type()
		default:
			return // f(g()) with a multi-value g
		}
		checkBoxing(pass, target, arg)
	}
}

// checkLiteralBoxing checks a composite literal's elements against the
// field, element and key types they initialize.
func checkLiteralBoxing(pass *analysis.Pass, lit *ast.CompositeLit, t types.Type) {
	for i, elt := range lit.Elts {
		kv, keyed := elt.(*ast.KeyValueExpr)
		val := elt
		if keyed {
			val = kv.Value
		}
		switch u := t.Underlying().(type) {
		case *types.Struct:
			if !keyed {
				if i < u.NumFields() {
					checkBoxing(pass, u.Field(i).Type(), val)
				}
				continue
			}
			if id, ok := kv.Key.(*ast.Ident); ok {
				if f, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
					checkBoxing(pass, f.Type(), val)
				}
			}
		case *types.Slice:
			checkBoxing(pass, u.Elem(), val)
		case *types.Array:
			checkBoxing(pass, u.Elem(), val)
		case *types.Map:
			if keyed {
				checkBoxing(pass, u.Key(), kv.Key)
			}
			checkBoxing(pass, u.Elem(), val)
		}
	}
}

// checkCall reports a call that allocates by what it calls, and
// whether it did: one finding a call is enough.
func checkCall(pass *analysis.Pass, call *ast.CallExpr, selfAssigned map[*ast.CallExpr]bool) (reported bool) {
	// Builtins.
	switch {
	case isBuiltin(pass, call, "make"):
		pass.Reportf(call.Pos(),
			"hot path allocates: make creates a fresh backing store on every call; reuse a workspace buffer, or //lint:allow allocfree with the amortization argument if growth is intentional")
		return true
	case isBuiltin(pass, call, "new"):
		pass.Reportf(call.Pos(),
			"hot path allocates: new heap-allocates on every call; reuse a workspace field")
		return true
	case isBuiltin(pass, call, "append"):
		if selfAssigned[call] || (len(call.Args) > 0 && isResliceToZero(call.Args[0])) {
			return false
		}
		pass.Reportf(call.Pos(),
			"hot path append without reuse evidence: result is not assigned back to its first argument and the first argument is not a [:0] reslice, so growth abandons the old backing array each call")
		return true
	}

	// Conversions: string <-> []byte/[]rune copy.
	if convertsStringBytes(pass, call) {
		pass.Reportf(call.Pos(),
			"hot path allocates: string/byte-slice conversion copies its data on every call; keep one representation across the hot path")
		return true
	}

	// fmt and strings.Builder growth.
	if fn := pass.Callee(call); fn != nil && fn.Pkg() != nil {
		if fn.Pkg().Path() == "fmt" {
			pass.Reportf(call.Pos(),
				"hot path calls fmt.%s: formatting boxes its operands and allocates; record raw values and format off the hot path", fn.Name())
			return true
		}
		if isBuilderGrowth(fn) {
			pass.Reportf(call.Pos(),
				"hot path grows a strings.Builder: its internal buffer reallocates as it fills; build strings off the hot path or into a reused byte slice")
			return true
		}
	}
	return false
}

func isBuiltin(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// isResliceToZero matches buf[:0] (and buf[0:0]): reuse of retained
// capacity, the workspace idiom.
func isResliceToZero(e ast.Expr) bool {
	se, ok := ast.Unparen(e).(*ast.SliceExpr)
	if !ok || se.Slice3 {
		return false
	}
	if se.Low != nil && !isZeroLit(se.Low) {
		return false
	}
	return se.High != nil && isZeroLit(se.High)
}

func isZeroLit(e ast.Expr) bool {
	bl, ok := e.(*ast.BasicLit)
	return ok && bl.Value == "0"
}

// convertsStringBytes reports whether call is a conversion between
// string and []byte / []rune.
func convertsStringBytes(pass *analysis.Pass, call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() {
		return false
	}
	src := pass.TypesInfo.TypeOf(call.Args[0])
	if src == nil {
		return false
	}
	return (isStringType(tv.Type) && isByteOrRuneSlice(src)) ||
		(isByteOrRuneSlice(tv.Type) && isStringType(src))
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune)
}

// isBuilderGrowth matches the strings.Builder methods that can grow
// its buffer.
func isBuilderGrowth(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "strings" || obj.Name() != "Builder" {
		return false
	}
	switch fn.Name() {
	case "Write", "WriteString", "WriteByte", "WriteRune", "Grow":
		return true
	}
	return false
}
