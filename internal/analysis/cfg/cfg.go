// Package cfg builds intra-function control-flow graphs over
// go/ast statement lists and runs forward dataflow analyses over
// them. It is the flow-aware substrate under taintlen, the one
// subtrav-vet question a purely syntactic walk cannot answer: "is
// this value checked on every path before it reaches make".
//
// The graph is conventional: a function body is partitioned into
// basic blocks of straight-line statements; branch statements end a
// block and contribute edges (both arms of an if, loop back-edges and
// exits, every case of a switch/select, goto/labeled break/continue
// targets); return and panic edge to the synthetic Exit block. A
// `for` with no condition contributes only its back-edge, so code
// after an escape-free infinite loop is correctly unreachable, and a
// `select {}` with no cases has no successors at all. Deferred calls
// are recorded on the graph and replayed as the Exit block's
// statements, so a forward analysis observes them with the join of
// every terminating path as input — exactly the state a real defer
// runs under.
//
// Like the parent analysis package, this is a dependency-free
// miniature of golang.org/x/tools/go/cfg (plus the solver x/tools
// leaves to the caller); the shape matches so a later migration is
// mechanical.
package cfg

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"strings"
)

// Graph is the control-flow graph of one function body.
type Graph struct {
	// Blocks in creation order; Blocks[0] is Entry. The Exit block is
	// always present and always last-created (but not necessarily
	// last in a traversal).
	Blocks []*Block
	Entry  *Block
	Exit   *Block
	// Defers lists every defer statement encountered, in source
	// order. Their call expressions are also the Exit block's Stmts.
	Defers []*ast.DeferStmt
}

// Block is one basic block.
type Block struct {
	Index int
	// Kind names what created the block ("entry", "exit", "if.then",
	// "for.body", "select.comm", ...) for debugging and test pinning.
	Kind string
	// Stmts are the straight-line statements executed in order.
	// Branch statements themselves are not included; their condition
	// lives in Cond.
	Stmts []ast.Stmt
	// Cond is the branch condition evaluated at the end of this
	// block, if it ends in a conditional branch (if / for cond).
	// Successor 0 is the true edge, successor 1 the false edge.
	Cond ast.Expr
	// Succs are the control-flow successors.
	Succs []*Block
	// Preds are the control-flow predecessors.
	Preds []*Block
}

func (g *Graph) newBlock(kind string) *Block {
	b := &Block{Index: len(g.Blocks), Kind: kind}
	g.Blocks = append(g.Blocks, b)
	return b
}

func addEdge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// loopFrame is one enclosing breakable/continuable construct.
type loopFrame struct {
	label          string // enclosing label, "" if none
	breakTarget    *Block
	continueTarget *Block // nil for switch/select frames
}

type builder struct {
	g   *Graph
	cur *Block // nil while code is unreachable
	// frames is the stack of enclosing break/continue targets.
	frames []loopFrame
	// labels maps label names to their goto target blocks (created
	// lazily, so forward gotos resolve).
	labels map[string]*Block
}

// New builds the control-flow graph of a function body. A nil body
// (declaration without body) yields a two-block entry→exit graph.
func New(body *ast.BlockStmt) *Graph {
	g := &Graph{}
	b := &builder{g: g, labels: map[string]*Block{}}
	g.Entry = g.newBlock("entry")
	g.Exit = g.newBlock("exit")
	b.cur = g.Entry
	if body != nil {
		b.stmts(body.List, "")
	}
	// Falling off the end of the body reaches exit.
	addEdge(b.cur, g.Exit)
	for _, d := range g.Defers {
		g.Exit.Stmts = append(g.Exit.Stmts, &ast.ExprStmt{X: d.Call})
	}
	return g
}

// block ensures there is a current block to append to, creating a
// fresh unreachable one if control cannot reach here (so statements
// after a return still land in *some* block; it just has no preds).
func (b *builder) block(kind string) *Block {
	if b.cur == nil {
		b.cur = b.g.newBlock(kind + ".unreachable")
	}
	return b.cur
}

func (b *builder) stmts(list []ast.Stmt, label string) {
	for i, s := range list {
		// Only the first statement of the list can consume the label
		// (a label binds to exactly one statement).
		if i > 0 {
			label = ""
		}
		b.stmt(s, label)
	}
}

func (b *builder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.LabeledStmt:
		// Create (or claim) the label's target block so gotos can
		// jump here, then build the labeled statement with the label
		// visible to its break/continue frames.
		target := b.labelBlock(s.Label.Name)
		addEdge(b.cur, target)
		b.cur = target
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.ReturnStmt:
		b.block("return").Stmts = append(b.block("return").Stmts, s)
		addEdge(b.cur, b.g.Exit)
		b.cur = nil

	case *ast.BranchStmt:
		switch s.Tok {
		case token.GOTO:
			addEdge(b.cur, b.labelBlock(s.Label.Name))
			b.cur = nil
		case token.BREAK:
			if t := b.findFrame(s.Label, false); t != nil {
				addEdge(b.cur, t)
			}
			b.cur = nil
		case token.CONTINUE:
			if t := b.findFrame(s.Label, true); t != nil {
				addEdge(b.cur, t)
			}
			b.cur = nil
		case token.FALLTHROUGH:
			// Keep the current block alive; the switch builder links
			// it to the next case body.
		}

	case *ast.DeferStmt:
		b.g.Defers = append(b.g.Defers, s)
		cur := b.block("body")
		cur.Stmts = append(cur.Stmts, s)

	case *ast.ExprStmt:
		cur := b.block("body")
		cur.Stmts = append(cur.Stmts, s)
		if isPanicOrExit(s.X) {
			addEdge(b.cur, b.g.Exit)
			b.cur = nil
		}

	case *ast.IfStmt:
		cur := b.block("if")
		if s.Init != nil {
			cur.Stmts = append(cur.Stmts, s.Init)
		}
		cur.Cond = s.Cond
		then := b.g.newBlock("if.then")
		addEdge(cur, then)
		var els *Block
		if s.Else != nil {
			els = b.g.newBlock("if.else")
			addEdge(cur, els)
		}
		join := b.g.newBlock("if.join")
		if s.Else == nil {
			addEdge(cur, join)
		}
		b.cur = then
		b.stmts(s.Body.List, "")
		addEdge(b.cur, join)
		if els != nil {
			b.cur = els
			b.stmt(s.Else, "")
			addEdge(b.cur, join)
		}
		b.cur = join
		if len(join.Preds) == 0 {
			// Both arms diverge; anything after is unreachable.
			b.cur = nil
		}

	case *ast.ForStmt:
		if s.Init != nil {
			b.block("for").Stmts = append(b.block("for").Stmts, s.Init)
		}
		head := b.g.newBlock("for.head")
		addEdge(b.cur, head)
		body := b.g.newBlock("for.body")
		exit := b.g.newBlock("for.exit")
		post := head
		if s.Post != nil {
			post = b.g.newBlock("for.post")
			post.Stmts = append(post.Stmts, s.Post)
			addEdge(post, head)
		}
		head.Cond = s.Cond
		addEdge(head, body)
		if s.Cond != nil {
			addEdge(head, exit)
		}
		b.frames = append(b.frames, loopFrame{label: label, breakTarget: exit, continueTarget: post})
		b.cur = body
		b.stmts(s.Body.List, "")
		addEdge(b.cur, post)
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = exit
		if len(exit.Preds) == 0 {
			b.cur = nil // for {} with no break: nothing follows
		}

	case *ast.RangeStmt:
		head := b.g.newBlock("range.head")
		// The ranged expression is evaluated once on entry; surface
		// it (and the key/value assignment) to analyses as a
		// synthetic statement in the head block.
		head.Stmts = append(head.Stmts, s)
		addEdge(b.cur, head)
		body := b.g.newBlock("range.body")
		exit := b.g.newBlock("range.exit")
		// A range loop always has a natural exit edge: the sequence
		// ends (or, for a channel, the channel is closed).
		addEdge(head, body)
		addEdge(head, exit)
		b.frames = append(b.frames, loopFrame{label: label, breakTarget: exit, continueTarget: head})
		b.cur = body
		b.stmts(s.Body.List, "")
		addEdge(b.cur, head)
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = exit

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		var init ast.Stmt
		var clauses []ast.Stmt
		kind := "switch"
		var tagStmt ast.Stmt
		switch sw := s.(type) {
		case *ast.SwitchStmt:
			init = sw.Init
			if sw.Tag != nil {
				// Record tag evaluation as a synthetic statement.
				tagStmt = &ast.ExprStmt{X: sw.Tag}
			}
			clauses = sw.Body.List
		case *ast.TypeSwitchStmt:
			init = sw.Init
			tagStmt = sw.Assign
			clauses = sw.Body.List
			kind = "typeswitch"
		}
		head := b.block(kind)
		if init != nil {
			head.Stmts = append(head.Stmts, init)
		}
		if tagStmt != nil {
			head.Stmts = append(head.Stmts, tagStmt)
		}
		exit := b.g.newBlock(kind + ".exit")
		b.frames = append(b.frames, loopFrame{label: label, breakTarget: exit})
		hasDefault := false
		var bodies []*Block
		var ends []*Block // end-block of each case body (for fallthrough)
		var falls []bool
		for _, c := range clauses {
			cc := c.(*ast.CaseClause)
			if cc.List == nil {
				hasDefault = true
			}
			body := b.g.newBlock(kind + ".case")
			addEdge(head, body)
			b.cur = body
			b.stmts(cc.Body, "")
			bodies = append(bodies, body)
			falls = append(falls, endsInFallthrough(cc.Body))
			ends = append(ends, b.cur)
			if endsInFallthrough(cc.Body) {
				// Linked to the next case body below, not to exit.
			} else {
				addEdge(b.cur, exit)
			}
			b.cur = nil
		}
		// fallthrough links each case's end to the next case body.
		for i := range bodies {
			if falls[i] && i+1 < len(bodies) {
				addEdge(ends[i], bodies[i+1])
			}
		}
		if !hasDefault {
			addEdge(head, exit)
		}
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = exit
		if len(exit.Preds) == 0 {
			b.cur = nil // every case diverges and a default exists
		}

	case *ast.SelectStmt:
		head := b.block("select")
		exit := b.g.newBlock("select.exit")
		b.frames = append(b.frames, loopFrame{label: label, breakTarget: exit})
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			body := b.g.newBlock("select.comm")
			if cc.Comm != nil {
				body.Stmts = append(body.Stmts, cc.Comm)
			}
			addEdge(head, body)
			b.cur = body
			b.stmts(cc.Body, "")
			addEdge(b.cur, exit)
			b.cur = nil
		}
		// A select with no cases blocks forever: head keeps zero
		// successors and exit stays unreachable.
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = exit
		if len(exit.Preds) == 0 {
			b.cur = nil
		}

	case *ast.BlockStmt:
		b.stmts(s.List, "")

	case *ast.GoStmt:
		// The spawned body is a separate function; the go statement
		// itself is straight-line.
		b.block("body").Stmts = append(b.block("body").Stmts, s)

	default:
		// Assignments, declarations, sends, inc/dec, empty...
		b.block("body").Stmts = append(b.block("body").Stmts, s)
	}
}

// labelBlock returns (creating on first reference) the block a label
// names, so forward and backward gotos both resolve.
func (b *builder) labelBlock(name string) *Block {
	if t, ok := b.labels[name]; ok {
		return t
	}
	t := b.g.newBlock("label." + name)
	b.labels[name] = t
	return t
}

// findFrame resolves break/continue (optionally labeled) to a target.
func (b *builder) findFrame(label *ast.Ident, isContinue bool) *Block {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := b.frames[i]
		if isContinue && f.continueTarget == nil {
			continue // switch/select frames do not catch continue
		}
		if label != nil && f.label != label.Name {
			continue
		}
		if isContinue {
			return f.continueTarget
		}
		return f.breakTarget
	}
	return nil
}

// isPanicOrExit reports whether the expression is a call that never
// returns: the panic builtin, os.Exit, runtime.Goexit, or
// (log.*).Fatal*. Resolution is syntactic — the cfg package has no
// type information — which is fine for the diverging calls that
// matter here.
func isPanicOrExit(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			switch {
			case x.Name == "os" && fun.Sel.Name == "Exit":
				return true
			case x.Name == "runtime" && fun.Sel.Name == "Goexit":
				return true
			case strings.HasPrefix(fun.Sel.Name, "Fatal"):
				return true
			}
		}
	}
	return false
}

func endsInFallthrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

// ReversePostorder returns the blocks reachable from Entry in reverse
// postorder — the order a forward dataflow worklist converges
// fastest in. Unreachable blocks are not included.
func (g *Graph) ReversePostorder() []*Block {
	seen := make([]bool, len(g.Blocks))
	var post []*Block
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b.Index] = true
		// Visiting successors last-to-first makes the reversed
		// postorder walk Succs[0] chains first — the natural
		// source-order rendering (then before else, body before
		// loop exit) — while remaining a valid reverse postorder.
		for i := len(b.Succs) - 1; i >= 0; i-- {
			if s := b.Succs[i]; !seen[s.Index] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(g.Entry)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// String renders the reachable graph in a compact deterministic form
// for test pinning: one line per block in reverse postorder,
//
//	b0 entry → b2
//	b2 for.head [i < n] → b3 b4
//
// with Cond in brackets and statements summarized by go/printer.
func (g *Graph) String() string {
	return g.render(nil)
}

// StringWithStmts renders like String but includes each block's
// statements, printed through fset when non-nil.
func (g *Graph) StringWithStmts(fset *token.FileSet) string {
	if fset == nil {
		fset = token.NewFileSet()
	}
	return g.render(fset)
}

func (g *Graph) render(fset *token.FileSet) string {
	var sb strings.Builder
	for _, b := range g.ReversePostorder() {
		fmt.Fprintf(&sb, "b%d %s", b.Index, b.Kind)
		if fset != nil {
			for _, s := range b.Stmts {
				fmt.Fprintf(&sb, " {%s}", printNode(fset, s))
			}
		}
		if b.Cond != nil {
			cf := fset
			if cf == nil {
				cf = token.NewFileSet()
			}
			fmt.Fprintf(&sb, " [%s]", printNode(cf, b.Cond))
		}
		if len(b.Succs) > 0 {
			sb.WriteString(" ->")
			for _, s := range b.Succs {
				fmt.Fprintf(&sb, " b%d", s.Index)
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

func printNode(fset *token.FileSet, n ast.Node) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, n); err != nil {
		return fmt.Sprintf("<%T>", n)
	}
	s := strings.Join(strings.Fields(buf.String()), " ")
	if len(s) > 40 {
		s = s[:37] + "..."
	}
	return s
}
