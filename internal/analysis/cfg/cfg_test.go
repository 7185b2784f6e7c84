package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// build parses src as a function body and builds its CFG.
func build(t *testing.T, body string) (*Graph, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	f, err := parser.ParseFile(fset, "f.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fd := f.Decls[0].(*ast.FuncDecl)
	return New(fd.Body), fset
}

// TestZoo pins the block graph of every control construct against a
// hand-drawn rendering. A change to the builder that moves an edge
// shows up as a diff here.
func TestZoo(t *testing.T) {
	cases := []struct {
		name, body, want string
	}{
		{
			name: "straightline",
			body: "x := 1\ny := x",
			want: `
b0 entry {x := 1} {y := x} -> b1
b1 exit
`,
		},
		{
			name: "if",
			body: "x := 1\nif x > 0 {\n x = 2\n}\nx = 3",
			want: `
b0 entry {x := 1} [x > 0] -> b2 b3
b2 if.then {x = 2} -> b3
b3 if.join {x = 3} -> b1
b1 exit
`,
		},
		{
			name: "ifelse_return",
			body: "if c() {\n return\n} else {\n x := 1\n _ = x\n}\ny := 2\n_ = y",
			want: `
b0 entry [c()] -> b2 b3
b2 if.then {return} -> b1
b3 if.else {x := 1} {_ = x} -> b4
b4 if.join {y := 2} {_ = y} -> b1
b1 exit
`,
		},
		{
			name: "both_arms_return",
			body: "if c() {\n return\n} else {\n return\n}\nx := 1\n_ = x",
			want: `
b0 entry [c()] -> b2 b3
b2 if.then {return} -> b1
b3 if.else {return} -> b1
b1 exit
`,
		},
		{
			name: "for_loop",
			body: "for i := 0; i < 10; i++ {\n use(i)\n}\ndone()",
			want: `
b0 entry {i := 0} -> b2
b2 for.head [i < 10] -> b3 b4
b3 for.body {use(i)} -> b5
b5 for.post {i++} -> b2
b4 for.exit {done()} -> b1
b1 exit
`,
		},
		{
			name: "infinite_for_no_break",
			body: "for {\n work()\n}",
			want: `
b0 entry -> b2
b2 for.head -> b3
b3 for.body {work()} -> b2
`,
		},
		{
			name: "infinite_for_with_break",
			body: "for {\n if done() {\n  break\n }\n work()\n}\nrest()",
			want: `
b0 entry -> b2
b2 for.head -> b3
b3 for.body [done()] -> b5 b6
b5 if.then -> b4
b4 for.exit {rest()} -> b1
b1 exit
b6 if.join {work()} -> b2
`,
		},
		{
			name: "range_loop",
			body: "for _, v := range xs {\n use(v)\n}\ndone()",
			want: `
b0 entry -> b2
b2 range.head {for _, v := range xs { use(v) }} -> b3 b4
b3 range.body {use(v)} -> b2
b4 range.exit {done()} -> b1
b1 exit
`,
		},
		{
			name: "continue_skips_rest",
			body: "for i := 0; i < n; i++ {\n if skip(i) {\n  continue\n }\n use(i)\n}",
			want: `
b0 entry {i := 0} -> b2
b2 for.head [i < n] -> b3 b4
b3 for.body [skip(i)] -> b6 b7
b6 if.then -> b5
b7 if.join {use(i)} -> b5
b5 for.post {i++} -> b2
b4 for.exit -> b1
b1 exit
`,
		},
		{
			name: "labeled_break",
			body: "outer:\nfor {\n for {\n  if done() {\n   break outer\n  }\n }\n}\nrest()",
			want: `
b0 entry -> b2
b2 label.outer -> b3
b3 for.head -> b4
b4 for.body -> b6
b6 for.head -> b7
b7 for.body [done()] -> b9 b10
b9 if.then -> b5
b5 for.exit {rest()} -> b1
b1 exit
b10 if.join -> b6
`,
		},
		{
			name: "switch_with_default",
			body: "switch x() {\ncase 1:\n a()\ncase 2:\n b()\ndefault:\n c()\n}\nrest()",
			want: `
b0 entry {x()} -> b3 b4 b5
b3 switch.case {a()} -> b2
b4 switch.case {b()} -> b2
b5 switch.case {c()} -> b2
b2 switch.exit {rest()} -> b1
b1 exit
`,
		},
		{
			name: "switch_no_default_falls_out",
			body: "switch x() {\ncase 1:\n a()\n}\nrest()",
			want: `
b0 entry {x()} -> b3 b2
b3 switch.case {a()} -> b2
b2 switch.exit {rest()} -> b1
b1 exit
`,
		},
		{
			name: "switch_fallthrough",
			body: "switch x() {\ncase 1:\n a()\n fallthrough\ncase 2:\n b()\n}",
			want: `
b0 entry {x()} -> b3 b4 b2
b3 switch.case {a()} -> b4
b4 switch.case {b()} -> b2
b2 switch.exit -> b1
b1 exit
`,
		},
		{
			name: "typeswitch",
			body: "switch v := y.(type) {\ncase int:\n use(v)\ndefault:\n other()\n}",
			want: `
b0 entry {v := y.(type)} -> b3 b4
b3 typeswitch.case {use(v)} -> b2
b4 typeswitch.case {other()} -> b2
b2 typeswitch.exit -> b1
b1 exit
`,
		},
		{
			name: "select_forever_with_return",
			body: "for {\n select {\n case <-ctx.Done():\n  return\n case v := <-ch:\n  use(v)\n }\n}",
			want: `
b0 entry -> b2
b2 for.head -> b3
b3 for.body -> b6 b7
b6 select.comm {<-ctx.Done()} {return} -> b1
b1 exit
b7 select.comm {v := <-ch} {use(v)} -> b5
b5 select.exit -> b2
`,
		},
		{
			name: "empty_select_blocks_forever",
			body: "prep()\nselect {}\nrest()",
			want: `
b0 entry {prep()}
`,
		},
		{
			name: "panic_diverges",
			body: "if bad() {\n panic(\"x\")\n}\nrest()",
			want: `
b0 entry [bad()] -> b2 b3
b2 if.then {panic(\"x\")} -> b1
b3 if.join {rest()} -> b1
b1 exit
`,
		},
		{
			name: "defer_lands_in_exit",
			body: "defer mu.Unlock()\nwork()",
			want: `
b0 entry {defer mu.Unlock()} {work()} -> b1
b1 exit {mu.Unlock()}
`,
		},
		{
			name: "goto_backward",
			body: "x := 0\nagain:\nx++\nif x < 3 {\n goto again\n}",
			want: `
b0 entry {x := 0} -> b2
b2 label.again {x++} [x < 3] -> b3 b4
b3 if.then -> b2
b4 if.join -> b1
b1 exit
`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, fset := build(t, tc.body)
			got := strings.TrimSpace(g.StringWithStmts(fset))
			want := strings.TrimSpace(strings.ReplaceAll(tc.want, `\"`, `"`))
			if got != want {
				t.Errorf("graph mismatch\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
		})
	}
}

// divergent reports whether some block reachable from Entry cannot
// reach Exit (reverse search over Preds from Exit).
func divergent(g *Graph) bool {
	canExit := make([]bool, len(g.Blocks))
	canExit[g.Exit.Index] = true
	stack := []*Block{g.Exit}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range b.Preds {
			if !canExit[p.Index] {
				canExit[p.Index] = true
				stack = append(stack, p)
			}
		}
	}
	for _, b := range g.ReversePostorder() {
		if !canExit[b.Index] {
			return true
		}
	}
	return false
}

// TestDivergent pins the exit edges of every way out of a loop —
// return, break, panic, a closable range, a ctx.Done case — and their
// absence from an escape-free loop or select{}: the edges taintlen's
// fixpoint iterates over.
func TestDivergent(t *testing.T) {
	cases := []struct {
		name, body string
		divergent  bool
	}{
		{"terminating", "work()\n", false},
		{"infinite_loop", "for {\n work()\n}", true},
		{"loop_with_return", "for {\n if done() {\n  return\n }\n work()\n}", false},
		{"loop_with_break", "for {\n if done() {\n  break\n }\n}", false},
		{"range_over_channel_shape", "for v := range ch {\n use(v)\n}", false},
		{"empty_select", "select {}", true},
		{"ctx_done_select", "for {\n select {\n case <-ctx.Done():\n  return\n case v := <-ch:\n  use(v)\n }\n}", false},
		{"nested_infinite", "for {\n for {\n  work()\n }\n}", true},
		{"infinite_loop_with_panic", "for {\n if bad() {\n  panic(\"x\")\n }\n}", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, _ := build(t, tc.body)
			if got := divergent(g); got != tc.divergent {
				t.Errorf("divergent = %v, want %v\n%s", got, tc.divergent, g.String())
			}
		})
	}
}

// genKill lifts a per-block gen/kill summary into the classic
// bit-vector transfer out = (in \ kill) ∪ gen.
func genKill(summarize func(b *Block) (gen, kill FactSet)) TransferFunc {
	return func(b *Block, in FactSet) FactSet {
		gen, kill := summarize(b)
		out := FactSet{}
		for k := range in {
			if !kill[k] {
				out[k] = true
			}
		}
		out.Union(gen)
		return out
	}
}

// TestForwardReachingTaint runs the solver on a tiny reaching-facts
// problem: fact "t" is generated by calls to src() and killed by
// calls to check(); the in-set at each block is pinned by whether a
// use() call in it can see the fact.
func TestForwardReachingTaint(t *testing.T) {
	body := `
t0 := src()
if t0 > 0 {
	check(t0)
	use(t0)
}
use(t0)
`
	g, fset := build(t, body)
	_ = fset

	summarize := func(b *Block) (gen, kill FactSet) {
		gen, kill = FactSet{}, FactSet{}
		for _, s := range b.Stmts {
			ast.Inspect(s, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok {
						switch id.Name {
						case "src":
							gen["t"] = true
						case "check":
							kill["t"] = true
							delete(gen, "t")
						}
					}
				}
				return true
			})
		}
		return gen, kill
	}
	in := Forward(g, FactSet{}, genKill(summarize))

	// The then-block sees the fact on entry (src ran, check has not).
	// The join block joins {entry-out: tainted} with {then-out:
	// killed} — union join keeps the taint (may-analysis).
	var thenIn, joinIn FactSet
	for b, facts := range in {
		switch b.Kind {
		case "if.then":
			thenIn = facts
		case "if.join":
			joinIn = facts
		}
	}
	if thenIn == nil || !thenIn["t"] {
		t.Errorf("if.then in-set = %v, want fact present", thenIn)
	}
	if joinIn == nil || !joinIn["t"] {
		t.Errorf("if.join in-set = %v, want fact present via the unchecked path", joinIn)
	}
}

// TestForwardLoopFixpoint asserts facts propagate around a back-edge.
func TestForwardLoopFixpoint(t *testing.T) {
	body := `
for i := 0; i < n; i++ {
	if i == 1 {
		t := src()
		use(t)
	}
	use(i)
}
`
	g, _ := build(t, body)
	summarize := func(b *Block) (gen, kill FactSet) {
		gen = FactSet{}
		for _, s := range b.Stmts {
			ast.Inspect(s, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "src" {
						gen["t"] = true
					}
				}
				return true
			})
		}
		return gen, nil
	}
	in := Forward(g, FactSet{}, genKill(summarize))
	// After one trip through the then-branch the fact must reach the
	// loop head (via the back-edge) and therefore the body and exit.
	for _, b := range g.ReversePostorder() {
		switch b.Kind {
		case "for.head", "for.exit":
			if !in[b]["t"] {
				t.Errorf("%s in-set missing fact generated in loop body: %v", b.Kind, in[b])
			}
		}
	}
}
