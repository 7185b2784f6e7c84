package predicate

import (
	"testing"

	"subtrav/internal/graph"
)

// FuzzCompile asserts the expression compiler never panics and that
// compiled predicates evaluate without panicking on assorted property
// maps.
func FuzzCompile(f *testing.F) {
	for _, seed := range []string{
		`age >= 30 && vip == true`,
		`has(photo) || name != "x"`,
		`!(a == 1) && (b < 2 || c > 3)`,
		`x == "quoted \"str\""`,
		``,
		`(((`,
		`a == `,
		`has(`,
		`1 == 1`,
		`a == -1e309`,
		"a == \x00",
	} {
		f.Add(seed)
	}
	samples := []graph.Props{
		{},
		viewOf(graph.Properties{}),
		viewOf(graph.Properties{"a": graph.Int(1), "b": graph.Float(2), "name": graph.String("x")}),
		viewOf(graph.Properties{"vip": graph.Bool(true), "photo": graph.Blob(10)}),
	}
	f.Fuzz(func(t *testing.T, src string) {
		pred, err := Compile(src)
		if err != nil || pred == nil {
			return
		}
		for _, p := range samples {
			pred(p) // must not panic
		}
	})
}
