package predicate

import (
	"strings"
	"testing"
	"testing/quick"

	"subtrav/internal/graph"
)

// viewOf packs p the way every graph does and returns its view.
func viewOf(p graph.Properties) graph.Props {
	b := graph.NewBuilder(graph.Directed, 1)
	b.SetVertexProps(0, p)
	return b.Build().VertexProps(0)
}

var sample = viewOf(graph.Properties{
	"age":       graph.Int(30),
	"score":     graph.Float(2.5),
	"name":      graph.String("alice"),
	"vip":       graph.Bool(true),
	"photo":     graph.Blob(1000),
	"followers": graph.Int(1500),
})

func match(t *testing.T, src string) bool {
	t.Helper()
	pred, err := Compile(src)
	if err != nil {
		t.Fatalf("Compile(%q): %v", src, err)
	}
	return pred(sample)
}

func TestComparisons(t *testing.T) {
	cases := map[string]bool{
		`age == 30`:        true,
		`age != 30`:        false,
		`age < 31`:         true,
		`age <= 30`:        true,
		`age > 30`:         false,
		`age >= 30`:        true,
		`score == 2.5`:     true,
		`score > 2`:        true,
		`score < 2`:        false,
		`name == "alice"`:  true,
		`name != "bob"`:    true,
		`name < "bob"`:     true,
		`vip == true`:      true,
		`vip != true`:      false,
		`vip == false`:     false,
		`followers > 1000`: true,
		`followers > 2000`: false,
		`age == 30.0`:      true, // int compares as number
		`missing == 1`:     false,
		`missing != 1`:     false, // missing property: comparison false
		`has(photo)`:       true,
		`has(missing)`:     false,
		`name == "ALICE"`:  false,
		`photo == 5`:       false, // blobs only support has()
		`name == 5`:        false, // kind mismatch
		`age == "30"`:      false, // kind mismatch
		`score >= -1e3`:    true,
		`age >= -5`:        true,
	}
	for src, want := range cases {
		if got := match(t, src); got != want {
			t.Errorf("%q = %t, want %t", src, got, want)
		}
	}
}

func TestBooleanStructure(t *testing.T) {
	cases := map[string]bool{
		`age == 30 && vip == true`:                true,
		`age == 30 && vip == false`:               false,
		`age == 99 || name == "alice"`:            true,
		`age == 99 || name == "bob"`:              false,
		`!(age == 99)`:                            true,
		`!has(missing) && has(age)`:               true,
		`age == 99 || age == 30 && vip == true`:   true, // && binds tighter
		`(age == 99 || age == 30) && vip == true`: true,
		`(age == 99 || age == 31) && vip == true`: false,
		`!(vip == true || age == 30)`:             false,
		`!!(age == 30)`:                           true,
	}
	for src, want := range cases {
		if got := match(t, src); got != want {
			t.Errorf("%q = %t, want %t", src, got, want)
		}
	}
}

func TestStringEscapes(t *testing.T) {
	p := viewOf(graph.Properties{"msg": graph.String(`say "hi"`)})
	pred, err := Compile(`msg == "say \"hi\""`)
	if err != nil {
		t.Fatal(err)
	}
	if !pred(p) {
		t.Error("escaped string literal did not match")
	}
}

func TestEmptyCompilesToNil(t *testing.T) {
	pred, err := Compile("   ")
	if err != nil {
		t.Fatal(err)
	}
	if pred != nil {
		t.Error("blank expression should compile to nil (match everything)")
	}
}

func TestHasNamedHas(t *testing.T) {
	// "has" used as a plain property name still works with comparisons.
	p := viewOf(graph.Properties{"has": graph.Int(1)})
	pred, err := Compile(`has == 1`)
	if err != nil {
		t.Fatal(err)
	}
	if !pred(p) {
		t.Error("property literally named 'has' should be comparable")
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		`age ==`,
		`== 30`,
		`age = 30`,
		`age == 30 &&`,
		`(age == 30`,
		`age == 30)`,
		`name == "unterminated`,
		`age @ 30`,
		`vip > true`,
		`has(`,
		`has()`,
		`has(age`,
		`age == 30 age == 31`,
		`&& age == 30`,
	}
	for _, src := range bad {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q) should fail", src)
		}
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCompile should panic on bad input")
		}
	}()
	MustCompile(`age ==`)
}

// Property: for any generated numeric threshold, the compiled
// predicate agrees with direct evaluation.
func TestNumericAgreementQuick(t *testing.T) {
	f := func(value int32, threshold int32, opIdx uint8) bool {
		ops := []string{"==", "!=", "<", "<=", ">", ">="}
		op := ops[int(opIdx)%len(ops)]
		src := "x " + op + " " + itoa(int64(threshold))
		pred, err := Compile(src)
		if err != nil {
			return false
		}
		p := viewOf(graph.Properties{"x": graph.Int(int64(value))})
		got := pred(p)
		a, b := float64(value), float64(threshold)
		var want bool
		switch op {
		case "==":
			want = a == b
		case "!=":
			want = a != b
		case "<":
			want = a < b
		case "<=":
			want = a <= b
		case ">":
			want = a > b
		case ">=":
			want = a >= b
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: random identifier-ish strings either compile or fail, but
// never panic, and whitespace never changes the result.
func TestWhitespaceInsensitiveQuick(t *testing.T) {
	exprs := []string{
		`age==30&&vip==true`,
		`name=="alice"||score>1`,
		`!(followers>=1500)`,
	}
	for _, src := range exprs {
		compact, err := Compile(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		spaced, err := Compile(strings.NewReplacer("&&", " && ", "||", " || ", "==", " == ", ">=", " >= ", ">", " > ").Replace(src))
		if err != nil {
			t.Fatalf("spaced %q: %v", src, err)
		}
		if compact(sample) != spaced(sample) {
			t.Errorf("%q: whitespace changed the result", src)
		}
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var digits []byte
	for v > 0 {
		digits = append([]byte{byte('0' + v%10)}, digits...)
		v /= 10
	}
	if neg {
		return "-" + string(digits)
	}
	return string(digits)
}
