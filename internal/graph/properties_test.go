package graph

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// viewOf packs p the way every graph does and returns its view.
func viewOf(p Properties) Props {
	b := NewBuilder(Directed, 1)
	b.SetVertexProps(0, p)
	return b.Build().VertexProps(0)
}

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind ValueKind
	}{
		{String("x"), KindString},
		{Int(7), KindInt},
		{Float(3.5), KindFloat},
		{Bool(true), KindBool},
		{Blob(100), KindBlob},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("Kind(%v) = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
	}
}

func TestValueAccessors(t *testing.T) {
	if got := String("hello").Str(); got != "hello" {
		t.Errorf("Str = %q", got)
	}
	if got := Int(-5).Int64(); got != -5 {
		t.Errorf("Int64 = %d", got)
	}
	if got := Float(2.5).Float64(); got != 2.5 {
		t.Errorf("Float64 = %g", got)
	}
	if got := Int(4).Float64(); got != 4 {
		t.Errorf("Int-as-Float64 = %g, want 4", got)
	}
	if !Bool(true).IsTrue() || Bool(false).IsTrue() {
		t.Error("Bool accessors wrong")
	}
	if got := Blob(42).BlobSize(); got != 42 {
		t.Errorf("BlobSize = %d", got)
	}
	// Cross-kind accessors return zero values.
	if String("x").Int64() != 0 || Int(1).Str() != "" || String("x").BlobSize() != 0 {
		t.Error("cross-kind accessor leaked a value")
	}
}

func TestSerializedBytes(t *testing.T) {
	// An empty name leaves the value's own size: kind tag plus payload.
	for _, c := range []struct {
		v    Value
		want int
	}{{String("abcd"), 5}, {Int(1), 9}, {Float(1), 9}, {Bool(true), 2}, {Blob(1000), 1001}} {
		if got := viewOf(Properties{"": c.v}).SerializedBytes(); got != c.want {
			t.Errorf("%v bytes = %d, want %d", c.v, got, c.want)
		}
	}
	p := viewOf(Properties{"a": Int(1), "bb": String("xy")})
	// "a"(1)+9 + "bb"(2)+3 = 15
	if got := p.SerializedBytes(); got != 15 {
		t.Errorf("props bytes = %d, want 15", got)
	}
	if got := (Props{}).SerializedBytes(); got != 0 {
		t.Errorf("empty props bytes = %d, want 0", got)
	}
	// Sizes saturate instead of wrapping, one huge blob or many.
	for _, p := range []Properties{
		{"a": Blob(math.MaxInt32)},
		{"a": Blob(-1)},
		{"a": Blob(1 << 29), "b": Blob(1 << 29), "c": Blob(1 << 29)},
	} {
		if got := viewOf(p).SerializedBytes(); got != 1<<30 {
			t.Errorf("%v bytes = %d, want the 1 GiB cap", p, got)
		}
	}
}

// TestPropsView pins the view against the map it was packed from:
// lookup of every key and of absent keys on either side of the sorted
// records, ordered iteration, conversion back, and the zero view.
func TestPropsView(t *testing.T) {
	in := Properties{
		"name": String("alice"), "": String(""), "age": Int(-30), "score": Float(2.5),
		"vip": Bool(true), "off": Bool(false), "photo": Blob(4096),
	}
	p := viewOf(in)
	if p.Len() != len(in) {
		t.Fatalf("Len = %d, want %d", p.Len(), len(in))
	}
	for k, want := range in {
		if got, ok := p.Get(k); !ok || got != want {
			t.Errorf("Get(%q) = %v, %v; want %v", k, got, ok, want)
		}
	}
	for _, k := range []string{"a", "agf", "namf", "zzz", "\x00"} {
		if got, ok := p.Get(k); ok || got != (Value{}) {
			t.Errorf("Get(%q) = %v, %v; want absent", k, got, ok)
		}
	}
	prev := ""
	for i := 0; i < p.Len(); i++ {
		k, v := p.At(i)
		if i > 0 && k <= prev {
			t.Errorf("At(%d) key %q not after %q", i, k, prev)
		}
		if v != in[k] {
			t.Errorf("At(%d) = %q: %v, want %v", i, k, v, in[k])
		}
		prev = k
	}
	if got := p.Map(); !reflect.DeepEqual(got, in) {
		t.Errorf("Map = %v, want %v", got, in)
	}
	if p.String() != in.String() {
		t.Errorf("String = %s, want %s", p, in)
	}
	var zero Props
	if _, ok := zero.Get("name"); ok || zero.Len() != 0 || zero.Map() != nil {
		t.Error("the zero view is not the empty property set")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		p.Get("score")
		p.Get("nope")
		p.SerializedBytes()
	}); allocs != 0 {
		t.Errorf("lookup allocated %.0f times", allocs)
	}
}

func TestPropertiesClone(t *testing.T) {
	p := Properties{"k": Int(1)}
	c := p.Clone()
	c["k"] = Int(2)
	if p["k"].Int64() != 1 {
		t.Error("Clone is not a deep copy of the map")
	}
	if Properties(nil).Clone() != nil {
		t.Error("Clone(nil) should be nil")
	}
}

func TestPropertiesStringDeterministic(t *testing.T) {
	p := Properties{"z": Int(1), "a": Int(2), "m": String("q")}
	s1, s2 := p.String(), p.String()
	if s1 != s2 {
		t.Errorf("String not deterministic: %q vs %q", s1, s2)
	}
	if !strings.Contains(s1, `a: 2`) || strings.Index(s1, "a:") > strings.Index(s1, "z:") {
		t.Errorf("String = %q, want sorted keys", s1)
	}
}

func TestKindStrings(t *testing.T) {
	if Directed.String() != "directed" || Undirected.String() != "undirected" {
		t.Error("Kind.String wrong")
	}
	if KindBlob.String() != "blob" {
		t.Error("ValueKind.String wrong")
	}
}
