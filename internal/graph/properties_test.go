package graph

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"
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

// formulaBytes is SerializedBytes' formula computed from the map: per
// entry the key's bytes, a one-byte kind tag and the payload (a
// string's bytes, 8 for an int or float, 1 for a bool, a blob's size),
// the total saturating at 1 GiB.
func formulaBytes(p Properties) int {
	total := int64(0)
	for k, v := range p {
		total += int64(len(k)) + 1
		switch v.Kind() {
		case KindString:
			total += int64(len(v.Str()))
		case KindInt, KindFloat:
			total += 8
		case KindBool:
			total++
		case KindBlob:
			if v.BlobSize() < 0 || v.BlobSize() > 1<<30 {
				return 1 << 30
			}
			total += int64(v.BlobSize())
		}
	}
	return int(min(total, 1<<30))
}

// TestSerializedBytesFormula pins the sizes the storage cost model
// prices records by to the formula, for every kind and at the edges a
// record layout could get wrong: empty and long keys and strings,
// blobs at and past the 1 GiB clamp, and entities with many keys.
func TestSerializedBytesFormula(t *testing.T) {
	long := strings.Repeat("x", 1<<20)
	many := Properties{}
	for i := 0; i < 1000; i++ {
		many[fmt.Sprintf("key%04d", i)] = Int(int64(i))
	}
	manyBlobs := Properties{}
	for i := 0; i < 5; i++ {
		manyBlobs[fmt.Sprint(i)] = Blob(1 << 28) // the fourth one crosses the clamp
	}
	cases := []struct {
		name string
		p    Properties
		want int
	}{
		{"empty", nil, 0},
		{"empty-string", Properties{"s": String("")}, 2},
		{"long-string", Properties{"s": String(long)}, 2 + 1<<20},
		{"long-key", Properties{long: Bool(false)}, 1<<20 + 2},
		{"empty-key", Properties{"": Int(0)}, 9},
		{"int", Properties{"uid": Int(math.MinInt64)}, 12},
		{"float", Properties{"rank": Float(math.Inf(1))}, 13},
		{"bool", Properties{"vip": Bool(true)}, 5},
		{"blob", Properties{"photo": Blob(4096)}, 4102},
		{"blob-under-clamp", Properties{"": Blob(1<<30 - 1)}, 1 << 30},
		{"blob-at-clamp", Properties{"": Blob(1 << 30)}, 1 << 30},
		{"blob-past-clamp", Properties{"b": Blob(1<<30 + 1)}, 1 << 30},
		{"blob-negative", Properties{"b": Blob(-1)}, 1 << 30},
		{"all-kinds", Properties{"a": String("xyz"), "b": Int(1), "c": Float(2), "d": Bool(true), "e": Blob(10)},
			4 + 9 + 9 + 2 + 11 + 5},
		{"many-keys", many, 1000 * (7 + 1 + 8)},
		{"many-blobs-past-clamp", manyBlobs, 1 << 30},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if f := formulaBytes(tc.p); f != tc.want {
				t.Fatalf("the formula gives %d, the table says %d", f, tc.want)
			}
			if got := viewOf(tc.p).SerializedBytes(); got != tc.want {
				t.Errorf("SerializedBytes = %d, want %d", got, tc.want)
			}
		})
	}
}

// TestPropRecordIs16Bytes pins the record's size and field offsets,
// which are the snapshot record's: a key id at 0, the kind at 2, a zero
// byte at 3, the string length at 4 and the value at 8.
func TestPropRecordIs16Bytes(t *testing.T) {
	var r PropRecord
	if got := unsafe.Sizeof(r); got != 16 {
		t.Fatalf("PropRecord is %d bytes, want 16", got)
	}
	if k, kind, aux, val := unsafe.Offsetof(r.Key), unsafe.Offsetof(r.Kind), unsafe.Offsetof(r.Aux), unsafe.Offsetof(r.Val); k != 0 || kind != 2 || aux != 4 || val != 8 {
		t.Fatalf("field offsets Key %d, Kind %d, Aux %d, Val %d; want 0, 2, 4, 8", k, kind, aux, val)
	}
	if got := unsafe.Sizeof(PropKey{}); got != 8 {
		t.Fatalf("PropKey is %d bytes, want 8", got)
	}
}

// TestKeyTable checks what Build packs: one key table entry per
// distinct key, sorted by key bytes whatever order the keys first
// appear in, with every record's key id naming its key.
func TestKeyTable(t *testing.T) {
	b := NewBuilder(Directed, 3)
	b.SetVertexProps(0, Properties{"zeta": Int(1), "mu": Int(2)})
	b.SetVertexProps(2, Properties{"alpha": String("zeta"), "mu": Bool(true)})
	b.AddEdgeFull(0, 1, 1, Properties{"beta": Int(3), "zeta": Blob(7)})
	g := b.Build()
	d := g.CSRView()
	var keys []string
	for _, k := range d.Keys {
		keys = append(keys, d.Arena[k.Off:k.Off+k.Len])
	}
	if want := []string{"alpha", "beta", "mu", "zeta"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("key table %q, want %q", keys, want)
	}
	for _, c := range []PropColumn{d.VProps, d.EProps} {
		for i := 0; i+1 < len(c.Index); i++ {
			recs := c.Recs[c.Index[i]:c.Index[i+1]]
			for j := 1; j < len(recs); j++ {
				if recs[j].Key <= recs[j-1].Key {
					t.Fatalf("entity %d: key ids %d then %d", i, recs[j-1].Key, recs[j].Key)
				}
			}
		}
	}
	if v, ok := g.VertexProps(2).Get("alpha"); !ok || v.Str() != "zeta" {
		t.Fatalf(`vertex 2 "alpha" = %v, %v`, v, ok)
	}
	if v, ok := g.EdgeProps(0).Get("zeta"); !ok || v.BlobSize() != 7 {
		t.Fatalf(`edge 0 "zeta" = %v, %v`, v, ok)
	}
}

// TestKeyLimit: a record names its key by a 16-bit id, so Build panics
// with ErrTooManyPropKeys when a graph's properties use one key more
// than MaxPropKeys (graphio's TestCSRKeyTableAtLimit builds and
// round-trips exactly MaxPropKeys).
func TestKeyLimit(t *testing.T) {
	b := NewBuilder(Directed, 2)
	b.AddEdge(0, 1)
	vp, ep := Properties{}, Properties{}
	for i := 0; i <= MaxPropKeys; i++ {
		if i%2 == 0 {
			vp[fmt.Sprintf("k%05d", i)] = Int(int64(i))
		} else {
			ep[fmt.Sprintf("k%05d", i)] = Int(int64(i))
		}
	}
	b.SetVertexProps(1, vp)
	b.AddEdgeFull(1, 0, 1, ep)
	defer func() {
		err, _ := recover().(error)
		if !errors.Is(err, ErrTooManyPropKeys) {
			t.Fatalf("Build past the key limit: recovered %v, want ErrTooManyPropKeys", err)
		}
	}()
	b.Build()
	t.Fatal("Build past the key limit returned")
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
