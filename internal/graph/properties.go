package graph

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Properties is a schemaless property map θ = {mᵢ → wᵢ} attached to a
// vertex or edge, per Section II of the paper. Values are restricted
// to a small set of kinds so that serialized sizes are well defined
// for the storage cost model. The map is the Builder's input form and
// what Props.Map converts back to; a built Graph stores and serves
// properties as flat columns (PropColumn) read through Props.
type Properties map[string]Value

// ValueKind enumerates the supported property value kinds.
type ValueKind uint8

const (
	KindString ValueKind = iota
	KindInt
	KindFloat
	KindBool
	// KindBlob models opaque binary payloads such as photo data; only
	// the length is stored, because the simulator cares about bytes,
	// not content.
	KindBlob
)

func (k ValueKind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	case KindBlob:
		return "blob"
	default:
		return fmt.Sprintf("ValueKind(%d)", uint8(k))
	}
}

// Value is a tagged union property value.
type Value struct {
	kind ValueKind
	str  string
	num  int64
	f    float64
}

// String constructs a string value.
func String(s string) Value { return Value{kind: KindString, str: s} }

// Int constructs an integer value.
func Int(i int64) Value { return Value{kind: KindInt, num: i} }

// Float constructs a float value.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// Bool constructs a boolean value.
func Bool(b bool) Value {
	var n int64
	if b {
		n = 1
	}
	return Value{kind: KindBool, num: n}
}

// Blob constructs an opaque payload of the given size in bytes.
func Blob(size int) Value { return Value{kind: KindBlob, num: int64(size)} }

// Kind returns the value's kind.
func (v Value) Kind() ValueKind { return v.kind }

// Str returns the string payload; zero for non-string values.
func (v Value) Str() string { return v.str }

// Int64 returns the integer payload; zero for non-int values.
func (v Value) Int64() int64 {
	if v.kind != KindInt {
		return 0
	}
	return v.num
}

// Float64 returns the numeric payload as float64 for int and float
// kinds; zero otherwise.
func (v Value) Float64() float64 {
	switch v.kind {
	case KindFloat:
		return v.f
	case KindInt:
		return float64(v.num)
	default:
		return 0
	}
}

// IsTrue returns the boolean payload; false for non-bool values.
func (v Value) IsTrue() bool { return v.kind == KindBool && v.num != 0 }

// BlobSize returns the blob length in bytes; zero for non-blobs.
func (v Value) BlobSize() int {
	if v.kind != KindBlob {
		return 0
	}
	return int(v.num)
}

// Equal reports deep equality of two values.
func (v Value) Equal(o Value) bool { return v == o }

func (v Value) String() string {
	switch v.kind {
	case KindString:
		return fmt.Sprintf("%q", v.str)
	case KindInt:
		return fmt.Sprintf("%d", v.num)
	case KindFloat:
		return fmt.Sprintf("%g", v.f)
	case KindBool:
		return fmt.Sprintf("%t", v.num != 0)
	case KindBlob:
		return fmt.Sprintf("blob[%dB]", v.num)
	default:
		return "<invalid>"
	}
}

// Clone returns a deep copy of the property map.
func (p Properties) Clone() Properties {
	if p == nil {
		return nil
	}
	out := make(Properties, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// String renders the property map with deterministic key order, which
// keeps golden tests and logs stable.
func (p Properties) String() string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s: %s", k, p[k])
	}
	b.WriteByte('}')
	return b.String()
}

// PropRecord is one fixed-size record of a property column: a key and
// a tagged value, with strings held as (offset, length) into the
// graph's arena. The field layout is the STRVCSR2 record's, so on a
// little-endian host a file's record section is served as
// []PropRecord without copying.
type PropRecord struct {
	KeyOff, KeyLen uint32
	Kind           uint32 // a ValueKind
	Aux            uint32 // string length; zero for the other kinds
	Val            uint64 // arena offset, integer, float bits, 0/1, or blob size
}

// PropColumn is one property table in flat form: entity i owns
// Recs[Index[i]:Index[i+1]] (ranges never decrease), its keys strictly
// ascending, every kind known and every string inside the arena. Index
// has one entry more than there are entities; nil means no table.
type PropColumn struct {
	Index []uint32
	Recs  []PropRecord
}

// of returns entity i's view; the empty view when there is no table.
func (c PropColumn) of(i int, arena string) Props {
	if c.Index == nil {
		return Props{}
	}
	return Props{recs: c.Recs[c.Index[i]:c.Index[i+1]], arena: arena}
}

// Props is a read-only view of one entity's properties: its record
// range in a PropColumn plus the arena the records point into. It is a
// small value, allocates nothing, and stays valid as long as the graph
// it came from. The zero Props is the empty property set.
type Props struct {
	recs  []PropRecord
	arena string
}

// Len returns the number of properties.
func (p Props) Len() int { return len(p.recs) }

// At returns the i-th property in ascending key order.
func (p Props) At(i int) (string, Value) {
	r := &p.recs[i]
	return p.key(r), p.value(r)
}

// Get returns the named property.
//
//vet:hotpath
func (p Props) Get(name string) (Value, bool) {
	for i := range p.recs {
		r := &p.recs[i]
		if k := p.key(r); k == name {
			return p.value(r), true
		} else if k > name {
			break
		}
	}
	return Value{}, false
}

func (p Props) key(r *PropRecord) string {
	return p.arena[r.KeyOff : uint64(r.KeyOff)+uint64(r.KeyLen)]
}

func (p Props) value(r *PropRecord) Value {
	switch ValueKind(r.Kind) {
	case KindString:
		return String(p.arena[r.Val : r.Val+uint64(r.Aux)])
	case KindInt:
		return Int(int64(r.Val))
	case KindFloat:
		return Float(math.Float64frombits(r.Val))
	case KindBool:
		return Bool(r.Val != 0)
	default:
		return Blob(int(r.Val))
	}
}

// maxRecordBytes caps a serialized size: it is what the int32 size
// columns can carry with room to add a base record.
const maxRecordBytes = 1 << 30

// SerializedBytes estimates the on-disk footprint of the properties —
// per entry the name, a kind tag and the payload — saturating at 1 GiB.
// It is the one place sizes are derived from the records.
func (p Props) SerializedBytes() int {
	total := uint64(0)
	for i := range p.recs {
		r := &p.recs[i]
		total += uint64(r.KeyLen) + 1
		switch ValueKind(r.Kind) {
		case KindString:
			total += uint64(r.Aux)
		case KindInt, KindFloat:
			total += 8
		case KindBool:
			total++
		case KindBlob:
			if r.Val > maxRecordBytes {
				return maxRecordBytes
			}
			total += r.Val
		}
		if total > maxRecordBytes {
			return maxRecordBytes
		}
	}
	return int(total)
}

// Map copies the view into a Properties map; nil when it is empty.
func (p Props) Map() Properties {
	if len(p.recs) == 0 {
		return nil
	}
	out := make(Properties, len(p.recs))
	for i := range p.recs {
		k, v := p.At(i)
		out[k] = v
	}
	return out
}

func (p Props) String() string { return p.Map().String() }

// Predicate is a user-defined constraint θ checked against vertex or
// edge properties during traversal (Section V-C). A nil Predicate
// matches everything.
type Predicate func(Props) bool

// MatchAll returns a predicate that is satisfied only when every given
// predicate is satisfied.
func MatchAll(preds ...Predicate) Predicate {
	return func(p Props) bool {
		for _, pred := range preds {
			if pred != nil && !pred(p) {
				return false
			}
		}
		return true
	}
}

// HasProp returns a predicate matching property sets that contain the
// named property.
func HasProp(name string) Predicate {
	return func(p Props) bool {
		_, ok := p.Get(name)
		return ok
	}
}

// PropEquals returns a predicate matching property sets whose named
// property equals want.
func PropEquals(name string, want Value) Predicate {
	return func(p Props) bool {
		got, ok := p.Get(name)
		return ok && got.Equal(want)
	}
}

// IntPropAtLeast returns a predicate matching property sets whose
// named integer property is >= min.
func IntPropAtLeast(name string, min int64) Predicate {
	return func(p Props) bool {
		got, ok := p.Get(name)
		return ok && got.Kind() == KindInt && got.Int64() >= min
	}
}
