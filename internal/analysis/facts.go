package analysis

// The facts layer, modeled on golang.org/x/tools/go/analysis Facts:
// an analyzer running over package P can attach typed facts to P's
// exported objects (or to P itself) and read back the facts earlier
// runs attached to the objects of P's dependencies. Facts are what
// turn per-package analyzers into whole-module ones — lockorder's
// acquisition graph and goroleak's divergence markers both cross
// package boundaries through here.
//
// Facts are serialized (gob) the moment they are exported and
// deserialized on every import, exactly as they would be if written
// to disk between separate per-package driver invocations: an
// analyzer cannot smuggle un-serializable state (pointers into its
// own Pass) through the store, so the in-process driver keeps the
// same discipline a distributed one would need.
//
// Because this driver type-checks each package independently (the
// source importer re-reads dependencies), a types.Object for P.Foo
// seen while analyzing P is NOT pointer-identical to the one seen
// from an importer of P. Keys are therefore stable strings — package
// path + receiver + name — not object pointers; the same scheme
// x/tools implements with go/types/objectpath, restricted to the
// package-level objects and methods the suite needs.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/token"
	"go/types"
	"reflect"
	"sort"
)

// Fact is a datum attached to an object or package. Implementations
// must be gob-serializable pointers; AFact is a marker method.
type Fact interface{ AFact() }

// factStore holds every fact exported during one Run, serialized.
type factStore struct {
	// obj: analyzer name -> object key -> encoded fact.
	obj map[string]map[string][]byte
	// pkg: analyzer name -> package path -> encoded fact.
	pkg map[string]map[string][]byte
}

func newFactStore() *factStore {
	return &factStore{
		obj: map[string]map[string][]byte{},
		pkg: map[string]map[string][]byte{},
	}
}

// ObjectKey returns the stable cross-package key for a package-level
// object or method, or "" for objects facts cannot attach to
// (locals, builtins, objects without a package).
func ObjectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	base := obj.Pkg().Path()
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			recv := sig.Recv().Type()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			named, ok := recv.(*types.Named)
			if !ok {
				return ""
			}
			return base + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	// Only package-scope objects have stable keys.
	if obj.Parent() != nil && obj.Pkg() != nil && obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return base + "." + obj.Name()
}

func encodeFact(fact Fact) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(fact); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeFact(data []byte, fact Fact) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(fact)
}

// ExportObjectFact serializes fact and attaches it to obj for
// downstream passes of the same analyzer. Objects without a stable
// key (locals, builtins) are silently skipped. A second export to
// the same object overwrites the first.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if p.store == nil {
		return
	}
	key := ObjectKey(obj)
	if key == "" {
		return
	}
	data, err := encodeFact(fact)
	if err != nil {
		panic(fmt.Sprintf("analysis: %s: unserializable fact %T: %v", p.Analyzer.Name, fact, err))
	}
	m := p.store.obj[p.Analyzer.Name]
	if m == nil {
		m = map[string][]byte{}
		p.store.obj[p.Analyzer.Name] = m
	}
	m[key] = data
}

// ImportObjectFact decodes the fact a prior pass of this analyzer
// attached to obj into fact, reporting whether one existed. obj may
// come from any type-checked copy of its package — identity is by
// stable key, not pointer.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if p.store == nil {
		return false
	}
	data, ok := p.store.obj[p.Analyzer.Name][ObjectKey(obj)]
	if !ok {
		return false
	}
	if err := decodeFact(data, fact); err != nil {
		panic(fmt.Sprintf("analysis: %s: decoding fact %T: %v", p.Analyzer.Name, fact, err))
	}
	return true
}

// ExportPackageFact attaches fact to the package under analysis.
func (p *Pass) ExportPackageFact(fact Fact) {
	if p.store == nil {
		return
	}
	data, err := encodeFact(fact)
	if err != nil {
		panic(fmt.Sprintf("analysis: %s: unserializable fact %T: %v", p.Analyzer.Name, fact, err))
	}
	m := p.store.pkg[p.Analyzer.Name]
	if m == nil {
		m = map[string][]byte{}
		p.store.pkg[p.Analyzer.Name] = m
	}
	m[p.Pkg.Path()] = data
}

// ModulePass is handed to an Analyzer's Finish hook after every
// package has run: read access to the analyzer's exported facts plus
// position-anchored reporting for module-wide findings.
type ModulePass struct {
	Analyzer *Analyzer
	store    *factStore
	diags    []Diagnostic
}

// Report records a module-scope finding at an explicit position
// (Finish runs after all per-package syntax is gone, so positions
// travel through facts as token.Position values).
func (m *ModulePass) Report(pos token.Position, format string, args ...any) {
	m.diags = append(m.diags, Diagnostic{
		Analyzer: m.Analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// EachPackageFact decodes every package fact this analyzer exported,
// in deterministic (sorted package path) order. template's dynamic
// type names the concrete fact; each visit receives a fresh value.
func (m *ModulePass) EachPackageFact(template Fact, visit func(pkgPath string, fact Fact)) {
	byPkg := m.store.pkg[m.Analyzer.Name]
	paths := make([]string, 0, len(byPkg))
	for p := range byPkg {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	tt := reflect.TypeOf(template)
	for _, path := range paths {
		fresh := reflect.New(tt.Elem()).Interface().(Fact)
		if err := decodeFact(byPkg[path], fresh); err != nil {
			panic(fmt.Sprintf("analysis: %s: decoding package fact %T for %s: %v", m.Analyzer.Name, template, path, err))
		}
		visit(path, fresh)
	}
}
