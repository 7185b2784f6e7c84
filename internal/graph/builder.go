package graph

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Builder accumulates vertices and edges and produces an immutable CSR
// Graph. It is not safe for concurrent use; build the graph once, then
// share it freely (Graph reads are concurrency-safe).
type Builder struct {
	kind     Kind
	n        int
	srcs     []VertexID
	dsts     []VertexID
	weights  []float32
	eprops   []Properties
	vprops   map[VertexID]Properties
	part     []int32
	weighted bool
	hasEProp bool
	finished bool
}

// NewBuilder creates a builder for a graph with n vertices of the
// given kind.
func NewBuilder(kind Kind, n int) *Builder {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &Builder{kind: kind, n: n, vprops: make(map[VertexID]Properties)}
}

// NumVertices returns the vertex count the builder was created with.
func (b *Builder) NumVertices() int { return b.n }

// NumAddedEdges returns the number of logical edges added so far.
func (b *Builder) NumAddedEdges() int { return len(b.srcs) }

func (b *Builder) checkVertex(v VertexID) {
	if v < 0 || int(v) >= b.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, b.n))
	}
}

// AddEdge adds an unweighted, property-free edge.
func (b *Builder) AddEdge(src, dst VertexID) {
	b.AddEdgeFull(src, dst, 1, nil)
}

// AddWeightedEdge adds an edge with a weight (e.g. a similarity score).
func (b *Builder) AddWeightedEdge(src, dst VertexID, w float32) {
	b.AddEdgeFull(src, dst, w, nil)
}

// AddEdgeFull adds an edge with a weight and optional properties. For
// undirected graphs the edge is later materialized in both directions
// but shares one logical property record.
func (b *Builder) AddEdgeFull(src, dst VertexID, w float32, props Properties) {
	if b.finished {
		panic("graph: AddEdgeFull after Build")
	}
	b.checkVertex(src)
	b.checkVertex(dst)
	b.srcs = append(b.srcs, src)
	b.dsts = append(b.dsts, dst)
	b.weights = append(b.weights, w)
	b.eprops = append(b.eprops, props)
	if w != 1 {
		b.weighted = true
	}
	if props != nil {
		b.hasEProp = true
	}
}

// SetVertexProps attaches a property map to vertex v, replacing any
// previous map.
func (b *Builder) SetVertexProps(v VertexID, props Properties) {
	b.checkVertex(v)
	b.vprops[v] = props
}

// SetPartition assigns partition labels; len(part) must equal the
// vertex count. Labels must be dense in [0, numPartitions).
func (b *Builder) SetPartition(part []int32) {
	if len(part) != b.n {
		panic(fmt.Sprintf("graph: partition length %d != vertex count %d", len(part), b.n))
	}
	b.part = append([]int32(nil), part...)
}

// Build finalizes the CSR structure and packs the property maps into
// flat columns. The builder must not be reused afterwards. It panics if
// the distinct property strings exceed the arena's 4 GiB offset space
// or one table holds more than 2³² records, and with
// ErrTooManyPropKeys if the properties use more than MaxPropKeys
// distinct keys.
func (b *Builder) Build() *Graph {
	if b.finished {
		panic("graph: Build called twice")
	}
	b.finished = true

	m := len(b.srcs) // logical edges
	slots := m
	if b.kind == Undirected {
		slots = 2 * m
	}

	g := &Graph{kind: b.kind, numEdges: m}

	// Counting sort by source vertex gives the CSR layout in O(V+E).
	counts := make([]int64, b.n+1)
	bump := func(v VertexID) { counts[v+1]++ }
	for i := 0; i < m; i++ {
		bump(b.srcs[i])
		if b.kind == Undirected {
			bump(b.dsts[i])
		}
	}
	for v := 0; v < b.n; v++ {
		counts[v+1] += counts[v]
	}
	g.offsets = counts

	g.targets = make([]VertexID, slots)
	needIdx := b.kind == Undirected
	if needIdx {
		g.edgeIdx = make([]EdgeID, slots)
	}
	cursor := make([]int64, b.n)
	place := func(src, dst VertexID, e EdgeID) {
		s := g.offsets[src] + cursor[src]
		cursor[src]++
		g.targets[s] = dst
		if needIdx {
			g.edgeIdx[s] = e
		}
	}
	for i := 0; i < m; i++ {
		place(b.srcs[i], b.dsts[i], EdgeID(i))
		if b.kind == Undirected {
			place(b.dsts[i], b.srcs[i], EdgeID(i))
		}
	}

	// Sort each adjacency list by target for deterministic iteration
	// and O(log d) membership checks by callers that binary search.
	for v := 0; v < b.n; v++ {
		lo, hi := g.offsets[v], g.offsets[v+1]
		if hi-lo < 2 {
			continue
		}
		if needIdx {
			sortSlotsWithIdx(g.targets[lo:hi], g.edgeIdx[lo:hi])
		} else {
			seg := g.targets[lo:hi]
			sort.Slice(seg, func(i, j int) bool { return seg[i] < seg[j] })
		}
	}

	if b.weighted {
		g.weights = b.weights
	}
	// Canonical packing order — vertices, then edges — is what makes a
	// snapshot of the graph byte-deterministic.
	pk := propPacker{dedup: make(map[string]uint32), keyID: make(map[string]uint16)}
	if len(b.vprops) > 0 {
		g.vprops = pk.column(b.n, func(v int) Properties { return b.vprops[VertexID(v)] })
	}
	if b.hasEProp {
		g.eprops = pk.column(m, func(e int) Properties { return b.eprops[e] })
	}
	g.strs = propStrings{keys: pk.keyTable(&g.vprops, &g.eprops), arena: pk.arena.String()}
	if b.hasEProp {
		g.ebytes = g.computeEdgeBytes()
	}
	// A vertex record models how property-graph stores lay data out:
	// the vertex header and properties plus its adjacency list with
	// inline edge properties — one contiguous fetch from the shared
	// disk. Dense neighborhoods therefore ship more edges per record
	// read, the effect behind the paper's Figure 11 discussion.
	g.vbytes = g.computeVertexBytes()
	if b.part != nil {
		g.part = b.part
		maxLabel := int32(-1)
		for _, l := range b.part {
			if l > maxLabel {
				maxLabel = l
			}
		}
		g.numPartitions = int(maxLabel) + 1
	}
	return g
}

// propPacker packs property maps into flat columns over one shared
// string arena. Strings are interned at first occurrence, which both
// deduplicates strings repeated across millions of entities and keeps
// the packing deterministic. Keys are numbered in first-occurrence
// order while packing and renumbered in key order by keyTable.
type propPacker struct {
	arena  strings.Builder
	dedup  map[string]uint32 // arena offset of every interned string
	keyID  map[string]uint16 // first-occurrence id of every key
	keys   []string          // keys by first-occurrence id
	sorted []string          // per-entity sort scratch
}

func (pk *propPacker) intern(s string) uint32 {
	if off, ok := pk.dedup[s]; ok {
		return off
	}
	off := pk.arena.Len()
	if uint64(off)+uint64(len(s)) > math.MaxUint32 {
		panic("graph: property strings exceed the arena's 4 GiB offset space")
	}
	pk.dedup[s] = uint32(off)
	pk.arena.WriteString(s)
	return uint32(off)
}

func (pk *propPacker) key(k string) uint16 {
	if id, ok := pk.keyID[k]; ok {
		return id
	}
	if len(pk.keys) == MaxPropKeys {
		panic(ErrTooManyPropKeys)
	}
	pk.intern(k)
	id := uint16(len(pk.keys))
	pk.keyID[k] = id
	pk.keys = append(pk.keys, k)
	return id
}

// column packs n rows as one table. Keys within an entity are sorted,
// so the packing is independent of map iteration order and a lookup
// has one answer.
func (pk *propPacker) column(n int, row func(i int) Properties) PropColumn {
	c := PropColumn{Index: make([]uint32, n+1)}
	for i := 0; i < n; i++ {
		p := row(i)
		pk.sorted = pk.sorted[:0]
		for k := range p {
			pk.sorted = append(pk.sorted, k)
		}
		sort.Strings(pk.sorted)
		for _, k := range pk.sorted {
			c.Recs = append(c.Recs, pk.record(k, p[k]))
		}
		if uint64(len(c.Recs)) > math.MaxUint32 {
			panic("graph: more than 2^32 property records in one table")
		}
		c.Index[i+1] = uint32(len(c.Recs))
	}
	return c
}

func (pk *propPacker) record(key string, v Value) PropRecord {
	r := PropRecord{Key: pk.key(key), Kind: v.kind}
	switch v.kind {
	case KindString:
		r.Aux, r.Val = uint32(len(v.str)), uint64(pk.intern(v.str))
	case KindFloat:
		r.Val = math.Float64bits(v.f)
	default: // int, bool (0/1) and blob (size) all live in num
		r.Val = uint64(v.num)
	}
	return r
}

// keyTable sorts the keys by their bytes, renumbers the columns'
// records to the sorted ids — an entity's records, packed in key
// order, keep their ids strictly ascending — and returns the key table.
func (pk *propPacker) keyTable(cols ...*PropColumn) []PropKey {
	if len(pk.keys) == 0 {
		return nil
	}
	order := make([]uint16, len(pk.keys)) // sorted position → first-occurrence id
	for i := range order {
		order[i] = uint16(i)
	}
	sort.Slice(order, func(a, b int) bool { return pk.keys[order[a]] < pk.keys[order[b]] })
	renum := make([]uint16, len(order))
	table := make([]PropKey, len(order))
	for id, first := range order {
		renum[first] = uint16(id)
		k := pk.keys[first]
		table[id] = PropKey{Off: pk.dedup[k], Len: uint32(len(k))}
	}
	for _, c := range cols {
		for i := range c.Recs {
			c.Recs[i].Key = renum[c.Recs[i].Key]
		}
	}
	return table
}

// sortSlotsWithIdx co-sorts a target segment and its parallel edge
// index segment by target.
func sortSlotsWithIdx(targets []VertexID, idx []EdgeID) {
	order := make([]int, len(targets))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return targets[order[a]] < targets[order[b]] })
	tCopy := append([]VertexID(nil), targets...)
	iCopy := append([]EdgeID(nil), idx...)
	for pos, src := range order {
		targets[pos] = tCopy[src]
		idx[pos] = iCopy[src]
	}
}
