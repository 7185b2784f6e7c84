// Package graphio persists property graphs to disk so the CLI tools
// can generate a dataset once and reuse it across experiment runs.
// Two formats coexist: the version-1 gob encoding in this file (the
// original executable spec, kept for backward compatibility) and the
// version-2 flat binary CSR snapshot in csr.go, which loads with one
// read or mmap and zero per-vertex or per-edge allocation, properties
// included. ReadGraphFile auto-detects the format by magic.
package graphio

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"subtrav/internal/graph"
)

// wireValue is the serializable form of graph.Value.
type wireValue struct {
	Kind uint8
	Str  string
	Num  int64
	F    float64
}

func toWire(v graph.Value) wireValue {
	w := wireValue{Kind: uint8(v.Kind())}
	switch v.Kind() {
	case graph.KindString:
		w.Str = v.Str()
	case graph.KindInt:
		w.Num = v.Int64()
	case graph.KindFloat:
		w.F = v.Float64()
	case graph.KindBool:
		if v.IsTrue() {
			w.Num = 1
		}
	case graph.KindBlob:
		w.Num = int64(v.BlobSize())
	}
	return w
}

func fromWire(w wireValue) (graph.Value, error) {
	switch graph.ValueKind(w.Kind) {
	case graph.KindString:
		return graph.String(w.Str), nil
	case graph.KindInt:
		return graph.Int(w.Num), nil
	case graph.KindFloat:
		return graph.Float(w.F), nil
	case graph.KindBool:
		return graph.Bool(w.Num != 0), nil
	case graph.KindBlob:
		return graph.Blob(int(w.Num)), nil
	default:
		return graph.Value{}, fmt.Errorf("graphio: unknown value kind %d", w.Kind)
	}
}

// fileGraph is the on-disk snapshot.
type fileGraph struct {
	Magic       string
	Version     int
	Kind        uint8
	NumVertices int

	// Logical edges.
	Srcs, Dsts []int32
	Weights    []float32 // nil when unweighted
	EProps     []map[string]wireValue

	VProps    map[int32]map[string]wireValue
	Partition []int32
}

const (
	magic   = "subtrav-graph"
	version = 1
)

// Write encodes the graph to w.
func Write(w io.Writer, g *graph.Graph) error {
	return encodeGraph(gob.NewEncoder(w), g)
}

// encodeGraph writes the graph as one gob value on enc, so callers can
// compose it with other values in a single stream.
func encodeGraph(enc *gob.Encoder, g *graph.Graph) error {
	if g == nil {
		return fmt.Errorf("graphio: nil graph")
	}
	fg := fileGraph{
		Magic:       magic,
		Version:     version,
		Kind:        uint8(g.Kind()),
		NumVertices: g.NumVertices(),
	}

	// Recover logical edges from the CSR: each logical edge is
	// reported once (its first slot encounter).
	seen := make([]bool, g.NumEdges())
	hasWeights := g.HasWeights()
	var hasEProps bool
	for v := 0; v < g.NumVertices(); v++ {
		lo, hi := g.EdgeSlots(graph.VertexID(v))
		for s := lo; s < hi; s++ {
			e := g.LogicalEdge(s)
			if seen[e] {
				continue
			}
			seen[e] = true
			fg.Srcs = append(fg.Srcs, int32(v))
			fg.Dsts = append(fg.Dsts, int32(g.TargetAt(s)))
			if hasWeights {
				fg.Weights = append(fg.Weights, g.Weight(e))
			}
			props := g.EdgeProps(e)
			if props.Len() > 0 {
				hasEProps = true
			}
			fg.EProps = append(fg.EProps, propsToWire(props))
		}
	}
	if !hasEProps {
		fg.EProps = nil
	}

	fg.VProps = make(map[int32]map[string]wireValue)
	for v := 0; v < g.NumVertices(); v++ {
		if p := g.VertexProps(graph.VertexID(v)); p.Len() > 0 {
			fg.VProps[int32(v)] = propsToWire(p)
		}
	}
	if g.NumPartitions() > 0 {
		fg.Partition = make([]int32, g.NumVertices())
		for v := 0; v < g.NumVertices(); v++ {
			fg.Partition[v] = g.Partition(graph.VertexID(v))
		}
	}
	return enc.Encode(fg)
}

// Read decodes a graph from r.
func Read(r io.Reader) (*graph.Graph, error) {
	return decodeGraph(gob.NewDecoder(r))
}

// decodeGraph reads one graph value from dec.
func decodeGraph(dec *gob.Decoder) (*graph.Graph, error) {
	var fg fileGraph
	if err := dec.Decode(&fg); err != nil {
		return nil, fmt.Errorf("graphio: decode: %w", err)
	}
	if fg.Magic != magic {
		return nil, fmt.Errorf("graphio: bad magic %q", fg.Magic)
	}
	if fg.Version != version {
		return nil, fmt.Errorf("graphio: unsupported version %d", fg.Version)
	}
	if len(fg.Srcs) != len(fg.Dsts) {
		return nil, fmt.Errorf("graphio: corrupt edge arrays (%d vs %d)", len(fg.Srcs), len(fg.Dsts))
	}

	b := graph.NewBuilder(graph.Kind(fg.Kind), fg.NumVertices)
	for i := range fg.Srcs {
		w := float32(1)
		if fg.Weights != nil {
			w = fg.Weights[i]
		}
		var props graph.Properties
		if fg.EProps != nil {
			var err error
			props, err = propsFromWire(fg.EProps[i])
			if err != nil {
				return nil, err
			}
		}
		b.AddEdgeFull(graph.VertexID(fg.Srcs[i]), graph.VertexID(fg.Dsts[i]), w, props)
	}
	for v, wp := range fg.VProps {
		props, err := propsFromWire(wp)
		if err != nil {
			return nil, err
		}
		b.SetVertexProps(graph.VertexID(v), props)
	}
	if fg.Partition != nil {
		b.SetPartition(fg.Partition)
	}
	return b.Build(), nil
}

func propsToWire(p graph.Props) map[string]wireValue {
	if p.Len() == 0 {
		return nil
	}
	out := make(map[string]wireValue, p.Len())
	for i := 0; i < p.Len(); i++ {
		k, v := p.At(i)
		out[k] = toWire(v)
	}
	return out
}

func propsFromWire(wp map[string]wireValue) (graph.Properties, error) {
	if wp == nil {
		return nil, nil
	}
	out := make(graph.Properties, len(wp))
	for k, w := range wp {
		v, err := fromWire(w)
		if err != nil {
			return nil, err
		}
		out[k] = v
	}
	return out, nil
}

// WriteFile writes the graph to path.
func WriteFile(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := Write(w, g); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile reads a graph from path.
func ReadFile(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(bufio.NewReaderSize(f, 1<<20))
}
