// Package service exposes a live runtime as a network query service:
// the deployment shape of Section VI, where "the scheduler and the
// property graph traversal engines communicate through a set of
// sockets". The protocol is length-free gob framing over TCP with
// pipelined request/response matching by ID.
package service

import (
	"fmt"

	"subtrav/internal/graph"
	"subtrav/internal/live"
	"subtrav/internal/metrics"
	"subtrav/internal/obs"
	"subtrav/internal/predicate"
	"subtrav/internal/traverse"
)

// WireQuery is the serializable query form. It mirrors
// traverse.Query minus the predicate closures (declarative predicates
// travel as PropEquals pairs).
type WireQuery struct {
	// Op is one of "bfs", "sssp", "collab", "rwr".
	Op     string
	Start  int32
	Target int32

	// Tenant attributes the query to a named tenant for per-tenant
	// admission accounting and metrics ("" = the default bucket). The
	// server folds unseen tenants past its cardinality cap into one
	// overflow bucket, so clients may not get per-name isolation under
	// tenant-name floods.
	Tenant string

	Depth     int
	MaxVisits int

	// VertexPropEquals / EdgePropEquals, when non-empty, require the
	// named string property to equal the given value.
	VertexPropName, VertexPropValue string
	EdgePropName, EdgePropValue     string

	// VertexFilter and EdgeFilter carry full predicate expressions in
	// the internal/predicate language (e.g. `age >= 30 && has(photo)`)
	// and compose (AND) with the PropEquals fields above.
	VertexFilter string
	EdgeFilter   string

	SimilarityThreshold float64

	Steps       int
	RestartProb float64
	TopK        int
	Seed        uint64
}

// ToQuery converts the wire form into an executable query.
func (w WireQuery) ToQuery() (traverse.Query, error) {
	q := traverse.Query{
		Start:               graph.VertexID(w.Start),
		Target:              graph.VertexID(w.Target),
		Depth:               w.Depth,
		MaxVisits:           w.MaxVisits,
		SimilarityThreshold: w.SimilarityThreshold,
		Steps:               w.Steps,
		RestartProb:         w.RestartProb,
		TopK:                w.TopK,
		Seed:                w.Seed,
	}
	switch w.Op {
	case "bfs":
		q.Op = traverse.OpBFS
	case "sssp":
		q.Op = traverse.OpSSSP
	case "collab":
		q.Op = traverse.OpCollab
	case "rwr":
		q.Op = traverse.OpRWR
	default:
		return traverse.Query{}, fmt.Errorf("service: unknown op %q", w.Op)
	}
	var vertexPreds, edgePreds []graph.Predicate
	if w.VertexPropName != "" {
		vertexPreds = append(vertexPreds, graph.PropEquals(w.VertexPropName, graph.String(w.VertexPropValue)))
	}
	if w.EdgePropName != "" {
		edgePreds = append(edgePreds, graph.PropEquals(w.EdgePropName, graph.String(w.EdgePropValue)))
	}
	if w.VertexFilter != "" {
		pred, err := predicate.Compile(w.VertexFilter)
		if err != nil {
			return traverse.Query{}, fmt.Errorf("service: vertex filter: %w", err)
		}
		if pred != nil {
			vertexPreds = append(vertexPreds, pred)
		}
	}
	if w.EdgeFilter != "" {
		pred, err := predicate.Compile(w.EdgeFilter)
		if err != nil {
			return traverse.Query{}, fmt.Errorf("service: edge filter: %w", err)
		}
		if pred != nil {
			edgePreds = append(edgePreds, pred)
		}
	}
	switch len(vertexPreds) {
	case 0:
	case 1:
		q.VertexPred = vertexPreds[0]
	default:
		q.VertexPred = graph.MatchAll(vertexPreds...)
	}
	switch len(edgePreds) {
	case 0:
	case 1:
		q.EdgePred = edgePreds[0]
	default:
		q.EdgePred = graph.MatchAll(edgePreds...)
	}
	return q, nil
}

// RequestKind discriminates request types.
type RequestKind uint8

const (
	// KindQuery executes a traversal (the default zero value).
	KindQuery RequestKind = iota
	// KindStats returns runtime statistics instead of running a query.
	KindStats
	// KindTrace returns the last TraceN completed trace spans from the
	// runtime's span ring (empty when the server runs with tracing
	// off).
	KindTrace
)

// Request is one framed client request.
type Request struct {
	ID    uint64
	Kind  RequestKind
	Query WireQuery
	// TimeoutNanos, when positive, bounds the query's end-to-end
	// server-side latency: the server derives a context deadline that
	// far in the future, and the runtime cancels the traversal when it
	// expires (reply code CodeDeadline).
	TimeoutNanos int64
	// TraceN is how many spans a KindTrace request asks for.
	TraceN int
}

// ReplyCode classifies a reply for the client's retry logic.
type ReplyCode uint8

const (
	// CodeOK is a successful reply (the zero value).
	CodeOK ReplyCode = iota
	// CodeError is a non-retryable failure: malformed query or
	// execution error.
	CodeError
	// CodeRejected means admission control refused the query
	// (backpressure). Retrying after RetryAfterNanos is expected to
	// succeed once load drains; see Client.DoRetry.
	CodeRejected
	// CodeDeadline means the query's deadline expired before it
	// finished; the traversal was cancelled and its unit freed.
	CodeDeadline
)

// WireRec is a serializable recommendation.
type WireRec struct {
	Product    int32
	Similarity float64
}

// WireRanked is a serializable ranking entry.
type WireRanked struct {
	Vertex int32
	Score  float64
}

// Reply is one framed server response.
type Reply struct {
	ID   uint64
	Err  string
	Code ReplyCode
	// RetryAfterNanos is the server's backoff hint on CodeRejected.
	RetryAfterNanos int64

	Visited         int
	Found           bool
	PathLen         int
	Recommendations []WireRec
	Ranking         []WireRanked

	Unit      int32
	WaitNanos int64
	ExecNanos int64

	// Stats fields, set for KindStats replies.
	TotalCompleted int64
	Units          []live.UnitStats
	Counters       metrics.Snapshot

	// Spans, set for KindTrace replies (oldest first). The runtime's
	// own types travel as they are: gob matches fields by name and
	// skips the ones a peer does not know, so either end may be built
	// from a revision whose span has more fields.
	Spans []obs.Span
}

// replyFrom converts an execution outcome into the wire form.
func replyFrom(id uint64, result traverse.Result, unit int32, waitNanos, execNanos int64) Reply {
	r := Reply{
		ID:        id,
		Visited:   result.Visited,
		Found:     result.Found,
		PathLen:   result.PathLen,
		Unit:      unit,
		WaitNanos: waitNanos,
		ExecNanos: execNanos,
	}
	for _, rec := range result.Recommendations {
		r.Recommendations = append(r.Recommendations, WireRec{Product: int32(rec.Product), Similarity: rec.Similarity})
	}
	for _, rk := range result.Ranking {
		r.Ranking = append(r.Ranking, WireRanked{Vertex: int32(rk.Vertex), Score: rk.Score})
	}
	return r
}
