// Package service exposes a live runtime as a network query service:
// the deployment shape of Section VI, where "the scheduler and the
// property graph traversal engines communicate through a set of
// sockets". Every message is one frame over TCP: a little-endian
// uint32 payload length, then the payload. A connection pipelines its
// requests, and replies, which come back in completion order, are
// matched by ID. A request frame may carry at most maxRequestFrame
// bytes and a reply frame maxReplyFrame; the diagnostic replies
// (KindStats, KindTrace) carry their payload as JSON inside the frame.
package service

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"subtrav/internal/graph"
	"subtrav/internal/live"
	"subtrav/internal/metrics"
	"subtrav/internal/obs"
	"subtrav/internal/predicate"
	"subtrav/internal/traverse"
)

const (
	// maxRequestFrame caps a request frame's payload. The server drops
	// a connection whose frame declares more, before reading it.
	maxRequestFrame = 1 << 20
	// maxReplyFrame caps a reply frame's payload. The client drops a
	// connection whose frame declares more; the server answers a
	// request whose reply would not fit with a CodeError reply.
	maxReplyFrame = 64 << 20
	// maxBacklog is how many encoded reply bytes a connection may owe
	// its peer: a reply that finds at least this much not yet handed
	// to the socket closes the connection instead of growing the debt.
	maxBacklog = 1 << 20
)

// errMalformed marks a frame that does not decode: every decoding
// error wraps it.
var errMalformed = errors.New("service: malformed frame")

// WireQuery is the serializable query form. It mirrors
// traverse.Query minus the predicate closures (predicates travel as
// expressions in the internal/predicate language).
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

	// VertexFilter and EdgeFilter carry predicate expressions in the
	// internal/predicate language (e.g. `age >= 30 && has(photo)`).
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
	op, err := traverse.ParseOp(w.Op)
	if err != nil {
		return traverse.Query{}, fmt.Errorf("service: %w", err)
	}
	q := traverse.Query{
		Op:                  op,
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
	if q.VertexPred, err = predicate.Compile(w.VertexFilter); err != nil {
		return traverse.Query{}, fmt.Errorf("service: vertex filter: %w", err)
	}
	if q.EdgePred, err = predicate.Compile(w.EdgeFilter); err != nil {
		return traverse.Query{}, fmt.Errorf("service: edge filter: %w", err)
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

	// Spans, set for KindTrace replies (oldest first).
	Spans []obs.Span
}

// diagnostics is the JSON body of a KindStats or KindTrace reply. The
// runtime's own types travel as they are: JSON matches fields by name
// and skips the ones a peer does not know, so either end may be built
// from a revision whose span has more fields.
type diagnostics struct {
	TotalCompleted int64
	Units          []live.UnitStats
	Counters       metrics.Snapshot
	Spans          []obs.Span
}

// Frame layout. Integers are little-endian and fixed-width; a float is
// its IEEE-754 bits; a string is a uint32 byte count, then the bytes.
//
//	request: ID u64 | Kind u8 | TimeoutNanos i64 | TraceN i64 |
//	         op u8 | Start i32 | Target i32 | Depth i64 | MaxVisits i64 |
//	         SimilarityThreshold f64 | Steps i64 | RestartProb f64 |
//	         TopK i64 | Seed u64 | Tenant str | VertexFilter str |
//	         EdgeFilter str
//	reply:   ID u64 | Code u8 | RetryAfterNanos i64 | Err str |
//	         Unit i32 | WaitNanos i64 | ExecNanos i64 |
//	         Visited i64 | Found u8 | PathLen i64 |
//	         n u32, n × (Product i32, Similarity f64) |
//	         n u32, n × (Vertex i32, Score f64) |
//	         diagnostics str (JSON; empty on a query's reply)
//
// Every field is present in every frame: a stats request carries an
// empty query, a query's reply an empty diagnostics string.

// entrySize is the wire size of a recommendation or ranking entry.
const entrySize = 4 + 8

var le = binary.LittleEndian

func appendStr(b []byte, s string) []byte {
	b = le.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// beginFrame reserves b's length prefix; endFrame fills it in once the
// payload after it is written.
func beginFrame(b []byte) ([]byte, int) {
	return append(b, 0, 0, 0, 0), len(b)
}

func endFrame(b []byte, start int) []byte {
	le.PutUint32(b[start:], uint32(len(b)-start-4))
	return b
}

// appendRequest appends r's frame to b. An op outside the protocol's,
// or a frame over maxRequestFrame, is an error, and b is returned
// unchanged.
func appendRequest(b []byte, r *Request) ([]byte, error) {
	// An op travels as uint8(traverse.Op)+1; 0 is the empty op of a
	// request that carries no query.
	var op uint8
	if r.Query.Op != "" {
		o, err := traverse.ParseOp(r.Query.Op)
		if err != nil {
			return b, fmt.Errorf("service: %w", err)
		}
		op = uint8(o) + 1
	}
	q := &r.Query
	b0 := b
	b, start := beginFrame(b)
	b = le.AppendUint64(b, r.ID)
	b = append(b, uint8(r.Kind))
	b = le.AppendUint64(b, uint64(r.TimeoutNanos))
	b = le.AppendUint64(b, uint64(r.TraceN))
	b = append(b, op)
	b = le.AppendUint32(b, uint32(q.Start))
	b = le.AppendUint32(b, uint32(q.Target))
	b = le.AppendUint64(b, uint64(q.Depth))
	b = le.AppendUint64(b, uint64(q.MaxVisits))
	b = le.AppendUint64(b, math.Float64bits(q.SimilarityThreshold))
	b = le.AppendUint64(b, uint64(q.Steps))
	b = le.AppendUint64(b, math.Float64bits(q.RestartProb))
	b = le.AppendUint64(b, uint64(q.TopK))
	b = le.AppendUint64(b, q.Seed)
	b = appendStr(b, q.Tenant)
	b = appendStr(b, q.VertexFilter)
	b = appendStr(b, q.EdgeFilter)
	if n := len(b) - start - 4; n > maxRequestFrame {
		return b0, fmt.Errorf("service: request of %d bytes over the %d-byte frame cap", n, maxRequestFrame)
	}
	return endFrame(b, start), nil
}

// replyHead is what every reply frame says before its result: whose
// reply it is and how the request ended.
type replyHead struct {
	ID              uint64
	Code            ReplyCode
	RetryAfterNanos int64
	Err             string
}

// appendReply appends the frame of a reply carrying h, then resp's
// result and timings when resp is non-nil, then diag.
func appendReply(b []byte, h replyHead, resp *live.Response, diag []byte) []byte {
	var res traverse.Result
	var unit int32
	var wait, exec time.Duration
	if resp != nil {
		res, unit, wait, exec = resp.Result, resp.Unit, resp.Wait, resp.Exec
	}
	b, start := beginFrame(b)
	b = le.AppendUint64(b, h.ID)
	b = append(b, uint8(h.Code))
	b = le.AppendUint64(b, uint64(h.RetryAfterNanos))
	b = appendStr(b, h.Err)
	b = le.AppendUint32(b, uint32(unit))
	b = le.AppendUint64(b, uint64(wait))
	b = le.AppendUint64(b, uint64(exec))
	b = le.AppendUint64(b, uint64(res.Visited))
	found := uint8(0)
	if res.Found {
		found = 1
	}
	b = append(b, found)
	b = le.AppendUint64(b, uint64(res.PathLen))
	b = le.AppendUint32(b, uint32(len(res.Recommendations)))
	for _, r := range res.Recommendations {
		b = le.AppendUint32(b, uint32(r.Product))
		b = le.AppendUint64(b, math.Float64bits(r.Similarity))
	}
	b = le.AppendUint32(b, uint32(len(res.Ranking)))
	for _, r := range res.Ranking {
		b = le.AppendUint32(b, uint32(r.Vertex))
		b = le.AppendUint64(b, math.Float64bits(r.Score))
	}
	b = le.AppendUint32(b, uint32(len(diag)))
	b = append(b, diag...)
	return endFrame(b, start)
}

// readFrame reads one frame from r into buf, grown as needed, and
// returns its payload. A payload declared larger than limit is an
// error, raised before any of it is read.
func readFrame(r io.Reader, buf []byte, limit int) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4, 512)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return buf, err
	}
	n := le.Uint32(buf[:4])
	if uint64(n) > uint64(limit) {
		return buf, fmt.Errorf("%w: frame of %d bytes over the %d-byte cap", errMalformed, n, limit)
	}
	if uint64(n) > uint64(cap(buf)) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return buf, fmt.Errorf("%w: truncated payload: %w", errMalformed, err)
	}
	return buf, nil
}

// decoder reads a payload front to back. The first read past its end
// records an error, and every read after that returns zero.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n > len(d.b) {
		d.err = fmt.Errorf("%w: payload ends %d bytes early", errMalformed, n-len(d.b))
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

func (d *decoder) u8() uint8 {
	if p := d.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (d *decoder) u32() uint32 {
	if p := d.take(4); p != nil {
		return le.Uint32(p)
	}
	return 0
}

func (d *decoder) u64() uint64 {
	if p := d.take(8); p != nil {
		return le.Uint64(p)
	}
	return 0
}

func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

// count reads an element count and checks that count elements of size
// bytes fit in what is left of the payload.
func (d *decoder) count(size int) int {
	n := d.u32()
	if d.err == nil && uint64(n)*uint64(size) > uint64(len(d.b)) {
		d.err = fmt.Errorf("%w: %d elements of %d bytes past the frame's end", errMalformed, n, size)
		return 0
	}
	return int(n)
}

func (d *decoder) str() string { return string(d.take(d.count(1))) }

// end reports the first error, or trailing bytes the layout does not
// account for.
func (d *decoder) end() error {
	if d.err == nil && len(d.b) > 0 {
		d.err = fmt.Errorf("%w: %d trailing bytes", errMalformed, len(d.b))
	}
	return d.err
}

// decodeRequest decodes a request frame's payload.
func decodeRequest(p []byte) (Request, error) {
	d := decoder{b: p}
	var r Request
	r.ID = d.u64()
	r.Kind = RequestKind(d.u8())
	r.TimeoutNanos = int64(d.u64())
	r.TraceN = int(d.u64())
	op := d.u8()
	q := &r.Query
	q.Start = int32(d.u32())
	q.Target = int32(d.u32())
	q.Depth = int(d.u64())
	q.MaxVisits = int(d.u64())
	q.SimilarityThreshold = d.f64()
	q.Steps = int(d.u64())
	q.RestartProb = d.f64()
	q.TopK = int(d.u64())
	q.Seed = d.u64()
	q.Tenant = d.str()
	q.VertexFilter = d.str()
	q.EdgeFilter = d.str()
	if err := d.end(); err != nil {
		return Request{}, err
	}
	if r.Kind > KindTrace {
		return Request{}, fmt.Errorf("%w: unknown request kind %d", errMalformed, r.Kind)
	}
	if op > 0 {
		q.Op = traverse.Op(op - 1).String()
		if _, err := traverse.ParseOp(q.Op); err != nil {
			return Request{}, fmt.Errorf("%w: unknown op %d", errMalformed, op)
		}
	}
	return r, nil
}

// decodeReply decodes a reply frame's payload.
func decodeReply(p []byte) (Reply, error) {
	d := decoder{b: p}
	var r Reply
	r.ID = d.u64()
	r.Code = ReplyCode(d.u8())
	r.RetryAfterNanos = int64(d.u64())
	r.Err = d.str()
	r.Unit = int32(d.u32())
	r.WaitNanos = int64(d.u64())
	r.ExecNanos = int64(d.u64())
	r.Visited = int(d.u64())
	r.Found = d.u8() != 0
	r.PathLen = int(d.u64())
	if n := d.count(entrySize); n > 0 {
		r.Recommendations = make([]WireRec, n)
		for i := range r.Recommendations {
			r.Recommendations[i] = WireRec{Product: int32(d.u32()), Similarity: d.f64()}
		}
	}
	if n := d.count(entrySize); n > 0 {
		r.Ranking = make([]WireRanked, n)
		for i := range r.Ranking {
			r.Ranking[i] = WireRanked{Vertex: int32(d.u32()), Score: d.f64()}
		}
	}
	diag := d.take(d.count(1))
	if err := d.end(); err != nil {
		return Reply{}, err
	}
	if len(diag) > 0 {
		var body diagnostics
		if err := json.Unmarshal(diag, &body); err != nil {
			return Reply{}, fmt.Errorf("%w: diagnostics: %w", errMalformed, err)
		}
		r.TotalCompleted, r.Units, r.Counters, r.Spans = body.TotalCompleted, body.Units, body.Counters, body.Spans
	}
	return r, nil
}
