package service

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"subtrav/internal/traverse"
)

// Offsets into a request frame (length prefix included) of the fields
// the corruption table rewrites; see the layout in wire.go.
const (
	kindAt   = 4 + 8
	opAt     = 4 + 25
	tenantAt = 4 + 90
)

// corruptRequestFixture is a valid request frame whose strings are all
// non-empty.
func corruptRequestFixture(t *testing.T) []byte {
	t.Helper()
	frame, err := appendRequest(nil, &Request{
		ID: 7, Kind: KindQuery, TimeoutNanos: 1e6,
		Query: WireQuery{
			Op: "rwr", Start: 3, Tenant: "acme", Steps: 100, TopK: 5, Seed: 9,
			VertexFilter: "age > 3", EdgeFilter: "has(w)",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := le.Uint32(frame[tenantAt:]); n != 4 {
		t.Fatalf("fixture: tenant length at offset %d reads %d, want 4", tenantAt, n)
	}
	return frame
}

// TestRequestOpRoundTrip: every op travels as uint8(op)+1 and decodes
// back to its name, and the empty op of a query-less request as 0.
func TestRequestOpRoundTrip(t *testing.T) {
	for _, op := range []traverse.Op{traverse.OpBFS, traverse.OpSSSP, traverse.OpCollab, traverse.OpRWR} {
		frame := corruptRequestFixture(t)
		frame[opAt] = uint8(op) + 1
		req, err := decodeFrame(frame)
		if err != nil || req.Query.Op != op.String() {
			t.Fatalf("op code %d decodes to %q, %v, want %q", uint8(op)+1, req.Query.Op, err, op)
		}
		again, err := appendRequest(nil, &req)
		if err != nil || !bytes.Equal(again, frame) {
			t.Errorf("op %s: re-encoded frame differs (%v)", op, err)
		}
	}
	frame, err := appendRequest(nil, &Request{Kind: KindStats})
	if err != nil || frame[opAt] != 0 {
		t.Fatalf("a request without a query encodes op %d, %v, want 0", frame[opAt], err)
	}
	if req, err := decodeFrame(frame); err != nil || req.Query.Op != "" {
		t.Errorf("op 0 decodes to %q, %v, want the empty op", req.Query.Op, err)
	}
}

// decodeFrame decodes one request frame held in data.
func decodeFrame(data []byte) (Request, error) {
	p, err := readFrame(bytes.NewReader(data), nil, maxRequestFrame)
	if err != nil {
		return Request{}, err
	}
	return decodeRequest(p)
}

// TestDecodeRequestCorruptionTable applies one defect per case to a
// valid frame: each must come back as an error, never a panic or an
// allocation the frame did not pay for.
func TestDecodeRequestCorruptionTable(t *testing.T) {
	pristine := corruptRequestFixture(t)
	if req, err := decodeFrame(pristine); err != nil || req.Query.Tenant != "acme" || req.Query.Op != "rwr" {
		t.Fatalf("pristine fixture decodes to %+v, %v", req, err)
	}
	setLen := func(d []byte, n uint32) []byte { le.PutUint32(d, n); return d }
	for _, c := range []struct {
		name      string
		corrupt   func(d []byte) []byte
		malformed bool // the error wraps errMalformed; otherwise it is the reader's
	}{
		{"truncated prefix", func(d []byte) []byte { return d[:3] }, false},
		{"empty stream", func(d []byte) []byte { return d[:0] }, false},
		{"length over the cap", func(d []byte) []byte { return setLen(d, maxRequestFrame+1) }, true},
		{"length at 4 GiB", func(d []byte) []byte { return setLen(d, 1<<32-1) }, true},
		{"payload shorter than its prefix", func(d []byte) []byte { return d[:len(d)-1] }, true},
		{"payload cut inside the header", func(d []byte) []byte { return setLen(d[:4+12], 12) }, true},
		{"string length past the frame", func(d []byte) []byte { le.PutUint32(d[tenantAt:], 1<<20); return d }, true},
		{"string length at 4 GiB", func(d []byte) []byte { le.PutUint32(d[tenantAt:], 1<<32-1); return d }, true},
		{"trailing bytes", func(d []byte) []byte { return setLen(append(d, 0), uint32(len(d)-3)) }, true},
		{"unknown kind", func(d []byte) []byte { d[kindAt] = uint8(KindTrace) + 1; return d }, true},
		{"unknown op", func(d []byte) []byte { d[opAt] = uint8(traverse.OpRWR) + 2; return d }, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			data := c.corrupt(append([]byte(nil), pristine...))
			req, err := decodeFrame(data)
			if err == nil {
				t.Fatalf("decoded %+v", req)
			}
			if got := errors.Is(err, errMalformed); got != c.malformed {
				t.Errorf("error %q: wraps errMalformed = %t, want %t", err, got, c.malformed)
			}
		})
	}
}

// TestDecodeReplyCorruptionTable is the client's side: counts that
// promise more than the frame holds, a diagnostics body that is not
// JSON, and bytes past the layout are errors.
func TestDecodeReplyCorruptionTable(t *testing.T) {
	frame := appendReply(nil, replyHead{ID: 3}, nil, []byte(`{"TotalCompleted":2}`))
	payload := frame[4:]
	if r, err := decodeReply(payload); err != nil || r.TotalCompleted != 2 {
		t.Fatalf("pristine reply decodes to %+v, %v", r, err)
	}
	// The recommendation count follows ID, Code, RetryAfterNanos, an
	// empty Err, Unit, WaitNanos, ExecNanos, Visited, Found, PathLen.
	const recsAt = 8 + 1 + 8 + 4 + 4 + 8 + 8 + 8 + 1 + 8
	diagAt := len(payload) - len(`{"TotalCompleted":2}`) - 4
	for _, c := range []struct {
		name    string
		corrupt func(d []byte) []byte
	}{
		{"entries past the frame", func(d []byte) []byte { le.PutUint32(d[recsAt:], 1<<28); return d }},
		{"diagnostics past the frame", func(d []byte) []byte { le.PutUint32(d[diagAt:], 1<<20); return d }},
		{"diagnostics not JSON", func(d []byte) []byte { d[len(d)-1] = '!'; return d }},
		{"trailing bytes", func(d []byte) []byte { return append(d, 0) }},
		{"truncated", func(d []byte) []byte { return d[:len(d)/2] }},
	} {
		t.Run(c.name, func(t *testing.T) {
			r, err := decodeReply(c.corrupt(append([]byte(nil), payload...)))
			if !errors.Is(err, errMalformed) {
				t.Fatalf("decoded %+v, error %v", r, err)
			}
		})
	}
}

// TestCorruptFrameDropsOnlyItsConnection: a connection that sends a
// frame over the cap is closed before the server reads its payload,
// while another connection to the same server is still served.
func TestCorruptFrameDropsOnlyItsConnection(t *testing.T) {
	t.Parallel()
	client, stop := startService(t)
	defer stop()
	for _, c := range []struct {
		name  string
		frame []byte
	}{
		{"over the cap", le.AppendUint32(nil, maxRequestFrame+1)},
		{"unknown op", func() []byte {
			d := corruptRequestFixture(t)
			d[opAt] = 0xff
			return d
		}()},
	} {
		raw, err := net.Dial("tcp", client.conn.RemoteAddr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := raw.Write(c.frame); err != nil {
			t.Fatal(err)
		}
		raw.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := raw.Read(make([]byte, 1)); err != io.EOF {
			t.Errorf("%s: read after a bad frame = %d, %v; want the server to close the connection", c.name, n, err)
		}
		raw.Close()
		if _, err := client.Do(WireQuery{Op: "bfs", Start: 1, Depth: 1}); err != nil {
			t.Errorf("%s: the other connection is not served: %v", c.name, err)
		}
	}
}
