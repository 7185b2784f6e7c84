package sim

import (
	"testing"

	"subtrav/internal/cache"
	"subtrav/internal/graph"
	"subtrav/internal/traverse"
)

// cursorCost keeps the arithmetic checkable by hand: a hit on a record
// with e scanned edges costs 1+2+e, the local work after a miss of b
// bytes is 2+e+b/2.
var cursorCost = CostModel{MemHitNanos: 1, CPUVertexNanos: 2, CPUEdgeNanos: 1, CPUMissByteNanos: 0.5}

func access(v, bytes, edges int32) traverse.Access {
	return traverse.Access{Vertex: graph.VertexID(v), Bytes: bytes, ScannedEdges: edges}
}

func TestChargeCursor(t *testing.T) {
	// stroke is one RunHits call and, unless the trace is done after
	// it, the Fill of the miss it stopped at.
	type stroke struct {
		hitNanos  int64
		done      bool
		miss      int32 // vertex RunHits stopped at
		fillNanos int64
	}
	cases := []struct {
		name     string
		resident []int32 // vertices loaded before the replay
		speed    float64
		trace    []traverse.Access
		strokes  []stroke
		hits     int
		misses   int
		bytes    int64
	}{
		{
			name:     "hits only",
			resident: []int32{1, 2},
			speed:    1,
			trace:    []traverse.Access{access(1, 10, 0), access(2, 10, 4), access(1, 10, 1)},
			strokes:  []stroke{{hitNanos: 3 + 7 + 4, done: true}},
			hits:     3,
		},
		{
			name:    "miss at head",
			speed:   1,
			trace:   []traverse.Access{access(5, 8, 3)},
			strokes: []stroke{{miss: 5, fillNanos: 2 + 3 + 4}, {done: true}},
			misses:  1,
			bytes:   8,
		},
		{
			name:     "miss after a run of hits, then resume",
			resident: []int32{1, 2},
			speed:    1,
			trace: []traverse.Access{
				access(1, 10, 0), access(2, 10, 2), // hits
				access(3, 6, 1),  // miss
				access(3, 6, 0),  // the record just filled: a hit
				access(1, 10, 5), // hit
				access(4, 3, 0),  // miss: 2 + 0 + 1.5 truncates to 3
			},
			strokes: []stroke{
				{hitNanos: 3 + 5, miss: 3, fillNanos: 2 + 1 + 3},
				{hitNanos: 3 + 8, miss: 4, fillNanos: 3},
				{done: true},
			},
			hits:   4,
			misses: 2,
			bytes:  9,
		},
		{
			// Each access is scaled and truncated on its own: three
			// hits of 3 ns at 1.5× are 4+4+4, not int64(9·1.5) = 13.
			// The heterogeneous-unit figures depend on this.
			name:     "speed factor rounds per access",
			resident: []int32{1},
			speed:    1.5,
			trace:    []traverse.Access{access(1, 2, 0), access(1, 2, 0), access(1, 2, 0), access(2, 3, 0)},
			strokes: []stroke{
				{hitNanos: 12, miss: 2, fillNanos: 5}, // (2 + 1.5)·1.5 = 5.25
				{done: true},
			},
			hits:   3,
			misses: 1,
			bytes:  3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := cache.New(cache.Unlimited)
			for _, v := range tc.resident {
				buf.Access(cache.VertexKey(v), 1)
			}
			before := buf.Stats()
			cur := NewChargeCursor(&cursorCost, buf, tc.speed, &traverse.Trace{Accesses: tc.trace})
			for i, want := range tc.strokes {
				if got := cur.RunHits(); got != want.hitNanos {
					t.Fatalf("stroke %d: RunHits = %d, want %d", i, got, want.hitNanos)
				}
				if cur.Done() != want.done {
					t.Fatalf("stroke %d: Done = %v, want %v", i, cur.Done(), want.done)
				}
				if want.done {
					continue
				}
				// The miss is not consumed until it is filled: asking
				// again neither advances nor loads anything.
				missesBefore := buf.Stats().Misses
				if got := cur.RunHits(); got != 0 {
					t.Fatalf("stroke %d: second RunHits at a miss = %d, want 0", i, got)
				}
				if got := cur.Miss().Vertex; got != graph.VertexID(want.miss) {
					t.Fatalf("stroke %d: stopped at vertex %d, want %d", i, got, want.miss)
				}
				if buf.Contains(cache.VertexKey(want.miss)) || buf.Stats().Misses != missesBefore {
					t.Fatalf("stroke %d: the miss touched the buffer before Fill", i)
				}
				if got := cur.Fill(); got != want.fillNanos {
					t.Fatalf("stroke %d: Fill = %d, want %d", i, got, want.fillNanos)
				}
				if !buf.Contains(cache.VertexKey(want.miss)) {
					t.Fatalf("stroke %d: Fill did not load vertex %d", i, want.miss)
				}
			}
			if cur.Hits != tc.hits || cur.Misses != tc.misses || cur.BytesRead != tc.bytes {
				t.Errorf("counts = %d hits, %d misses, %d bytes; want %d, %d, %d",
					cur.Hits, cur.Misses, cur.BytesRead, tc.hits, tc.misses, tc.bytes)
			}
			// The cursor's counts are the buffer's, access for access.
			st := buf.Stats()
			if st.Hits-before.Hits != int64(tc.hits) || st.Misses-before.Misses != int64(tc.misses) ||
				st.BytesLoaded-before.BytesLoaded != tc.bytes {
				t.Errorf("buffer saw %+v since %+v, cursor counted %d/%d/%d", st, before, tc.hits, tc.misses, tc.bytes)
			}
		})
	}
}
