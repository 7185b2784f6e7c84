package graphio

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"subtrav/internal/graph"
)

// corruptFixture builds a graph that exercises every one of the twelve
// v2 sections the writer emits: undirected (edgeidx), weighted, vertex
// + edge props (idx, recs, arena), explicit partition.
func corruptFixture(t *testing.T) []byte {
	t.Helper()
	b := graph.NewBuilder(graph.Undirected, 6)
	b.AddEdgeFull(0, 1, 2.5, graph.Properties{"via": graph.String("road"), "len": graph.Int(42)})
	b.AddEdgeFull(1, 2, 0.5, graph.Properties{"via": graph.String("rail")})
	b.AddWeightedEdge(2, 3, 4)
	b.AddWeightedEdge(3, 4, 8)
	b.AddWeightedEdge(4, 5, 16)
	b.SetVertexProps(0, graph.Properties{"name": graph.String("hub"), "pic": graph.Blob(512)})
	b.SetVertexProps(5, graph.Properties{"score": graph.Float(1.5), "ok": graph.Bool(true)})
	b.SetPartition([]int32{0, 0, 1, 1, 2, 2})
	var buf bytes.Buffer
	if err := WriteCSR(&buf, b.Build()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// tableEntry is a decoded section-table row plus the byte position of
// its fields, so tests can surgically corrupt one section.
type tableEntry struct {
	id      uint32
	off, ln uint64
	pos     int // entry start within the file
}

func parseTable(t *testing.T, data []byte) []tableEntry {
	t.Helper()
	nSec := int(le.Uint32(data[44:]))
	out := make([]tableEntry, nSec)
	for i := range out {
		pos := csrHeaderSize + i*csrEntrySize
		e := data[pos:]
		out[i] = tableEntry{id: le.Uint32(e), off: le.Uint64(e[8:]), ln: le.Uint64(e[16:]), pos: pos}
	}
	return out
}

func entryFor(t *testing.T, data []byte, id uint32) tableEntry {
	t.Helper()
	for _, e := range parseTable(t, data) {
		if e.id == id {
			return e
		}
	}
	t.Fatalf("fixture has no %s section", secName(id))
	return tableEntry{}
}

// refreshCRCs recomputes every payload checksum and the header
// checksum after a test mutated the file, so the mutation reaches the
// structural validation it targets instead of tripping a checksum.
func refreshCRCs(t *testing.T, data []byte) {
	t.Helper()
	for _, e := range parseTable(t, data) {
		if e.off+e.ln > uint64(len(data)) {
			continue // the test corrupted geometry on purpose
		}
		le.PutUint32(data[e.pos+24:], crc32.Checksum(data[e.off:e.off+e.ln], castagnoli))
	}
	h := crc32.New(castagnoli)
	h.Write(data[:48])
	h.Write(data[csrHeaderSize : csrHeaderSize+int(le.Uint32(data[44:]))*csrEntrySize])
	le.PutUint32(data[48:], h.Sum32())
}

// TestReadCSRCorruptionTable hits every header field and every section
// with targeted damage and asserts the decoder reports the right error
// class, names the offending section, and never panics. Each case also
// runs through the copying decode path.
func TestReadCSRCorruptionTable(t *testing.T) {
	pristine := corruptFixture(t)
	if _, err := ReadCSR(pristine); err != nil {
		t.Fatalf("pristine fixture does not decode: %v", err)
	}

	// The first entity of either property table owns two records (vertex
	// 0: name, pic; edge 0: len, via). swapRecs exchanges them, dupRec
	// copies the first over the second.
	firstTwo := func(t *testing.T, d []byte, id uint32) (a, b []byte) {
		e := entryFor(t, d, id)
		return d[e.off : e.off+propRecSize], d[e.off+propRecSize : e.off+2*propRecSize]
	}
	swapRecs := func(id uint32) func(*testing.T, []byte) []byte {
		return func(t *testing.T, d []byte) []byte {
			a, b := firstTwo(t, d, id)
			tmp := append([]byte(nil), a...)
			copy(a, b)
			copy(b, tmp)
			refreshCRCs(t, d)
			return d
		}
	}
	dupRec := func(id uint32) func(*testing.T, []byte) []byte {
		return func(t *testing.T, d []byte) []byte {
			a, b := firstTwo(t, d, id)
			copy(b, a)
			refreshCRCs(t, d)
			return d
		}
	}

	cases := []struct {
		name    string
		mutate  func(t *testing.T, d []byte) []byte
		wantErr error
		wantMsg string
	}{
		{"header-too-short", func(t *testing.T, d []byte) []byte { return d[:csrHeaderSize-1] },
			ErrCSRTruncated, "header"},
		{"bad-magic", func(t *testing.T, d []byte) []byte { d[0] ^= 0xff; return d },
			ErrCSRMagic, "magic"},
		{"future-version", func(t *testing.T, d []byte) []byte {
			le.PutUint32(d[8:], 3)
			refreshCRCs(t, d)
			return d
		}, ErrCSRVersion, "version 3"},
		{"invalid-kind", func(t *testing.T, d []byte) []byte {
			d[12] = 7
			refreshCRCs(t, d)
			return d
		}, ErrCSRCorrupt, "kind"},
		{"vertex-count-overflows-int32", func(t *testing.T, d []byte) []byte {
			le.PutUint64(d[16:], 1<<40)
			refreshCRCs(t, d)
			return d
		}, ErrCSRCorrupt, "int32"},
		{"vertex-count-exceeds-file", func(t *testing.T, d []byte) []byte {
			le.PutUint64(d[16:], uint64(len(d))) // needs 8 bytes per vertex
			refreshCRCs(t, d)
			return d
		}, ErrCSRTruncated, "impossible"},
		{"slot-count-exceeds-file", func(t *testing.T, d []byte) []byte {
			le.PutUint64(d[32:], uint64(len(d))) // needs 4 bytes per slot
			refreshCRCs(t, d)
			return d
		}, ErrCSRTruncated, "impossible"},
		{"too-many-sections", func(t *testing.T, d []byte) []byte {
			le.PutUint32(d[44:], csrMaxSections+1)
			return d
		}, ErrCSRCorrupt, "section table"},
		{"table-truncated", func(t *testing.T, d []byte) []byte { return d[:csrHeaderSize+csrEntrySize] },
			ErrCSRTruncated, "section table"},
		{"header-crc-flipped", func(t *testing.T, d []byte) []byte { d[49] ^= 0x01; return d },
			ErrCSRChecksum, "header"},
		{"section-ids-out-of-order", func(t *testing.T, d []byte) []byte {
			tab := parseTable(t, d)
			a, b := tab[0], tab[1]
			le.PutUint32(d[a.pos:], b.id)
			le.PutUint32(d[b.pos:], a.id)
			refreshCRCs(t, d)
			return d
		}, ErrCSRCorrupt, "out of order"},
		{"section-misaligned", func(t *testing.T, d []byte) []byte {
			e := entryFor(t, d, secTargets)
			le.PutUint64(d[e.pos+8:], e.off+4)
			refreshCRCs(t, d)
			return d
		}, ErrCSRCorrupt, "aligned"},
		{"section-overlap", func(t *testing.T, d []byte) []byte {
			first := parseTable(t, d)[0]
			second := parseTable(t, d)[1]
			le.PutUint64(d[second.pos+8:], first.off)
			refreshCRCs(t, d)
			return d
		}, ErrCSRCorrupt, "overlaps"},
		{"section-past-eof", func(t *testing.T, d []byte) []byte {
			e := entryFor(t, d, secArena)
			le.PutUint64(d[e.pos+16:], uint64(len(d)))
			refreshCRCs(t, d)
			return d
		}, ErrCSRTruncated, "arena section"},
		{"offsets-decrease", func(t *testing.T, d []byte) []byte {
			e := entryFor(t, d, secOffsets)
			le.PutUint64(d[e.off+8:], ^uint64(0)) // offsets[1] = -1
			refreshCRCs(t, d)
			return d
		}, ErrCSRCorrupt, "offsets"},
		{"target-out-of-range", func(t *testing.T, d []byte) []byte {
			e := entryFor(t, d, secTargets)
			le.PutUint32(d[e.off:], 1<<20)
			refreshCRCs(t, d)
			return d
		}, ErrCSRCorrupt, "target"},
		{"edgeidx-out-of-range", func(t *testing.T, d []byte) []byte {
			e := entryFor(t, d, secEdgeIdx)
			le.PutUint32(d[e.off:], 1<<20)
			refreshCRCs(t, d)
			return d
		}, ErrCSRCorrupt, "edge"},
		{"weights-wrong-length", func(t *testing.T, d []byte) []byte {
			e := entryFor(t, d, secWeights)
			le.PutUint64(d[e.pos+16:], e.ln-4)
			refreshCRCs(t, d)
			return d
		}, ErrCSRCorrupt, "weights section"},
		{"partition-count-mismatch", func(t *testing.T, d []byte) []byte {
			le.PutUint32(d[40:], 9)
			refreshCRCs(t, d)
			return d
		}, ErrCSRCorrupt, "partition"},
		{"vpropidx-bad-start", func(t *testing.T, d []byte) []byte {
			e := entryFor(t, d, secVPropIdx)
			le.PutUint32(d[e.off:], 1)
			refreshCRCs(t, d)
			return d
		}, ErrCSRCorrupt, "vpropidx"},
		{"vproprecs-not-record-multiple", func(t *testing.T, d []byte) []byte {
			e := entryFor(t, d, secVPropRecs)
			le.PutUint64(d[e.pos+16:], e.ln-4)
			refreshCRCs(t, d)
			return d
		}, ErrCSRCorrupt, "vproprecs section"},
		{"vproprecs-without-vpropidx", func(t *testing.T, d []byte) []byte {
			e := entryFor(t, d, secVPropIdx)
			le.PutUint64(d[e.pos+16:], 0)
			refreshCRCs(t, d)
			return d
		}, ErrCSRCorrupt, "without"},
		{"prop-key-past-arena", func(t *testing.T, d []byte) []byte {
			e := entryFor(t, d, secVPropRecs)
			le.PutUint32(d[e.off+4:], ^uint32(0)) // first record's key length
			refreshCRCs(t, d)
			return d
		}, ErrCSRCorrupt, "arena"},
		{"prop-unknown-value-kind", func(t *testing.T, d []byte) []byte {
			e := entryFor(t, d, secEPropRecs)
			le.PutUint32(d[e.off+8:], 99)
			refreshCRCs(t, d)
			return d
		}, ErrCSRCorrupt, "kind"},
		{"vprop-keys-unsorted", swapRecs(secVPropRecs), ErrCSRCorrupt, "vproprecs section: keys of entity 0 not strictly ascending"},
		{"eprop-keys-unsorted", swapRecs(secEPropRecs), ErrCSRCorrupt, "eproprecs section: keys of entity 0 not strictly ascending"},
		{"vprop-duplicate-key", dupRec(secVPropRecs), ErrCSRCorrupt, "vproprecs section: keys of entity 0 not strictly ascending"},
		{"eprop-duplicate-key", dupRec(secEPropRecs), ErrCSRCorrupt, "eproprecs section: keys of entity 0 not strictly ascending"},
		{"epropidx-range-decreases", func(t *testing.T, d []byte) []byte {
			e := entryFor(t, d, secEPropIdx)
			le.PutUint32(d[e.off+12:], 2) // the index reads 0,2,3,2,3,3: edge 2 owns [3,2)
			refreshCRCs(t, d)
			return d
		}, ErrCSRCorrupt, "epropidx"},
		{"vpropidx-ends-early", func(t *testing.T, d []byte) []byte {
			e := entryFor(t, d, secVPropIdx)
			le.PutUint32(d[e.off+e.ln-4:], 2) // four records, the index stops at 2
			refreshCRCs(t, d)
			return d
		}, ErrCSRCorrupt, "vpropidx"},
		{"prop-blob-overflows", func(t *testing.T, d []byte) []byte {
			e := entryFor(t, d, secVPropRecs)
			le.PutUint64(d[e.off+propRecSize+16:], 1<<63) // vertex 0's "pic"
			refreshCRCs(t, d)
			return d
		}, ErrCSRCorrupt, "blob"},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(t, append([]byte(nil), pristine...))
			for _, mode := range []bool{false, true} {
				_, err := decodeCSR(data, mode)
				if err == nil {
					t.Fatalf("copyMode=%v: corrupt input decoded successfully", mode)
				}
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("copyMode=%v: error %q does not wrap %q", mode, err, tc.wantErr)
				}
				if !strings.Contains(err.Error(), tc.wantMsg) {
					t.Fatalf("copyMode=%v: error %q does not mention %q", mode, err, tc.wantMsg)
				}
			}
		})
	}
}

// TestReadCSRSectionChecksums flips one payload byte inside every
// section — the twelve the writer emits and the three reserved ones an
// older build's file carries — and asserts the decoder reports a
// checksum failure naming exactly that section.
func TestReadCSRSectionChecksums(t *testing.T) {
	check := func(pristine []byte, e tableEntry) {
		t.Run(secName(e.id), func(t *testing.T) {
			data := append([]byte(nil), pristine...)
			data[e.off] ^= 0x40
			_, err := ReadCSR(data)
			if !errors.Is(err, ErrCSRChecksum) {
				t.Fatalf("error %v is not a checksum failure", err)
			}
			if !strings.Contains(err.Error(), secName(e.id)+" section") {
				t.Fatalf("error %q does not name the %s section", err, secName(e.id))
			}
		})
	}
	pristine := corruptFixture(t)
	for _, e := range parseTable(t, pristine) {
		check(pristine, e)
	}
	old := readInEdgeFixture(t)
	for _, e := range reservedEntries(t, old) {
		check(old, e)
	}
}

// TestReadCSRTruncatedAtEveryBoundary cuts the file at the start of
// every section (and a few interior points) and asserts a clean
// truncation error, never a panic or over-allocation.
func TestReadCSRTruncatedAtEveryBoundary(t *testing.T) {
	pristine := corruptFixture(t)
	cuts := []int{0, 1, csrHeaderSize - 1, csrHeaderSize}
	for _, e := range parseTable(t, pristine) {
		cuts = append(cuts, int(e.off), int(e.off)+1, int(e.off+e.ln)-1)
	}
	cuts = append(cuts, len(pristine)-1)
	for _, cut := range cuts {
		if cut >= len(pristine) {
			continue
		}
		data := pristine[:cut]
		if _, err := ReadCSR(data); err == nil {
			t.Fatalf("file truncated to %d bytes decoded successfully", cut)
		} else if !errors.Is(err, ErrCSRTruncated) && !errors.Is(err, ErrCSRChecksum) &&
			!errors.Is(err, ErrCSRMagic) && !errors.Is(err, ErrCSRCorrupt) {
			t.Fatalf("truncated to %d bytes: unexpected error class: %v", cut, err)
		}
	}
}

// inEdgeFixturePath is the golden snapshot as the last build that wrote
// the reverse-CSR sections (ids 13–15) encoded it: goldenGraph plus
// inoffsets, insources and inslots. Never regenerated — no writer can
// produce it any more.
const inEdgeFixturePath = "testdata/golden_inedges.csr2"

func readInEdgeFixture(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.FromSlash(inEdgeFixturePath))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// reservedEntries returns the table rows of data's reserved sections.
func reservedEntries(t *testing.T, data []byte) []tableEntry {
	t.Helper()
	var out []tableEntry
	for _, e := range parseTable(t, data) {
		if e.id > secArena {
			out = append(out, e)
		}
	}
	return out
}

// TestReadCSRInEdgeSections pins backward compatibility with snapshots
// that carry the reserved reverse-CSR sections: such a file loads, the
// graph equals the one its section-free twin (the current golden file)
// decodes to column for column, the reserved payload is checksummed
// but otherwise ignored, and writing the graph back drops the sections.
func TestReadCSRInEdgeSections(t *testing.T) {
	old := readInEdgeFixture(t)
	if n := len(reservedEntries(t, old)); n != 3 {
		t.Fatalf("compatibility fixture lists %d reserved sections, want 3", n)
	}
	got, err := ReadCSR(old)
	if err != nil {
		t.Fatalf("snapshot with in-edge sections does not load: %v", err)
	}
	twin, err := os.ReadFile(filepath.FromSlash(goldenPath))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReadCSR(twin)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.CSRView(), want.CSRView()) {
		t.Errorf("graph loaded with in-edge sections differs from its twin:\n got %+v\nwant %+v",
			got.CSRView(), want.CSRView())
	}
	var back bytes.Buffer
	if err := WriteCSR(&back, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Bytes(), twin) {
		t.Errorf("re-encoding the loaded graph gives %d bytes, want the twin's %d", back.Len(), len(twin))
	}

	// The payload is not decoded: damage that keeps the checksums valid
	// is invisible, where it used to fail the content cross-checks.
	scribbled := append([]byte(nil), old...)
	for _, e := range reservedEntries(t, scribbled) {
		scribbled[e.off] ^= 0x40
	}
	refreshCRCs(t, scribbled)
	if g, err := ReadCSR(scribbled); err != nil {
		t.Errorf("reserved payload was decoded: %v", err)
	} else if !reflect.DeepEqual(g.CSRView(), want.CSRView()) {
		t.Error("reserved payload leaked into the graph")
	}
}

// TestReadCSRArenaOffsetOverflow pins the overflow-safe bounds check
// in arenaString: a hostile string record carrying an arena offset
// near MaxUint64 made the naive off+len comparison wrap, pass, and
// panic on the slice. The decoder must reject it as corruption.
func TestReadCSRArenaOffsetOverflow(t *testing.T) {
	data := corruptFixture(t)
	e := entryFor(t, data, secVPropRecs)
	found := false
	for pos := int(e.off); pos < int(e.off+e.ln); pos += propRecSize {
		rec := data[pos : pos+propRecSize]
		if graph.ValueKind(le.Uint32(rec[8:])) == graph.KindString {
			le.PutUint32(rec[12:], 2)              // claimed string length
			le.PutUint64(rec[16:], math.MaxUint64) // offset that wraps the naive check
			found = true
			break
		}
	}
	if !found {
		t.Fatal("fixture has no string vertex property record")
	}
	refreshCRCs(t, data)
	_, err := ReadCSR(data)
	if !errors.Is(err, ErrCSRCorrupt) {
		t.Fatalf("overflowing arena offset: err = %v, want ErrCSRCorrupt", err)
	}
	if !strings.Contains(err.Error(), "arena") {
		t.Fatalf("error does not name the arena section: %v", err)
	}
}
