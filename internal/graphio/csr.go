package graphio

// Flat binary CSR snapshot — the version-2 on-disk graph format.
//
// A v2 file is a single contiguous buffer laid out as a fixed 64-byte
// header, a section table, and up to twelve 8-aligned sections:
//
//	header     magic "STRVCSR2", version, kind, counts, crc
//	table      one 32-byte entry per present section: id, offset,
//	           length, crc32c of the payload
//	offsets    (V+1) × int64   CSR row offsets
//	targets    slots × int32   adjacency targets, sorted per vertex
//	edgeidx    slots × int32   slot → logical edge (undirected only)
//	weights    E × float32     logical edge weights (optional)
//	vbytes     V × int32       serialized vertex record sizes
//	ebytes     E × int32       serialized edge payload sizes (optional)
//	partition  V × int32       partition labels (optional)
//	vpropidx   (V+1) × uint32  vertex → property record range
//	vproprecs  n × 24 bytes    fixed-size vertex property records
//	epropidx   (E+1) × uint32  edge → property record range
//	eproprecs  n × 24 bytes    fixed-size edge property records
//	arena      raw bytes       all keys and string values, deduplicated
//
// Older builds could append three more sections (ids 13–15: inoffsets,
// insources, inslots) holding a reverse-CSR view that nothing reads any
// more. This writer never emits them; the reader still accepts them in
// the table and verifies their geometry and checksums like any other
// section's, but does not decode the payload.
//
// All scalars are little-endian. Because every section is 8-aligned
// and already in the graph package's native column layout (the property
// sections are graph.PropColumn's index and records and the arena their
// strings point into), the whole file loads with one os.ReadFile or
// mmap and graph.FromCSR serves the sections as aliased slices — no
// per-vertex or per-edge allocation, no copying.
// The decoder validates magic, version, checksums, section geometry
// and all structural invariants before trusting anything, returns
// named errors (never panics) on hostile input, and bounds every
// allocation by the file size before believing header counts. Writes
// are deterministic: the same graph always produces identical bytes.
//
// Ownership: a graph decoded by ReadCSR borrows the input buffer for
// its whole lifetime. Mutating the buffer (or unmapping it, for
// MappedCSR) while the graph is in use is undefined behavior.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"unsafe"

	"subtrav/internal/graph"
)

const (
	csrMagic       = "STRVCSR2"
	csrVersion     = 2
	csrHeaderSize  = 64
	csrEntrySize   = 32
	csrAlign       = 8
	csrMaxSections = 16
	propRecSize    = 24
)

// Section ids in canonical file order. The table lists present
// sections in strictly ascending id order; absent ids mean an empty
// section.
const (
	secOffsets uint32 = iota + 1
	secTargets
	secEdgeIdx
	secWeights
	secVBytes
	secEBytes
	secPartition
	secVPropIdx
	secVPropRecs
	secEPropIdx
	secEPropRecs
	secArena
	// Reserved: the reverse-CSR sections of older builds (see the format
	// comment above). The ids are never reused.
	secInOffsets
	secInSources
	secInSlots
	secEnd // one past the largest id a table may list
)

// secNames is indexed by section id.
var secNames = [secEnd]string{"", "offsets", "targets", "edgeidx", "weights", "vbytes", "ebytes", "partition",
	"vpropidx", "vproprecs", "epropidx", "eproprecs", "arena", "inoffsets", "insources", "inslots"}

func secName(id uint32) string {
	if id == 0 || id >= secEnd {
		return fmt.Sprintf("section#%d", id)
	}
	return secNames[id]
}

// Sentinel error classes for v2 decode failures; every decode error
// wraps exactly one of them (and names the offending section).
var (
	ErrCSRMagic     = errors.New("not a csr graph file")
	ErrCSRVersion   = errors.New("unsupported csr version")
	ErrCSRTruncated = errors.New("truncated csr file")
	ErrCSRChecksum  = errors.New("csr checksum mismatch")
	ErrCSRCorrupt   = errors.New("corrupt csr file")
)

var (
	le         = binary.LittleEndian
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// ---- zero-copy slice reinterpretation -------------------------------

// aliasSlice reinterprets b as a []T without copying. Callers must
// have verified alignment and host byte order (see sliceOf*).
func aliasSlice[T any](b []byte) []T {
	var z T
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/int(unsafe.Sizeof(z)))
}

// aliasBytes reinterprets s as its raw bytes without copying.
func aliasBytes[T any](s []T) []byte {
	var z T
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(z)))
}

// byteString reinterprets b as a string aliasing the same bytes.
func byteString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// stringBytes reinterprets s as its raw bytes without copying.
func stringBytes(s string) []byte {
	return unsafe.Slice(unsafe.StringData(s), len(s))
}

// sliceOfI32 views a little-endian byte section as 32-bit signed
// elements: a zero-copy alias on aligned little-endian hosts, an
// explicit decode otherwise.
func sliceOfI32[T ~int32](b []byte, copyMode bool) []T {
	if !copyMode || len(b) == 0 {
		return aliasSlice[T](b)
	}
	out := make([]T, len(b)/4)
	for i := range out {
		out[i] = T(int32(le.Uint32(b[i*4:])))
	}
	return out
}

func sliceOfU32(b []byte, copyMode bool) []uint32 {
	if !copyMode || len(b) == 0 {
		return aliasSlice[uint32](b)
	}
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = le.Uint32(b[i*4:])
	}
	return out
}

func sliceOfI64(b []byte, copyMode bool) []int64 {
	if !copyMode || len(b) == 0 {
		return aliasSlice[int64](b)
	}
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(le.Uint64(b[i*8:]))
	}
	return out
}

func sliceOfF32(b []byte, copyMode bool) []float32 {
	if !copyMode || len(b) == 0 {
		return aliasSlice[float32](b)
	}
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(le.Uint32(b[i*4:]))
	}
	return out
}

// bytesOfI32 is the write-side inverse of sliceOfI32: alias on
// little-endian hosts, explicit little-endian encode otherwise.
func bytesOfI32[T ~int32](s []T) []byte {
	if hostLittleEndian {
		return aliasBytes(s)
	}
	out := make([]byte, 4*len(s))
	for i, v := range s {
		le.PutUint32(out[i*4:], uint32(int32(v)))
	}
	return out
}

func bytesOfU32(s []uint32) []byte {
	if hostLittleEndian {
		return aliasBytes(s)
	}
	out := make([]byte, 4*len(s))
	for i, v := range s {
		le.PutUint32(out[i*4:], v)
	}
	return out
}

func bytesOfI64(s []int64) []byte {
	if hostLittleEndian {
		return aliasBytes(s)
	}
	out := make([]byte, 8*len(s))
	for i, v := range s {
		le.PutUint64(out[i*8:], uint64(v))
	}
	return out
}

func bytesOfF32(s []float32) []byte {
	if hostLittleEndian {
		return aliasBytes(s)
	}
	out := make([]byte, 4*len(s))
	for i, v := range s {
		le.PutUint32(out[i*4:], math.Float32bits(v))
	}
	return out
}

// ---- property columns ------------------------------------------------

// sliceOfRecs views a record section as graph.PropRecord values, whose
// field layout is the record's: alias or explicit decode as above.
func sliceOfRecs(b []byte, copyMode bool) []graph.PropRecord {
	if !copyMode || len(b) == 0 {
		return aliasSlice[graph.PropRecord](b)
	}
	out := make([]graph.PropRecord, len(b)/propRecSize)
	for i := range out {
		rec := b[i*propRecSize:]
		out[i] = graph.PropRecord{KeyOff: le.Uint32(rec), KeyLen: le.Uint32(rec[4:]),
			Kind: le.Uint32(rec[8:]), Aux: le.Uint32(rec[12:]), Val: le.Uint64(rec[16:])}
	}
	return out
}

func bytesOfRecs(s []graph.PropRecord) []byte {
	if hostLittleEndian {
		return aliasBytes(s)
	}
	out := make([]byte, propRecSize*len(s))
	for i, r := range s {
		rec := out[i*propRecSize:]
		le.PutUint32(rec, r.KeyOff)
		le.PutUint32(rec[4:], r.KeyLen)
		le.PutUint32(rec[8:], r.Kind)
		le.PutUint32(rec[12:], r.Aux)
		le.PutUint64(rec[16:], r.Val)
	}
	return out
}

// arenaString aliases arena[off:off+ln]; table and role word the error.
func arenaString(arena []byte, off uint64, ln uint32, table, role string) (string, error) {
	// Checked as off > len || ln > len-off: the naive off+ln > len
	// wraps when a hostile record carries off near MaxUint64, passing
	// the check and panicking on the slice below.
	if off > uint64(len(arena)) || uint64(ln) > uint64(len(arena))-off {
		return "", fmt.Errorf("graphio: arena section: %s %s string [%d,+%d) past the %d-byte arena: %w",
			table, role, off, ln, len(arena), ErrCSRCorrupt)
	}
	return byteString(arena[off : off+uint64(ln)]), nil
}

// checkProps is the one pass over a property table before its sections
// are trusted: record ranges start at 0, never decrease and end at the
// last record; every key and string value lies inside the arena; every
// kind is known and no blob size overflows; and an entity's keys ascend
// strictly, so a lookup has one answer. It reads the raw little-endian
// bytes, whatever the host, and allocates nothing.
func checkProps(idx, recs, arena []byte, what string) error {
	n := len(idx)/4 - 1
	nRec := uint32(len(recs) / propRecSize)
	lo := le.Uint32(idx)
	if lo != 0 {
		return fmt.Errorf("graphio: %sidx section: starts at record %d, want 0: %w", what, lo, ErrCSRCorrupt)
	}
	for i := 0; i < n; i++ {
		hi := le.Uint32(idx[(i+1)*4:])
		if hi < lo || hi > nRec {
			return fmt.Errorf("graphio: %sidx section: record range [%d,%d) of entity %d decreases or passes the %d records: %w",
				what, lo, hi, i, nRec, ErrCSRCorrupt)
		}
		prev := ""
		for r := lo; r < hi; r++ {
			rec := recs[int(r)*propRecSize : int(r)*propRecSize+propRecSize]
			key, err := arenaString(arena, uint64(le.Uint32(rec)), le.Uint32(rec[4:]), what, "key")
			if err != nil {
				return err
			}
			if r > lo && key <= prev {
				return fmt.Errorf("graphio: %srecs section: keys of entity %d not strictly ascending (%q after %q): %w",
					what, i, key, prev, ErrCSRCorrupt)
			}
			prev = key
			switch kind, val := le.Uint32(rec[8:]), le.Uint64(rec[16:]); graph.ValueKind(kind) {
			case graph.KindString:
				if _, err := arenaString(arena, val, le.Uint32(rec[12:]), what, "value"); err != nil {
					return err
				}
			case graph.KindInt, graph.KindFloat, graph.KindBool:
			case graph.KindBlob:
				if val > math.MaxInt64 {
					return fmt.Errorf("graphio: %srecs section: blob size %d overflows: %w", what, val, ErrCSRCorrupt)
				}
			default:
				return fmt.Errorf("graphio: %srecs section: unknown value kind %d: %w", what, kind, ErrCSRCorrupt)
			}
		}
		lo = hi
	}
	if lo != nRec {
		return fmt.Errorf("graphio: %sidx section: ends at record %d, want the %d records: %w",
			what, lo, nRec, ErrCSRCorrupt)
	}
	return nil
}

// ---- writer ---------------------------------------------------------

// WriteCSR encodes the graph in the v2 flat binary CSR format. The
// encoding is deterministic: the same graph always yields identical
// bytes, so tracked snapshot files diff cleanly.
func WriteCSR(w io.Writer, g *graph.Graph) error {
	if g == nil {
		return fmt.Errorf("graphio: nil graph")
	}
	d := g.CSRView()

	type section struct {
		id   uint32
		data []byte
	}
	var secs []section
	add := func(id uint32, b []byte) {
		if len(b) > 0 {
			secs = append(secs, section{id, b})
		}
	}
	add(secOffsets, bytesOfI64(d.Offsets))
	add(secTargets, bytesOfI32(d.Targets))
	add(secEdgeIdx, bytesOfI32(d.EdgeIdx))
	add(secWeights, bytesOfF32(d.Weights))
	add(secVBytes, bytesOfI32(d.VBytes))
	add(secEBytes, bytesOfI32(d.EBytes))
	add(secPartition, bytesOfI32(d.Partition))
	add(secVPropIdx, bytesOfU32(d.VProps.Index))
	add(secVPropRecs, bytesOfRecs(d.VProps.Recs))
	add(secEPropIdx, bytesOfU32(d.EProps.Index))
	add(secEPropRecs, bytesOfRecs(d.EProps.Recs))
	add(secArena, stringBytes(d.Arena))

	// Lay sections out back to back, 8-aligned, directly after the
	// table; record offsets and payload checksums.
	table := make([]byte, len(secs)*csrEntrySize)
	off := uint64(csrHeaderSize + len(table))
	for i, s := range secs {
		off = (off + csrAlign - 1) &^ uint64(csrAlign-1)
		e := table[i*csrEntrySize:]
		le.PutUint32(e, s.id)
		le.PutUint64(e[8:], off)
		le.PutUint64(e[16:], uint64(len(s.data)))
		le.PutUint32(e[24:], crc32.Checksum(s.data, castagnoli))
		off += uint64(len(s.data))
	}

	hdr := make([]byte, csrHeaderSize)
	copy(hdr, csrMagic)
	le.PutUint32(hdr[8:], csrVersion)
	hdr[12] = uint8(d.Kind)
	le.PutUint64(hdr[16:], uint64(g.NumVertices()))
	le.PutUint64(hdr[24:], uint64(d.NumEdges))
	le.PutUint64(hdr[32:], uint64(len(d.Targets)))
	le.PutUint32(hdr[40:], uint32(g.NumPartitions()))
	le.PutUint32(hdr[44:], uint32(len(secs)))
	h := crc32.New(castagnoli)
	h.Write(hdr[:48])
	h.Write(table)
	le.PutUint32(hdr[48:], h.Sum32())

	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if _, err := w.Write(table); err != nil {
		return err
	}
	cur := uint64(csrHeaderSize + len(table))
	var pad [csrAlign]byte
	for _, s := range secs {
		if p := (csrAlign - cur%csrAlign) % csrAlign; p > 0 {
			if _, err := w.Write(pad[:p]); err != nil {
				return err
			}
			cur += p
		}
		if _, err := w.Write(s.data); err != nil {
			return err
		}
		cur += uint64(len(s.data))
	}
	return nil
}

// WriteCSRFile writes the graph to path in the v2 format.
func WriteCSRFile(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteCSR(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- reader ---------------------------------------------------------

// IsCSR reports whether data begins with the v2 magic.
func IsCSR(data []byte) bool {
	return len(data) >= len(csrMagic) && string(data[:len(csrMagic)]) == csrMagic
}

// ReadCSR decodes a v2 flat CSR snapshot from data without copying:
// the returned graph's columns alias data, which the caller must keep
// immutable (and mapped) for the graph's lifetime. On hosts where
// aliasing is impossible (big-endian, or a misaligned buffer) it
// transparently falls back to a copying decode.
func ReadCSR(data []byte) (*graph.Graph, error) {
	copyMode := !hostLittleEndian
	if len(data) > 0 && uintptr(unsafe.Pointer(unsafe.SliceData(data)))%csrAlign != 0 {
		copyMode = true
	}
	return decodeCSR(data, copyMode)
}

// decodeCSR validates and decodes a v2 buffer. Validation order
// matters for hostility: magic, version, header checksum, section
// geometry and per-section checksums all pass before any header count
// is trusted, and every count is cross-checked against a section
// length (itself bounded by the file size) before anything
// count-proportional is allocated.
func decodeCSR(data []byte, copyMode bool) (*graph.Graph, error) {
	if len(data) < csrHeaderSize {
		return nil, fmt.Errorf("graphio: csr header: %d bytes, want at least %d: %w",
			len(data), csrHeaderSize, ErrCSRTruncated)
	}
	if !IsCSR(data) {
		return nil, fmt.Errorf("graphio: csr header: bad magic %q: %w", data[:len(csrMagic)], ErrCSRMagic)
	}
	if v := le.Uint32(data[8:]); v != csrVersion {
		return nil, fmt.Errorf("graphio: csr header: version %d, this reader speaks %d: %w", v, csrVersion, ErrCSRVersion)
	}
	kind := data[12]
	if kind > uint8(graph.Undirected) {
		return nil, fmt.Errorf("graphio: csr header: graph kind %d invalid: %w", kind, ErrCSRCorrupt)
	}
	nV := le.Uint64(data[16:])
	nE := le.Uint64(data[24:])
	nSlots := le.Uint64(data[32:])
	nParts := le.Uint32(data[40:])
	nSec := le.Uint32(data[44:])
	if nV > math.MaxInt32 || nE > math.MaxInt32 {
		return nil, fmt.Errorf("graphio: csr header: %d vertices / %d edges exceed the int32 id space: %w",
			nV, nE, ErrCSRCorrupt)
	}
	// A slot costs 4 bytes in the targets section, a vertex 8 in the
	// offsets section: counts beyond that cannot fit in this file.
	if nSlots > uint64(len(data))/4 || nV > uint64(len(data))/8 {
		return nil, fmt.Errorf("graphio: csr header: counts (%d vertices, %d slots) impossible for a %d-byte file: %w",
			nV, nSlots, len(data), ErrCSRTruncated)
	}
	if nSec > csrMaxSections {
		return nil, fmt.Errorf("graphio: csr section table: %d sections, at most %d defined: %w",
			nSec, csrMaxSections, ErrCSRCorrupt)
	}
	tabLen := int(nSec) * csrEntrySize
	if len(data) < csrHeaderSize+tabLen {
		return nil, fmt.Errorf("graphio: csr section table: %d entries need %d bytes, file has %d: %w",
			nSec, csrHeaderSize+tabLen, len(data), ErrCSRTruncated)
	}
	table := data[csrHeaderSize : csrHeaderSize+tabLen]
	h := crc32.New(castagnoli)
	h.Write(data[:48])
	h.Write(table)
	if got, want := h.Sum32(), le.Uint32(data[48:]); got != want {
		return nil, fmt.Errorf("graphio: csr header: crc %08x, stored %08x: %w", got, want, ErrCSRChecksum)
	}

	var sec [secEnd][]byte
	prevID := uint32(0)
	prevEnd := uint64(csrHeaderSize + tabLen)
	for i := 0; i < int(nSec); i++ {
		e := table[i*csrEntrySize:]
		id := le.Uint32(e)
		off := le.Uint64(e[8:])
		length := le.Uint64(e[16:])
		crc := le.Uint32(e[24:])
		if id <= prevID || id >= secEnd {
			return nil, fmt.Errorf("graphio: csr section table: id %d after %d (unknown or out of order): %w",
				id, prevID, ErrCSRCorrupt)
		}
		prevID = id
		if off%csrAlign != 0 {
			return nil, fmt.Errorf("graphio: %s section: offset %d not %d-aligned: %w",
				secName(id), off, csrAlign, ErrCSRCorrupt)
		}
		if off < prevEnd {
			return nil, fmt.Errorf("graphio: %s section: offset %d overlaps the previous section ending at %d: %w",
				secName(id), off, prevEnd, ErrCSRCorrupt)
		}
		if off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, fmt.Errorf("graphio: %s section: [%d,+%d) outside the %d-byte file: %w",
				secName(id), off, length, len(data), ErrCSRTruncated)
		}
		payload := data[off : off+length]
		if got := crc32.Checksum(payload, castagnoli); got != crc {
			return nil, fmt.Errorf("graphio: %s section: crc %08x, stored %08x: %w",
				secName(id), got, crc, ErrCSRChecksum)
		}
		sec[id] = payload
		prevEnd = off + length
	}

	// Cross-check every section length against the header counts
	// before reinterpreting anything.
	wantLen := func(id uint32, want uint64, required bool) error {
		got := uint64(len(sec[id]))
		if got == 0 && !required {
			return nil
		}
		if got != want {
			return fmt.Errorf("graphio: %s section: %d bytes, want %d for the header counts: %w",
				secName(id), got, want, ErrCSRCorrupt)
		}
		return nil
	}
	checks := []error{
		wantLen(secOffsets, (nV+1)*8, true),
		wantLen(secTargets, nSlots*4, nSlots > 0),
		wantLen(secEdgeIdx, nSlots*4, false),
		wantLen(secWeights, nE*4, false),
		wantLen(secVBytes, nV*4, false),
		wantLen(secEBytes, nE*4, false),
		wantLen(secPartition, nV*4, false),
		wantLen(secVPropIdx, (nV+1)*4, false),
		wantLen(secEPropIdx, (nE+1)*4, false),
	}
	for _, err := range checks {
		if err != nil {
			return nil, err
		}
	}
	for _, id := range []uint32{secVPropRecs, secEPropRecs} {
		if len(sec[id])%propRecSize != 0 {
			return nil, fmt.Errorf("graphio: %s section: %d bytes, not a multiple of the %d-byte record: %w",
				secName(id), len(sec[id]), propRecSize, ErrCSRCorrupt)
		}
	}
	if len(sec[secVPropRecs]) > 0 && len(sec[secVPropIdx]) == 0 {
		return nil, fmt.Errorf("graphio: vproprecs section: present without a vpropidx section: %w", ErrCSRCorrupt)
	}
	if len(sec[secEPropRecs]) > 0 && len(sec[secEPropIdx]) == 0 {
		return nil, fmt.Errorf("graphio: eproprecs section: present without an epropidx section: %w", ErrCSRCorrupt)
	}

	// A table is verified record by record before its sections are
	// reinterpreted; the arena is raw bytes and aliases in either mode.
	column := func(idx, recs uint32, what string) (c graph.PropColumn, err error) {
		if len(sec[idx]) == 0 {
			return c, nil
		}
		if err := checkProps(sec[idx], sec[recs], sec[secArena], what); err != nil {
			return c, err
		}
		return graph.PropColumn{Index: sliceOfU32(sec[idx], copyMode), Recs: sliceOfRecs(sec[recs], copyMode)}, nil
	}
	vprops, err := column(secVPropIdx, secVPropRecs, "vprop")
	if err != nil {
		return nil, err
	}
	eprops, err := column(secEPropIdx, secEPropRecs, "eprop")
	if err != nil {
		return nil, err
	}

	g, err := graph.FromCSR(graph.CSRData{
		Kind:      graph.Kind(kind),
		NumEdges:  int(nE),
		Offsets:   sliceOfI64(sec[secOffsets], copyMode),
		Targets:   sliceOfI32[graph.VertexID](sec[secTargets], copyMode),
		EdgeIdx:   sliceOfI32[graph.EdgeID](sec[secEdgeIdx], copyMode),
		Weights:   sliceOfF32(sec[secWeights], copyMode),
		VProps:    vprops,
		EProps:    eprops,
		Arena:     byteString(sec[secArena]),
		VBytes:    sliceOfI32[int32](sec[secVBytes], copyMode),
		EBytes:    sliceOfI32[int32](sec[secEBytes], copyMode),
		Partition: sliceOfI32[int32](sec[secPartition], copyMode),
	})
	if err != nil {
		return nil, fmt.Errorf("graphio: %w: %w", err, ErrCSRCorrupt)
	}
	if g.NumPartitions() != int(nParts) {
		return nil, fmt.Errorf("graphio: partition section: %d partitions, header says %d: %w",
			g.NumPartitions(), nParts, ErrCSRCorrupt)
	}
	return g, nil
}

// ReadCSRFile loads a v2 snapshot with a single ReadFile; the graph
// aliases the returned buffer, so time-to-first-query is one read
// plus validation.
func ReadCSRFile(path string) (*graph.Graph, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ReadCSR(data)
}

// ---- format auto-detection ------------------------------------------

// Format identifies an on-disk graph snapshot encoding.
type Format uint8

const (
	// FormatGob is the version-1 gob encoding (Write/Read).
	FormatGob Format = iota + 1
	// FormatCSR is the version-2 flat binary CSR snapshot.
	FormatCSR
)

func (f Format) String() string {
	switch f {
	case FormatGob:
		return "gob-v1"
	case FormatCSR:
		return "csr-v2"
	default:
		return fmt.Sprintf("Format(%d)", uint8(f))
	}
}

// SniffFormat classifies a snapshot by its leading bytes: the v2 magic
// marks a flat CSR file, anything else is assumed to be the v1 gob
// stream (gob has no fixed magic of its own).
func SniffFormat(data []byte) Format {
	if IsCSR(data) {
		return FormatCSR
	}
	return FormatGob
}

// ReadGraphFile loads a graph from either format, auto-detected by
// magic: v2 flat CSR files decode zero-copy, anything else goes
// through the v1 gob decoder.
func ReadGraphFile(path string) (*graph.Graph, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if IsCSR(data) {
		return ReadCSR(data)
	}
	return Read(bytes.NewReader(data))
}

// ---- mmap-backed loading --------------------------------------------

// MappedCSR is a graph served directly out of a memory-mapped v2
// file: the kernel pages adjacency in on demand and the process
// resident set is the touched part of the graph, nothing more.
type MappedCSR struct {
	Graph *graph.Graph

	data  []byte
	unmap func() error
}

// OpenCSRFile maps path and decodes it in place. On platforms without
// mmap support it falls back to ReadCSRFile. The returned graph
// aliases the mapping: it must not be used after Close.
func OpenCSRFile(path string) (*MappedCSR, error) {
	if !mmapSupported {
		g, err := ReadCSRFile(path)
		if err != nil {
			return nil, err
		}
		return &MappedCSR{Graph: g}, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < csrHeaderSize {
		return nil, fmt.Errorf("graphio: csr header: %d bytes, want at least %d: %w",
			st.Size(), csrHeaderSize, ErrCSRTruncated)
	}
	data, unmap, err := mmapReadOnly(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("graphio: mmap %s: %w", path, err)
	}
	g, err := ReadCSR(data)
	if err != nil {
		unmap()
		return nil, err
	}
	return &MappedCSR{Graph: g, data: data, unmap: unmap}, nil
}

// Close releases the mapping. The graph (and any slices or property
// strings obtained from it) must not be touched afterwards.
func (m *MappedCSR) Close() error {
	if m.unmap == nil {
		return nil
	}
	u := m.unmap
	m.unmap = nil
	m.Graph = nil
	return u()
}
