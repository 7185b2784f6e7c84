// Package graphio persists property graphs as flat binary CSR
// snapshots, so the CLI tools can generate a dataset once and reuse it
// across experiment runs.
//
// A snapshot (format version 3, magic "STRVCSR3") is a single
// contiguous buffer laid out as a fixed 64-byte header, a section
// table, and up to thirteen 8-aligned sections:
//
//	header     magic "STRVCSR3", version, kind, counts, crc
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
//	vproprecs  n × 16 bytes    vertex property records
//	epropidx   (E+1) × uint32  edge → property record range
//	eproprecs  n × 16 bytes    edge property records
//	arena      raw bytes       all keys and string values, deduplicated
//	keys       k × 8 bytes     key table: arena offset and length of
//	           every distinct key, sorted by key bytes (id 16)
//
// A property record is a 16-bit key id into the key table, a one-byte
// value kind, a zero byte, a 32-bit string length and a 64-bit value
// (arena offset, integer, float bits, 0/1 or blob size): each key is
// stored once, in the key table, not once per record.
//
// The reader accepts exactly the sections WriteCSR writes: a table
// listing any other id is corrupt. A file of another format version is
// refused with ErrCSRVersion: every snapshot is written by the build
// that reads it, so no reader keeps an older layout.
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
package graphio

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
	csrMagic      = "STRVCSR3" // the last byte is the version digit
	csrVersion    = 3
	csrHeaderSize = 64
	csrEntrySize  = 32
	csrAlign      = 8
	propRecSize   = 16
	propKeySize   = 8
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
	// Ids 13–15 once held a reverse-CSR view that older builds wrote; a
	// table listing them is refused, and they are never reused.
	secKeys uint32 = 16
	secEnd  uint32 = 17 // one past the largest id a table may list

	numSections = 13 // the ids a table may list
)

// secNames is indexed by section id; retired ids have no name.
var secNames = [secEnd]string{"", "offsets", "targets", "edgeidx", "weights", "vbytes", "ebytes", "partition",
	"vpropidx", "vproprecs", "epropidx", "eproprecs", "arena", "", "", "", "keys"}

func secName(id uint32) string {
	if id >= secEnd || secNames[id] == "" {
		return fmt.Sprintf("section#%d", id)
	}
	return secNames[id]
}

// Sentinel error classes for decode failures; every decode error
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
// have verified alignment and host byte order (see sliceOf).
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

// sliceOf views a little-endian section as a []T whose fields are the
// section's layout (graph.PropRecord's blank field is the reserved
// byte): a zero-copy alias unless copyMode (big-endian host or
// misaligned buffer), else a fresh slice decoded by encoding/binary,
// which skips blank fields.
func sliceOf[T any](b []byte, copyMode bool) []T {
	if !copyMode || len(b) == 0 {
		return aliasSlice[T](b)
	}
	out := make([]T, len(b)/binary.Size(*new(T)))
	if err := binary.Read(bytes.NewReader(b), le, out); err != nil {
		panic(fmt.Sprintf("graphio: decode %d-byte section: %v", len(b), err)) // T is fixed-size, b long enough
	}
	return out
}

// bytesOf is the write-side inverse of sliceOf: an alias on
// little-endian hosts, encodeLE otherwise.
func bytesOf[T any](s []T) []byte {
	if hostLittleEndian {
		return aliasBytes(s)
	}
	return encodeLE(s)
}

// encodeLE encodes s in the section layout with encoding/binary, which
// writes blank fields as zero.
func encodeLE[T any](s []T) []byte {
	var buf bytes.Buffer
	if err := binary.Write(&buf, le, s); err != nil {
		panic(fmt.Sprintf("graphio: encode %T: %v", s, err)) // T is fixed-size
	}
	return buf.Bytes()
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

// checkKeys verifies the key table before it is trusted: at most
// graph.MaxPropKeys entries, each inside the arena, and the keys
// strictly ascending by their bytes, so key-id order is key order and
// no key is listed twice. It allocates nothing.
func checkKeys(keys, arena []byte) error {
	n := len(keys) / propKeySize
	if n > graph.MaxPropKeys {
		return fmt.Errorf("graphio: keys section: %d keys, at most %d: %w", n, graph.MaxPropKeys, ErrCSRCorrupt)
	}
	prev := ""
	for i := 0; i < n; i++ {
		e := keys[i*propKeySize:]
		key, err := arenaString(arena, uint64(le.Uint32(e)), le.Uint32(e[4:]), "key table", "entry")
		if err != nil {
			return err
		}
		if i > 0 && key <= prev {
			return fmt.Errorf("graphio: keys section: key %d %q not after %q (keys unsorted or listed twice): %w",
				i, key, prev, ErrCSRCorrupt)
		}
		prev = key
	}
	return nil
}

// checkProps is the one pass over a property table before its sections
// are trusted: record ranges start at 0, never decrease and end at the
// last record; every key id is inside the nKeys-entry key table, every
// string value inside the arena; every kind is known, the reserved byte
// is zero and no blob size overflows; and an entity's key ids ascend
// strictly — with the key table sorted, its keys do — so a lookup has
// one answer. It reads the raw little-endian bytes, whatever the host,
// and allocates nothing.
func checkProps(idx, recs []byte, nKeys int, arena []byte, what string) error {
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
		prev := uint16(0)
		for r := lo; r < hi; r++ {
			rec := recs[int(r)*propRecSize : int(r)*propRecSize+propRecSize]
			key := le.Uint16(rec)
			if int(key) >= nKeys {
				return fmt.Errorf("graphio: %srecs section: key id %d of entity %d past the %d-key table: %w",
					what, key, i, nKeys, ErrCSRCorrupt)
			}
			if r > lo && key <= prev {
				return fmt.Errorf("graphio: %srecs section: keys of entity %d not strictly ascending (key id %d after %d): %w",
					what, i, key, prev, ErrCSRCorrupt)
			}
			prev = key
			if rec[3] != 0 {
				return fmt.Errorf("graphio: %srecs section: reserved byte %#x of entity %d not zero: %w",
					what, rec[3], i, ErrCSRCorrupt)
			}
			switch kind, val := graph.ValueKind(rec[2]), le.Uint64(rec[8:]); kind {
			case graph.KindString:
				if _, err := arenaString(arena, val, le.Uint32(rec[4:]), what, "value"); err != nil {
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

// WriteCSR encodes the graph in the v3 flat binary CSR format. The
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
	add(secOffsets, bytesOf(d.Offsets))
	add(secTargets, bytesOf(d.Targets))
	add(secEdgeIdx, bytesOf(d.EdgeIdx))
	add(secWeights, bytesOf(d.Weights))
	add(secVBytes, bytesOf(d.VBytes))
	add(secEBytes, bytesOf(d.EBytes))
	add(secPartition, bytesOf(d.Partition))
	add(secVPropIdx, bytesOf(d.VProps.Index))
	add(secVPropRecs, bytesOf(d.VProps.Recs))
	add(secEPropIdx, bytesOf(d.EProps.Index))
	add(secEPropRecs, bytesOf(d.EProps.Recs))
	add(secArena, stringBytes(d.Arena))
	add(secKeys, bytesOf(d.Keys))

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

// WriteCSRFile writes the graph to path in the v3 format.
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

// ReadCSR decodes a v3 flat CSR snapshot from data without copying:
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

// decodeCSR validates and decodes a v3 buffer. Validation order
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
	// The magic's first seven bytes name the format, its last the
	// version: a snapshot of another version is refused by version.
	if string(data[:len(csrMagic)-1]) != csrMagic[:len(csrMagic)-1] {
		return nil, fmt.Errorf("graphio: csr header: bad magic %q: %w", data[:len(csrMagic)], ErrCSRMagic)
	}
	if v := le.Uint32(data[8:]); v != csrVersion || data[len(csrMagic)-1] != csrMagic[len(csrMagic)-1] {
		return nil, fmt.Errorf("graphio: csr header: version %d (magic %q), this reader speaks %d: %w",
			v, data[:len(csrMagic)], csrVersion, ErrCSRVersion)
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
	if nSec > numSections {
		return nil, fmt.Errorf("graphio: csr section table: %d sections, at most %d defined: %w",
			nSec, numSections, ErrCSRCorrupt)
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
		if secNames[id] == "" {
			return nil, fmt.Errorf("graphio: csr section table: id %d after %d (retired): %w", id, prevID, ErrCSRCorrupt)
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
	for _, s := range []struct {
		id   uint32
		size int
	}{{secVPropRecs, propRecSize}, {secEPropRecs, propRecSize}, {secKeys, propKeySize}} {
		if len(sec[s.id])%s.size != 0 {
			return nil, fmt.Errorf("graphio: %s section: %d bytes, not a multiple of the %d-byte entry: %w",
				secName(s.id), len(sec[s.id]), s.size, ErrCSRCorrupt)
		}
	}
	if len(sec[secVPropRecs]) > 0 && len(sec[secVPropIdx]) == 0 {
		return nil, fmt.Errorf("graphio: vproprecs section: present without a vpropidx section: %w", ErrCSRCorrupt)
	}
	if len(sec[secEPropRecs]) > 0 && len(sec[secEPropIdx]) == 0 {
		return nil, fmt.Errorf("graphio: eproprecs section: present without an epropidx section: %w", ErrCSRCorrupt)
	}

	// The key table and each property table are verified entry by entry
	// before their sections are reinterpreted; the arena is raw bytes
	// and aliases in either mode.
	if err := checkKeys(sec[secKeys], sec[secArena]); err != nil {
		return nil, err
	}
	nKeys := len(sec[secKeys]) / propKeySize
	column := func(idx, recs uint32, what string) (c graph.PropColumn, err error) {
		if len(sec[idx]) == 0 {
			return c, nil
		}
		if err := checkProps(sec[idx], sec[recs], nKeys, sec[secArena], what); err != nil {
			return c, err
		}
		return graph.PropColumn{Index: sliceOf[uint32](sec[idx], copyMode), Recs: sliceOf[graph.PropRecord](sec[recs], copyMode)}, nil
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
		Offsets:   sliceOf[int64](sec[secOffsets], copyMode),
		Targets:   sliceOf[graph.VertexID](sec[secTargets], copyMode),
		EdgeIdx:   sliceOf[graph.EdgeID](sec[secEdgeIdx], copyMode),
		Weights:   sliceOf[float32](sec[secWeights], copyMode),
		VProps:    vprops,
		EProps:    eprops,
		Keys:      sliceOf[graph.PropKey](sec[secKeys], copyMode),
		Arena:     byteString(sec[secArena]),
		VBytes:    sliceOf[int32](sec[secVBytes], copyMode),
		EBytes:    sliceOf[int32](sec[secEBytes], copyMode),
		Partition: sliceOf[int32](sec[secPartition], copyMode),
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

// ReadGraphFile loads a snapshot with a single ReadFile; the graph
// aliases the returned buffer, so time-to-first-query is one read
// plus validation.
func ReadGraphFile(path string) (*graph.Graph, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ReadCSR(data)
}

// ---- mmap-backed loading --------------------------------------------

// MappedCSR is a graph served directly out of a memory-mapped v3
// file: the kernel pages adjacency in on demand and the process
// resident set is the touched part of the graph, nothing more.
type MappedCSR struct {
	Graph *graph.Graph

	data  []byte
	unmap func() error
}

// OpenCSRFile maps path and decodes it in place. On platforms without
// mmap support it falls back to ReadGraphFile. The returned graph
// aliases the mapping: it must not be used after Close.
func OpenCSRFile(path string) (*MappedCSR, error) {
	if !mmapSupported {
		g, err := ReadGraphFile(path)
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
