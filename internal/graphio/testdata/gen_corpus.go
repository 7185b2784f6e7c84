//go:build ignore

// gen_corpus regenerates the seed corpora under testdata/fuzz/ for the
// graphio fuzz targets. Run from internal/graphio:
//
//	go run testdata/gen_corpus.go
//
// The seeds mirror the f.Add cases (valid file, truncation, bit flip)
// so `go test -fuzz` starts from interesting inputs even with an empty
// fuzz cache, and plain `go test` replays them as regression inputs.
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"subtrav/internal/graph"
	"subtrav/internal/graphio"
)

func main() {
	b := graph.NewBuilder(graph.Undirected, 4)
	b.AddWeightedEdge(0, 1, 0.5)
	b.AddEdge(2, 3)
	b.SetVertexProps(0, graph.Properties{"k": graph.Int(7)})
	var buf bytes.Buffer
	if err := graphio.Write(&buf, b.Build()); err != nil {
		log.Fatal(err)
	}
	valid := buf.Bytes()

	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0xff

	write("FuzzRead", "valid", valid)
	write("FuzzRead", "truncated", valid[:len(valid)/2])
	write("FuzzRead", "bitflip", flipped)
	write("FuzzRead", "empty", nil)
	write("FuzzRead", "garbage", []byte("garbage"))

	// FuzzReadCSR: a v2 file with all sections, truncations at every
	// section boundary, per-section bit flips, and a hostile header.
	cb := graph.NewBuilder(graph.Undirected, 5)
	cb.AddEdgeFull(0, 1, 0.5, graph.Properties{"k": graph.String("v")})
	cb.AddWeightedEdge(1, 2, 2)
	cb.AddEdge(3, 4)
	cb.SetVertexProps(0, graph.Properties{"n": graph.Int(7), "b": graph.Blob(64)})
	cb.SetPartition([]int32{0, 0, 1, 1, 1})
	buf.Reset()
	if err := graphio.WriteCSR(&buf, cb.Build()); err != nil {
		log.Fatal(err)
	}
	validCSR := buf.Bytes()
	write("FuzzReadCSR", "valid", validCSR)
	write("FuzzReadCSR", "empty", nil)
	write("FuzzReadCSR", "magic_only", validCSR[:8])
	nSec := int(binary.LittleEndian.Uint32(validCSR[44:]))
	for i := 0; i < nSec; i++ {
		e := validCSR[64+i*32:]
		off := binary.LittleEndian.Uint64(e[8:])
		write("FuzzReadCSR", fmt.Sprintf("trunc_sec%d", i), validCSR[:off])
		flipped := append([]byte(nil), validCSR...)
		flipped[off] ^= 0xff
		write("FuzzReadCSR", fmt.Sprintf("crcflip_sec%d", i), flipped)
	}
	hostile := append([]byte(nil), validCSR...)
	binary.LittleEndian.PutUint64(hostile[16:], 1<<31)
	write("FuzzReadCSR", "hostile_counts", hostile)
}

func write(target, name string, data []byte) {
	dir := filepath.Join("testdata", "fuzz", target)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
	if err := os.WriteFile(filepath.Join(dir, "seed_"+name), []byte(body), 0o644); err != nil {
		log.Fatal(err)
	}
}
