//go:build ignore

// gen_corpus regenerates the seed corpus under testdata/fuzz/ for the
// graphio fuzz target FuzzReadCSR from the golden snapshot
// (testdata/golden.csr3, pinned by TestCSRGoldenFile). Run from
// internal/graphio:
//
//	go run testdata/gen_corpus.go
//
// The seeds mirror the f.Add cases (valid file, truncation, bit flip)
// so `go test -fuzz` starts from interesting inputs even with an empty
// fuzz cache, and plain `go test` replays them as regression inputs.
// Seeds are named by section index: the golden's last section, index
// 12, is the key table.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"os"
	"path/filepath"
)

func main() {
	// The golden snapshot with all sections, truncations at every
	// section boundary, per-section bit flips, and a hostile header.
	valid, err := os.ReadFile(filepath.Join("testdata", "golden.csr3"))
	if err != nil {
		log.Fatal(err)
	}
	write("FuzzReadCSR", "valid", valid)
	write("FuzzReadCSR", "empty", nil)
	write("FuzzReadCSR", "magic_only", valid[:8])
	nSec := int(binary.LittleEndian.Uint32(valid[44:]))
	for i := 0; i < nSec; i++ {
		e := valid[64+i*32:]
		off := binary.LittleEndian.Uint64(e[8:])
		write("FuzzReadCSR", fmt.Sprintf("trunc_sec%d", i), valid[:off])
		flipped := append([]byte(nil), valid...)
		flipped[off] ^= 0xff
		write("FuzzReadCSR", fmt.Sprintf("crcflip_sec%d", i), flipped)
	}
	hostile := append([]byte(nil), valid...)
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
