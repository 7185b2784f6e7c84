// Package arenaoverflow is graphio's arenaString before commit
// 0f0ffad: the bound is checked, but as off+ln > len, which wraps for
// an offset near MaxUint64, passes, and panics on the slice. A check
// that is present but wrong is not what taintlen looks for.
package arenaoverflow

import (
	"encoding/binary"
	"errors"
)

func arenaString(arena, rec []byte) (string, error) {
	off := binary.LittleEndian.Uint64(rec[16:])
	ln := binary.LittleEndian.Uint32(rec[12:])
	if off+uint64(ln) > uint64(len(arena)) {
		return "", errors.New("string past the arena")
	}
	return string(arena[off : off+uint64(ln)]), nil
}
