// Package uncheckedlen sizes a section from a header count no branch
// has looked at: a snapshot declaring 2^60 vertices dies inside make.
package uncheckedlen

import (
	"encoding/binary"
	"errors"
)

func offsets(hdr, body []byte) ([]uint32, error) {
	if len(hdr) < 16 {
		return nil, errors.New("short header")
	}
	n := binary.LittleEndian.Uint64(hdr[8:])
	offs := make([]uint32, n+1)
	for i := range offs {
		offs[i] = binary.LittleEndian.Uint32(body[4*i:])
	}
	return offs, nil
}
