package service

import (
	"bytes"
	"testing"
)

// FuzzDecodeRequest feeds arbitrary bytes to the server's frame reader
// and request decoder. Nothing may panic, and a frame that decodes is
// canonical: encoding the request it decoded to gives its bytes back.
// The seeds are under testdata/fuzz/FuzzDecodeRequest: one frame of
// each request kind and op, and a few broken ones.
func FuzzDecodeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeFrame(data)
		if err != nil {
			return
		}
		frame, err := appendRequest(nil, &req)
		if err != nil {
			t.Fatalf("decoded %+v does not encode: %v", req, err)
		}
		if n := 4 + int(le.Uint32(data)); !bytes.Equal(frame, data[:n]) {
			t.Fatalf("decoded %+v re-encodes as\n%x\nnot\n%x", req, frame, data[:n])
		}
	})
}
