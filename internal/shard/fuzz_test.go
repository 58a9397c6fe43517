package shard

import (
	"bytes"
	"testing"
)

// FuzzDecodePool hardens the pool payload parser, which reads bytes
// fetched from another process: any input must return without a panic,
// and an accepted payload must re-encode to exactly its own bytes.
func FuzzDecodePool(f *testing.F) {
	f.Add(EncodePool([][]byte{{1, 2}, {3, 4, 5}, {0xff, 0x00, 0x10, 0x20}}))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0x00})
	f.Add(append(EncodePool([][]byte{{1, 2}}), 9))

	f.Fuzz(func(t *testing.T, payload []byte) {
		segments, err := DecodePool(payload)
		if err != nil {
			return
		}
		if again := EncodePool(segments); !bytes.Equal(again, payload) {
			t.Fatalf("accepted payload re-encodes differently:\n got % x\nwant % x", again, payload)
		}
	})
}
