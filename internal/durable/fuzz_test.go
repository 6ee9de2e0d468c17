package durable

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzNextFrame: a frame built from fuzzed fields decodes to those
// fields and to exactly its own length; every proper prefix of it is
// refused, which is the torn-tail rule both the log and a checkpoint rest
// on; and no bytes, framed or raw, make the decoder panic.
func FuzzNextFrame(f *testing.F) {
	f.Add(uint64(7), uint32(0), uint64(1), []byte("k\x00v"), encode(nil, rec(1, "k", "v")))
	f.Add(uint64(0), uint32(3), uint64(1<<40), []byte("a\x00\x00b\x00\xff"), []byte{})
	f.Fuzz(func(t *testing.T, epoch uint64, shard uint32, index uint64, pairs, raw []byte) {
		// pairs holds NUL-separated keys and values in turn.
		writes := make(map[string][]byte)
		fields := bytes.Split(pairs, []byte{0})
		for i := 0; i+1 < len(fields); i += 2 {
			writes[string(fields[i])] = append([]byte{}, fields[i+1]...)
		}
		want := frame{epoch: epoch, parts: []part{{shard: int(shard), index: index, writes: writes}}}
		data := encode(nil, want)
		got, n, ok := nextFrame(data)
		if !ok || n != len(data) || !reflect.DeepEqual(got, want) {
			t.Fatalf("frame of %d bytes decoded to %+v, n=%d ok=%v; want %+v", len(data), got, n, ok, want)
		}
		for i := range data {
			if _, _, ok := nextFrame(data[:i]); ok {
				t.Fatalf("%d-byte prefix of a %d-byte frame accepted", i, len(data))
			}
		}
		nextFrame(raw)
		decodeFrame(raw)
	})
}
