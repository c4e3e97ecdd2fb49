package sctp

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// fuzzSeeds returns the packets this package's tests exchange — DATA,
// the INIT / INIT ACK / COOKIE ECHO / COOKIE ACK handshake, SACK, padded
// multi-chunk packets — plus a truncated and a corrupted one.
func fuzzSeeds() [][]byte {
	h := Header{SrcPort: 36412, DstPort: 36412, VTag: 0xfeed}
	cookie := bakeCookie([]byte("k"), 111, 50, 222, 900)
	data := marshalPacket(h, marshalData(DataChunk{TSN: 5, Stream: 1, Seq: 2, PPID: PPIDS1AP, Payload: []byte("hi")}))
	seeds := [][]byte{
		data,
		marshalPacket(Header{SrcPort: 36412, DstPort: 36412}, marshalInit(111, 50, 4)),
		marshalPacket(Header{VTag: 111}, marshalInitAck(222, 900, 4, cookie)),
		marshalPacket(Header{VTag: 222}, Chunk{Type: ChunkCookieEcho, Value: cookie}),
		marshalPacket(Header{VTag: 111}, Chunk{Type: ChunkCookieAck}),
		marshalPacket(h, marshalSack(5)),
		marshalPacket(Header{VTag: 9}, Chunk{Type: ChunkHeartbeat, Value: []byte{1, 2, 3}}, Chunk{Type: ChunkSack, Value: make([]byte, 12)}),
		marshalPacket(h, marshalData(DataChunk{TSN: 6, Stream: 3, PPID: PPIDS1AP, Payload: []byte("msg-000001"), Unordered: true}), marshalSack(4)),
		marshalPacket(Header{VTag: 1}, Chunk{Type: ChunkShutdown}),
		{}, data[:commonHeaderLen+2],
	}
	bad := append([]byte(nil), data...)
	bad[len(bad)-1] ^= 0xff
	return append(seeds, bad)
}

// FuzzSCTPPacket asserts that the packet parser and the chunk decoders
// never panic — on the bytes as received and with the checksum restamped,
// so mutations reach the chunk walker past the CRC — and that a packet
// that parses re-marshals to bytes that parse back to the same packet and
// marshal identically again.
func FuzzSCTPPacket(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b := append([]byte(nil), data...)
		unmarshalPacket(b)
		if len(b) < commonHeaderLen {
			return
		}
		binary.LittleEndian.PutUint32(b[8:12], 0)
		binary.LittleEndian.PutUint32(b[8:12], crc32.Checksum(b, castagnoli))
		h, chunks, err := unmarshalPacket(b)
		if err != nil {
			return
		}
		for _, c := range chunks {
			parseData(c)
			parseInit(c)
			parseInitAck(c)
			parseSack(c)
		}
		out := marshalPacket(h, chunks...)
		h2, chunks2, err := unmarshalPacket(out)
		if err != nil {
			t.Fatalf("re-marshal does not parse: %v", err)
		}
		if h2 != h || len(chunks2) != len(chunks) {
			t.Fatalf("round trip diverged: %+v %d chunks != %+v %d chunks", h2, len(chunks2), h, len(chunks))
		}
		for i := range chunks {
			a, c := chunks[i], chunks2[i]
			if a.Type != c.Type || a.Flags != c.Flags || !bytes.Equal(a.Value, c.Value) {
				t.Fatalf("chunk %d diverged: %+v != %+v", i, c, a)
			}
		}
		if out2 := marshalPacket(h2, chunks2...); !bytes.Equal(out, out2) {
			t.Fatalf("marshal not stable:\n%x\n%x", out, out2)
		}
	})
}
