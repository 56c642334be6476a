package ipset

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"unclean/internal/stats"
)

func TestBinaryRoundTrip(t *testing.T) {
	f := func(raw []uint32) bool {
		s := FromUint32s(raw)
		var buf bytes.Buffer
		if err := s.WriteBinary(&buf); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return got.Equal(s)
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(20071024))}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryRoundTripEdges(t *testing.T) {
	for _, s := range []Set{
		{},
		FromUint32s([]uint32{0}),
		FromUint32s([]uint32{0xffffffff}),
		FromUint32s([]uint32{0, 0xffffffff}),
	} {
		var buf bytes.Buffer
		if err := s.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !got.Equal(s) {
			t.Fatalf("round trip lost %v", s)
		}
	}
}

func TestBinaryCompression(t *testing.T) {
	// A clustered set must encode far below 4 bytes/address.
	rng := stats.NewRNG(9)
	raw := make([]uint32, 10000)
	base := uint32(0x0a010000)
	for i := range raw {
		raw[i] = base + uint32(rng.Intn(1<<16))
	}
	s := FromUint32s(raw)
	var buf bytes.Buffer
	if err := s.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	perAddr := float64(buf.Len()) / float64(s.Len())
	if perAddr > 2.2 {
		t.Errorf("clustered encoding uses %.2f bytes/addr, want ~1-2", perAddr)
	}
}

func TestReadBinaryRejects(t *testing.T) {
	good := func() []byte {
		var buf bytes.Buffer
		if err := FromUint32s([]uint32{5, 9}).WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()
	cases := map[string][]byte{
		"empty":       {},
		"short magic": good[:4],
		"bad magic":   append([]byte("wrongmgc"), good[8:]...),
		"truncated":   good[:len(good)-1],
	}
	for name, data := range cases {
		if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Zero delta (duplicate) is rejected.
	var buf bytes.Buffer
	buf.Write(codecMagic[:])
	buf.WriteByte(2) // count 2
	buf.WriteByte(1) // first addr 0
	buf.WriteByte(0) // zero delta
	if _, err := ReadBinary(&buf); err == nil {
		t.Error("zero delta accepted")
	}
	// Overflow past the address space.
	var buf2 bytes.Buffer
	buf2.Write(codecMagic[:])
	buf2.WriteByte(1)
	buf2.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // huge delta
	if _, err := ReadBinary(&buf2); err == nil {
		t.Error("address overflow accepted")
	}
}

// TestReadBinaryLyingCount feeds a v1 header that claims 2^30 addresses
// and carries none. The reader must fail on the missing first delta
// without first reserving room for the claimed count (4 GiB).
func TestReadBinaryLyingCount(t *testing.T) {
	data := binary.AppendUvarint(append([]byte(nil), codecMagic[:]...), 1<<30)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadBinary(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("image with a count no deltas back was accepted")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
		t.Fatalf("rejecting a %d-byte image allocated %d bytes", len(data), alloc)
	}
}
