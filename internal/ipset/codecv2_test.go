package ipset

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"unclean/internal/stats"
)

// TestV2RoundTrip proves the v2 image is lossless for every container
// shape, whether ReadBinary decodes it or parseV2 aliases or copies its
// payloads.
func TestV2RoundTrip(t *testing.T) {
	for _, shape := range shapedSets() {
		t.Run(shape.name, func(t *testing.T) {
			rng := stats.NewRNG(67)
			plain := shape.gen(rng)
			data := writeV2(t, plain)
			back, err := ReadBinary(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			sameAddrs(t, "v2 roundtrip", back, plain)
			for _, alias := range []bool{false, true} {
				im, err := parseV2(data, alias)
				if err != nil {
					t.Fatal(err)
				}
				sameAddrs(t, fmt.Sprintf("parseV2 alias=%v", alias), im.Set(), plain)
			}
		})
	}
}

// TestV2CrossVersion proves both formats decode to identical sets: a
// membership written as v1 and as v2 reads back equal either way.
func TestV2CrossVersion(t *testing.T) {
	rng := stats.NewRNG(71)
	for _, shape := range shapedSets() {
		t.Run(shape.name, func(t *testing.T) {
			s := shape.gen(rng)
			var v1, v2 bytes.Buffer
			if err := s.WriteBinary(&v1); err != nil {
				t.Fatal(err)
			}
			if err := s.WriteBinaryV2(&v2); err != nil {
				t.Fatal(err)
			}
			from1, err := ReadBinary(&v1)
			if err != nil {
				t.Fatal(err)
			}
			from2, err := ReadBinary(&v2)
			if err != nil {
				t.Fatal(err)
			}
			sameAddrs(t, "v1 vs v2", from2, from1)
			// And the v1 re-encoding of a v2-loaded set is byte-identical
			// to the original v1 encoding.
			var re bytes.Buffer
			if err := from2.WriteBinary(&re); err != nil {
				t.Fatal(err)
			}
			var orig bytes.Buffer
			if err := s.WriteBinary(&orig); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(re.Bytes(), orig.Bytes()) {
				t.Fatal("v1 re-encoding of a v2-loaded set differs")
			}
		})
	}
}

// TestV2Alignment pins the mmap-serving guarantees: page-aligned data
// region and 8-byte-aligned container payloads.
func TestV2Alignment(t *testing.T) {
	rng := stats.NewRNG(73)
	s := clusteredSet(rng, 16, 6000)
	var buf bytes.Buffer
	if err := s.WriteBinaryV2(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	count := int(v2LE.Uint32(data[8:]))
	if count == 0 {
		t.Fatal("expected containers")
	}
	for i := 0; i < count; i++ {
		off := v2LE.Uint64(data[v2HeaderSize+i*v2EntrySize+16:])
		if off&7 != 0 {
			t.Fatalf("container %d offset %d not 8-byte aligned", i, off)
		}
		if i == 0 && off%v2PageAlign != 0 {
			t.Fatalf("data region starts at %d, not page aligned", off)
		}
	}
}

func writeV2(t *testing.T, s Set) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteBinaryV2(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func mustFailV2(t *testing.T, label string, data []byte) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: parse panicked: %v", label, r)
		}
	}()
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
		t.Fatalf("%s: corrupted image parsed without error", label)
	}
}

// TestV2Corruption feeds truncated and bit-flipped images to the parser
// and demands a clean error — never a panic, never a wrong set.
func TestV2Corruption(t *testing.T) {
	rng := stats.NewRNG(79)
	good := writeV2(t, clusteredSet(rng, 8, 3000).Union(randomSet(rng, 500)))
	if _, err := ReadBinary(bytes.NewReader(good)); err != nil {
		t.Fatalf("control image failed to parse: %v", err)
	}

	t.Run("truncated-header", func(t *testing.T) {
		mustFailV2(t, "truncated header", good[:12])
	})
	t.Run("truncated-directory", func(t *testing.T) {
		mustFailV2(t, "truncated directory", good[:v2HeaderSize+v2EntrySize/2])
	})
	t.Run("truncated-data", func(t *testing.T) {
		mustFailV2(t, "truncated data", good[:len(good)*2/3])
	})
	t.Run("missing-footer", func(t *testing.T) {
		mustFailV2(t, "missing footer", good[:len(good)-v2FooterSize])
	})
	t.Run("bad-crc", func(t *testing.T) {
		bad := bytes.Clone(good)
		bad[v2PageAlign+1] ^= 0x40 // flip a container payload bit
		mustFailV2(t, "payload bit flip", bad)
	})
	t.Run("bad-directory", func(t *testing.T) {
		bad := bytes.Clone(good)
		bad[v2HeaderSize+4] ^= 0xff // corrupt first container's cardinality
		mustFailV2(t, "directory bit flip", bad)
	})
	t.Run("bad-footer-length", func(t *testing.T) {
		bad := bytes.Clone(good)
		v2LE.PutUint64(bad[len(bad)-v2FooterSize:], uint64(len(bad)))
		mustFailV2(t, "footer length lie", bad)
	})
	t.Run("zero-bytes", func(t *testing.T) {
		mustFailV2(t, "zeros", make([]byte, 8192))
	})
	t.Run("v1-magic-v2-body", func(t *testing.T) {
		bad := bytes.Clone(good)
		copy(bad, codecMagic[:])
		mustFailV2(t, "wrong magic", bad)
	})
}

// TestV2CorruptionStructural hand-crafts directory entries that pass the
// CRC (recomputed) but violate structural invariants, proving the
// validator rejects them rather than building a misbehaving set.
func TestV2CorruptionStructural(t *testing.T) {
	rng := stats.NewRNG(83)
	base := clusteredSet(rng, 4, 100)

	resign := func(data []byte) []byte {
		// Recompute the footer CRC so only the structural check can fail.
		payload := data[:len(data)-v2FooterSize]
		foot := data[len(data)-v2FooterSize:]
		v2LE.PutUint64(foot[0:], uint64(len(payload)))
		v2LE.PutUint32(foot[8:], crc32.ChecksumIEEE(payload))
		return data
	}

	corrupt := func(name string, mutate func(data []byte)) {
		t.Run(name, func(t *testing.T) {
			data := bytes.Clone(writeV2(t, base))
			mutate(data)
			mustFailV2(t, name, resign(data))
		})
	}

	corrupt("keys-out-of-order", func(data []byte) {
		v2LE.PutUint16(data[v2HeaderSize+v2EntrySize:], v2LE.Uint16(data[v2HeaderSize:]))
	})
	corrupt("unknown-kind", func(data []byte) {
		data[v2HeaderSize+2] = 7
	})
	corrupt("misaligned-offset", func(data []byte) {
		off := v2LE.Uint64(data[v2HeaderSize+16:])
		v2LE.PutUint64(data[v2HeaderSize+16:], off+2)
	})
	corrupt("offset-out-of-bounds", func(data []byte) {
		v2LE.PutUint64(data[v2HeaderSize+16:], uint64(len(data)))
	})
	corrupt("array-unsorted", func(data []byte) {
		off := v2LE.Uint64(data[v2HeaderSize+16:])
		v2LE.PutUint16(data[off:], 0xffff)
	})
	corrupt("total-mismatch", func(data []byte) {
		v2LE.PutUint64(data[16:], 1)
	})
}

// TestOpenMapped exercises the full WriteFileV2 → OpenMapped path: the
// mapped Image reports the set's size and block counts, and decodes to
// a Set that stays valid after the mapping is closed.
func TestOpenMapped(t *testing.T) {
	rng := stats.NewRNG(89)
	s := clusteredSet(rng, 32, 5000).Union(randomSet(rng, 2000))
	path := filepath.Join(t.TempDir(), "set.v2")
	if err := s.WriteFileV2(path); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Set.Len() != s.Len() {
		t.Fatalf("mapped Len: got %d, want %d", m.Set.Len(), s.Len())
	}
	for n := 0; n <= 32; n++ {
		if got, want := m.Set.BlockCount(n), s.BlockCount(n); got != want {
			t.Fatalf("mapped BlockCount(%d): got %d, want %d", n, got, want)
		}
	}
	decoded := m.Set.Set()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	sameAddrs(t, "decoded after Close", decoded, s)
	seed := rng.Uint64()
	sameAddrs(t, "decoded sample",
		decoded.Sample(1000, stats.NewRNG(seed)), s.Sample(1000, stats.NewRNG(seed)))
	if m.Close() != nil { // double close is a no-op
		t.Fatal("second Close errored")
	}
}

// TestOpenMappedRejectsCorrupt writes a valid file, damages it on disk,
// and checks OpenMapped fails cleanly without leaking the mapping.
func TestOpenMappedRejectsCorrupt(t *testing.T) {
	rng := stats.NewRNG(97)
	s := clusteredSet(rng, 4, 1000)
	path := filepath.Join(t.TempDir(), "set.v2")
	if err := s.WriteFileV2(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[v2PageAlign] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMapped(path); err == nil {
		t.Fatal("corrupt file mapped without error")
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMapped(path); err == nil {
		t.Fatal("truncated file mapped without error")
	}
}
