package ipset

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"unclean/internal/netaddr"
	"unclean/internal/stats"
)

// Shaped fixtures: each generator produces a membership that lands in a
// different container mix of the v2 image, so the tests below exercise
// array, bitmap, and run containers plus their cross products. The
// TestCompressed* tests run their queries on sets decoded from that
// image and check them against naive map or masked-set oracles.

type setShape struct {
	name string
	gen  func(rng *stats.RNG) Set
}

func shapedSets() []setShape {
	return []setShape{
		{"empty", func(rng *stats.RNG) Set { return Set{} }},
		{"single", func(rng *stats.RNG) Set {
			return FromUint32s([]uint32{rng.Uint32()})
		}},
		{"sparse", func(rng *stats.RNG) Set {
			// Scattered across the whole space: short array containers.
			return randomSet(rng, 2000)
		}},
		{"clustered", func(rng *stats.RNG) Set {
			// A handful of /16s, each holding a mid-size array.
			b := NewBuilder(4096)
			for k := 0; k < 8; k++ {
				base := rng.Uint32() &^ 0xffff
				for i := 0; i < 512; i++ {
					b.Add(netaddr.Addr(base | rng.Uint32()&0xffff))
				}
			}
			return b.Build()
		}},
		{"dense", func(rng *stats.RNG) Set {
			// One /16 with ~20k random members: a bitmap container.
			b := NewBuilder(20000)
			base := rng.Uint32() &^ 0xffff
			for i := 0; i < 20000; i++ {
				b.Add(netaddr.Addr(base | rng.Uint32()&0xffff))
			}
			return b.Build()
		}},
		{"runs", func(rng *stats.RNG) Set {
			// Complete /24s inside a few /16s: run containers.
			b := NewBuilder(8 * 256)
			for k := 0; k < 8; k++ {
				base := rng.Uint32() &^ 0xffff
				blk := base | uint32(rng.Intn(256))<<8
				for v := uint32(0); v < 256; v++ {
					b.Add(netaddr.Addr(blk | v))
				}
			}
			return b.Build()
		}},
		{"full16", func(rng *stats.RNG) Set {
			// An entire /16: the extreme run container [0, 0xffff].
			base := rng.Uint32() &^ 0xffff
			b := NewBuilder(1 << 16)
			for v := uint32(0); v < 1<<16; v++ {
				b.Add(netaddr.Addr(base | v))
			}
			return b.Build()
		}},
		{"mixed", func(rng *stats.RNG) Set {
			// Sparse background plus a dense /16 plus complete /24 runs —
			// all three kinds in one set.
			b := NewBuilder(40000)
			for i := 0; i < 3000; i++ {
				b.Add(netaddr.Addr(rng.Uint32()))
			}
			base := rng.Uint32() &^ 0xffff
			for i := 0; i < 15000; i++ {
				b.Add(netaddr.Addr(base | rng.Uint32()&0xffff))
			}
			blk := (rng.Uint32() &^ 0xffff) | uint32(rng.Intn(256))<<8
			for v := uint32(0); v < 256; v++ {
				b.Add(netaddr.Addr(blk | v))
			}
			return b.Build()
		}},
		{"edges", func(rng *stats.RNG) Set {
			// Address-space boundaries: 0.0.0.0, 255.255.255.255, and word
			// boundaries inside a container.
			return FromUint32s([]uint32{
				0, 1, 63, 64, 65, 0xffff, 0x10000,
				0xffffffff, 0xffff0000, 0x7fffffff, 0x80000000,
			})
		}},
	}
}

func addrsOf(s Set) []uint32 {
	out := make([]uint32, 0, s.Len())
	s.Each(func(a netaddr.Addr) bool {
		out = append(out, uint32(a))
		return true
	})
	return out
}

func sameAddrs(t *testing.T, label string, got, want Set) {
	t.Helper()
	ga, wa := addrsOf(got), addrsOf(want)
	if len(ga) != len(wa) {
		t.Fatalf("%s: got %d addrs, want %d", label, len(ga), len(wa))
	}
	for i := range ga {
		if ga[i] != wa[i] {
			t.Fatalf("%s: addr %d: got %08x, want %08x", label, i, ga[i], wa[i])
		}
	}
	if !got.Equal(want) || !want.Equal(got) {
		t.Fatalf("%s: Equal disagrees with element-wise identity", label)
	}
}

// imageOf encodes s as a v2 image and parses it back into an Image
// (copying the payloads out, as a non-mmap reader does).
func imageOf(t *testing.T, s Set) Image {
	t.Helper()
	im, err := parseV2(writeV2(t, s), false)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// viaImage round-trips s through its v2 image.
func viaImage(t *testing.T, s Set) Set {
	t.Helper()
	return imageOf(t, s).Set()
}

// memberMap is the membership oracle: a hash set of the addresses.
func memberMap(s Set) map[uint32]bool {
	m := make(map[uint32]bool, s.Len())
	s.Each(func(a netaddr.Addr) bool {
		m[uint32(a)] = true
		return true
	})
	return m
}

// TestCompressRoundTrip proves the v2 image is lossless for every shape:
// the Image reports the set's size, decodes to the same membership, and
// the decoded set's accessors agree with the original's.
func TestCompressRoundTrip(t *testing.T) {
	for _, shape := range shapedSets() {
		t.Run(shape.name, func(t *testing.T) {
			rng := stats.NewRNG(7)
			plain := shape.gen(rng)
			im := imageOf(t, plain)
			if im.Len() != plain.Len() {
				t.Fatalf("Image.Len: got %d, want %d", im.Len(), plain.Len())
			}
			back := im.Set()
			sameAddrs(t, "roundtrip", back, plain)
			for i := 0; i < plain.Len(); i += 1 + plain.Len()/64 {
				if back.At(i) != plain.At(i) {
					t.Fatalf("At(%d): got %v, want %v", i, back.At(i), plain.At(i))
				}
			}
			if back.String() != plain.String() {
				t.Fatalf("String: got %q, want %q", back.String(), plain.String())
			}
		})
	}
}

// TestCompressedContains checks membership for members, random probes,
// and near-miss neighbours of members (container and word edges).
func TestCompressedContains(t *testing.T) {
	for _, shape := range shapedSets() {
		t.Run(shape.name, func(t *testing.T) {
			rng := stats.NewRNG(11)
			s := viaImage(t, shape.gen(rng))
			want := memberMap(s)
			probe := func(a netaddr.Addr) {
				if s.Contains(a) != want[uint32(a)] {
					t.Fatalf("Contains(%v) = %v, oracle says %v", a, s.Contains(a), want[uint32(a)])
				}
			}
			for i := 0; i < 5000; i++ {
				probe(netaddr.Addr(rng.Uint32()))
			}
			s.Each(func(a netaddr.Addr) bool {
				for _, d := range []uint32{0, 1, 0xffff, ^uint32(0)} {
					probe(netaddr.Addr(uint32(a) + d))
				}
				return true
			})
		})
	}
}

// TestCompressedAlgebraDifferential runs Union/Intersect/Difference over
// every ordered pair of shapes and demands element-wise identity with a
// hash-set oracle.
func TestCompressedAlgebraDifferential(t *testing.T) {
	shapes := shapedSets()
	for _, sa := range shapes {
		for _, sb := range shapes {
			t.Run(sa.name+"_"+sb.name, func(t *testing.T) {
				rng := stats.NewRNG(13)
				a, b := sa.gen(rng), sb.gen(rng)
				// Overlap the operands so intersections are non-trivial:
				// push half of a into b.
				b = b.Union(a.Sample(a.Len()/2, rng))
				a, b = viaImage(t, a), viaImage(t, b)
				ma, mb := memberMap(a), memberMap(b)
				var u, x, d []uint32
				for v := range ma {
					u = append(u, v)
					if mb[v] {
						x = append(x, v)
					} else {
						d = append(d, v)
					}
				}
				for v := range mb {
					if !ma[v] {
						u = append(u, v)
					}
				}
				sameAddrs(t, "union", a.Union(b), FromUint32s(u))
				sameAddrs(t, "intersect", a.Intersect(b), FromUint32s(x))
				sameAddrs(t, "difference", a.Difference(b), FromUint32s(d))
			})
		}
	}
}

// TestCompressedBlockCountsDifferential checks that the Image reads
// |C_n| off container metadata exactly as Set.BlockCount and
// Set.BlockCounts compute it, for every n in [0,32] and every container
// mix, and that both match a masked hash-set oracle.
func TestCompressedBlockCountsDifferential(t *testing.T) {
	for _, shape := range shapedSets() {
		t.Run(shape.name, func(t *testing.T) {
			rng := stats.NewRNG(17)
			plain := shape.gen(rng)
			im := imageOf(t, plain)
			counts := plain.BlockCounts(0, 32)
			for n := 0; n <= 32; n++ {
				mask := maskFor(n)
				blocks := map[uint32]bool{}
				plain.Each(func(a netaddr.Addr) bool {
					blocks[uint32(a)&mask] = true
					return true
				})
				want := len(blocks)
				if got := im.BlockCount(n); got != want {
					t.Fatalf("Image.BlockCount(%d): got %d, want %d", n, got, want)
				}
				if got := plain.BlockCount(n); got != want {
					t.Fatalf("BlockCount(%d): got %d, want %d", n, got, want)
				}
				if counts[n] != want {
					t.Fatalf("BlockCounts[%d]: got %d, want %d", n, counts[n], want)
				}
			}
		})
	}
}

// TestCompressedBlockIntersectDifferential checks |C_n(A) ∩ C_n(B)| for
// all prefix lengths across shape pairs against the intersection of the
// two masked sets.
func TestCompressedBlockIntersectDifferential(t *testing.T) {
	shapes := shapedSets()
	for _, sa := range shapes {
		for _, sb := range shapes {
			t.Run(sa.name+"_"+sb.name, func(t *testing.T) {
				rng := stats.NewRNG(19)
				a, b := sa.gen(rng), sb.gen(rng)
				b = b.Union(a.Sample(a.Len()/2, rng))
				a, b = viaImage(t, a), viaImage(t, b)
				for n := 0; n <= 32; n++ {
					want := a.MaskedSet(n).Intersect(b.MaskedSet(n)).Len()
					if got := a.BlockIntersectCount(b, n); got != want {
						t.Fatalf("BlockIntersectCount(%d): got %d, want %d", n, got, want)
					}
				}
			})
		}
	}
}

// TestCompressedInBlocksDifferential checks the inclusion relation for
// members, misses, and block neighbours across all prefix lengths.
func TestCompressedInBlocksDifferential(t *testing.T) {
	for _, shape := range shapedSets() {
		t.Run(shape.name, func(t *testing.T) {
			rng := stats.NewRNG(23)
			s := viaImage(t, shape.gen(rng))
			probes := make([]netaddr.Addr, 0, 256)
			s.Each(func(a netaddr.Addr) bool {
				probes = append(probes, a, netaddr.Addr(uint32(a)+1), netaddr.Addr(uint32(a)^0x100))
				return len(probes) < 192
			})
			for i := 0; i < 64; i++ {
				probes = append(probes, netaddr.Addr(rng.Uint32()))
			}
			for n := 0; n <= 32; n++ {
				blocks := memberMap(s.MaskedSet(n))
				for _, a := range probes {
					if got, want := s.InBlocks(a, n), blocks[uint32(a)&maskFor(n)]; got != want {
						t.Fatalf("InBlocks(%v, %d): got %v, want %v", a, n, got, want)
					}
				}
			}
		})
	}
}

// TestCompressedSampleIdentical pins Sample against the original
// map/permutation implementation on every shape: the same subset and
// the same generator consumption.
func TestCompressedSampleIdentical(t *testing.T) {
	for _, shape := range shapedSets() {
		t.Run(shape.name, func(t *testing.T) {
			rng := stats.NewRNG(29)
			s := viaImage(t, shape.gen(rng))
			n := s.Len()
			for _, k := range []int{0, 1, n / 100, n / 16, n / 3, n / 2, n - 1, n} {
				if k < 0 || k > n {
					continue
				}
				seed := rng.Uint64()
				ra, rb := stats.NewRNG(seed), stats.NewRNG(seed)
				sameAddrs(t, fmt.Sprintf("sample k=%d", k), s.Sample(k, ra), referenceSample(s, k, rb))
				if ra.Uint64() != rb.Uint64() {
					t.Fatalf("k=%d: rng consumption differs from the reference", k)
				}
			}
		})
	}
}

// TestCompressedSampleBlocksIdentical proves the concurrent Monte-Carlo
// draw kernels return, draw for draw, what a sequential Sample followed
// by BlockCounts (or a masked-set intersection) returns under the same
// per-draw generator forks.
func TestCompressedSampleBlocksIdentical(t *testing.T) {
	rng := stats.NewRNG(31)
	control := viaImage(t, randomSet(rng, 30000))
	target := viaImage(t, control.Sample(5000, rng))
	seed := rng.Uint64()
	const draws, size, lo, hi = 50, 2000, 8, 24

	gotB := control.SampleBlocks(draws, size, lo, hi, stats.NewRNG(seed))
	gotI := control.SampleIntersections(target, draws, size, lo, hi, stats.NewRNG(seed))
	parent := stats.NewRNG(seed)
	for d := 0; d < draws; d++ {
		sub := control.Sample(size, parent.Fork(uint64(d)))
		counts := sub.BlockCounts(lo, hi)
		for n := lo; n <= hi; n++ {
			if got, want := gotB[n-lo][d], float64(counts[n-lo]); got != want {
				t.Fatalf("SampleBlocks draw %d /%d: got %v, want %v", d, n, got, want)
			}
			want := float64(sub.MaskedSet(n).Intersect(target.MaskedSet(n)).Len())
			if got := gotI[n-lo][d]; got != want {
				t.Fatalf("SampleIntersections draw %d /%d: got %v, want %v", d, n, got, want)
			}
		}
	}
}

// goldenV2 holds the SHA-256 of each shape's v2 image (seed 37). The
// container choice and layout are a file format: a change here means
// images written before it no longer compare byte for byte.
var goldenV2 = map[string]string{
	"empty":     "a2118a3bd59ede41ec748f34df17b4107abd5ef1aea0fdb664ac01d52a5b65fc",
	"single":    "6e7daa5ae25c52ba0f2c094ce09f8c403f0dfe41db1743ab955f047e50be8fd4",
	"sparse":    "3fb6bd384e9dbc3661e023414f8f8e1a930eb116c6ce85d3463d4de8f8878068",
	"clustered": "8879b98d3f64ca11b300ece16423363cec66068b5b96d5b81190774157e9258d",
	"dense":     "edc288c51c66fab234ccf2fefb3b0d548441a6a0000a5eac587621cc9cbb9933",
	"runs":      "05f8673514e54c3e6e24f9d8b7df6427b89096f94f07f771d7abc319c7252aed",
	"full16":    "cae2e81192b986621fcd621af4b6602950e5923f5daf2c5102b2ddd3ab75cd0a",
	"mixed":     "6f89453ca9998332c034a961214af0510551900bda26b2f53fd24b8505eda632",
	"edges":     "8af67eb06054b07710638d9d466c057cc1b0c91097958bf83ff574d6960b6fb8",
}

// TestCompressedCodecIdentical pins the v2 writer's output to golden
// digests, and proves both writers re-encode a decoded set byte for
// byte.
func TestCompressedCodecIdentical(t *testing.T) {
	for _, shape := range shapedSets() {
		t.Run(shape.name, func(t *testing.T) {
			rng := stats.NewRNG(37)
			plain := shape.gen(rng)
			v2 := writeV2(t, plain)
			if got := fmt.Sprintf("%x", sha256.Sum256(v2)); got != goldenV2[shape.name] {
				t.Fatalf("v2 image digest %s, want %s", got, goldenV2[shape.name])
			}
			back, err := ReadBinary(bytes.NewReader(v2))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(writeV2(t, back), v2) {
				t.Fatal("v2 re-encoding of a decoded set differs")
			}
			var v1, re bytes.Buffer
			if err := plain.WriteBinary(&v1); err != nil {
				t.Fatal(err)
			}
			if err := back.WriteBinary(&re); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(v1.Bytes(), re.Bytes()) {
				t.Fatal("v1 encoding of a v2-decoded set differs")
			}
		})
	}
}

// TestCompressedMaskedSetAndBlocks checks the block materializers
// against a masked hash-set oracle and against each other.
func TestCompressedMaskedSetAndBlocks(t *testing.T) {
	for _, shape := range shapedSets() {
		t.Run(shape.name, func(t *testing.T) {
			rng := stats.NewRNG(41)
			s := viaImage(t, shape.gen(rng))
			for _, n := range []int{0, 8, 12, 16, 20, 24, 30, 32} {
				mask := maskFor(n)
				pops := map[uint32]int{}
				var bases []uint32
				s.Each(func(a netaddr.Addr) bool {
					pops[uint32(a)&mask]++
					bases = append(bases, uint32(a)&mask)
					return true
				})
				masked := s.MaskedSet(n)
				sameAddrs(t, "masked", masked, FromUint32s(bases))
				blocks := s.Blocks(n)
				if len(blocks) != masked.Len() {
					t.Fatalf("Blocks(%d): got %d blocks, want %d", n, len(blocks), masked.Len())
				}
				for i, b := range blocks {
					if b != masked.At(i).Block(n) {
						t.Fatalf("Blocks(%d)[%d]: got %v, want %v", n, i, b, masked.At(i).Block(n))
					}
				}
				gp := s.BlockPopulations(n)
				if len(gp) != len(pops) {
					t.Fatalf("BlockPopulations(%d): %d blocks, want %d", n, len(gp), len(pops))
				}
				for base, c := range pops {
					if b := netaddr.Addr(base).Block(n); gp[b] != c {
						t.Fatalf("BlockPopulations(%d)[%v]: got %d, want %d", n, b, gp[b], c)
					}
				}
			}
		})
	}
}

// TestCompressedWithinBlocks checks the candidate-population
// materializer against a masked hash-set oracle.
func TestCompressedWithinBlocks(t *testing.T) {
	rng := stats.NewRNG(43)
	s := viaImage(t, randomSet(rng, 20000))
	cover := viaImage(t, s.Sample(500, rng))
	for _, n := range []int{8, 16, 20, 24} {
		mask := maskFor(n)
		covered := memberMap(cover.MaskedSet(n))
		want := s.Filter(func(a netaddr.Addr) bool { return covered[uint32(a)&mask] })
		sameAddrs(t, fmt.Sprintf("/%d", n), s.WithinBlocks(cover, n), want)
	}
}

// TestContainerKinds pins the canonical kind choices of the image:
// sparse /16s become arrays, dense ones bitmaps, CIDR-complete ones
// runs.
func TestContainerKinds(t *testing.T) {
	onlyCtr := func(s Set) ctr {
		im := imageOf(t, s)
		if len(im.cs) != 1 {
			t.Fatalf("want one container, got %d", len(im.cs))
		}
		return im.cs[0]
	}
	sparse := make([]uint32, 0, 100)
	for i := uint32(0); i < 100; i++ {
		sparse = append(sparse, 0x0a000000|i*571)
	}
	if k := onlyCtr(FromUint32s(sparse)).kind; k != arrKind {
		t.Fatalf("sparse: kind %d, want array", k)
	}
	rng := stats.NewRNG(47)
	dense := make([]uint32, 0, 3*arrMaxCard)
	for i := 0; i < 3*arrMaxCard; i++ {
		dense = append(dense, 0x0a000000|rng.Uint32()&0xffff)
	}
	if k := onlyCtr(FromUint32s(dense)).kind; k != bmpKind {
		t.Fatalf("dense: kind %d, want bitmap", k)
	}
	run := make([]uint32, 0, 1<<16)
	for i := uint32(0); i < 1<<16; i++ {
		run = append(run, 0x0a000000|i)
	}
	// The whole /16 is one run: a 4-byte payload for 256 KiB of raw
	// addresses.
	if c := onlyCtr(FromUint32s(run)); c.kind != runKind || len(c.arr) != 2 {
		t.Fatalf("full /16: kind %d with %d values, want one run", c.kind, len(c.arr))
	}
}

// TestCompressFootprint checks the image actually shrinks a clustered
// membership, the reason the v2 format uses containers.
func TestCompressFootprint(t *testing.T) {
	rng := stats.NewRNG(53)
	// Clustered like unclean space: 64 /16s holding ~8k addrs each.
	b := NewBuilder(64 * 8192)
	for k := 0; k < 64; k++ {
		base := rng.Uint32() &^ 0xffff
		for i := 0; i < 8192; i++ {
			b.Add(netaddr.Addr(base | rng.Uint32()&0xffff))
		}
	}
	s := b.Build()
	if img, raw := len(writeV2(t, s)), 4*s.Len(); img >= raw {
		t.Fatalf("clustered image did not shrink: %d >= %d bytes", img, raw)
	}
}

// TestEqualMixedRepresentations exercises Equal across sets that reach
// the same membership by different routes (built, v1- and v2-decoded,
// empty in every form) and against near-miss memberships.
func TestEqualMixedRepresentations(t *testing.T) {
	rng := stats.NewRNG(59)
	s := randomSet(rng, 10000)
	var v1 bytes.Buffer
	if err := s.WriteBinary(&v1); err != nil {
		t.Fatal(err)
	}
	from1, err := ReadBinary(&v1)
	if err != nil {
		t.Fatal(err)
	}
	from2 := viaImage(t, s)
	if !s.Equal(from1) || !from1.Equal(from2) || !from2.Equal(s) {
		t.Fatal("identical memberships compare unequal")
	}
	// Flip one member.
	mod := s.Difference(FromAddrs([]netaddr.Addr{s.At(s.Len() / 2)}))
	mod = viaImage(t, mod.Union(FromUint32s([]uint32{uint32(s.At(s.Len()/2)) ^ 1})))
	if s.Equal(mod) || mod.Equal(from2) {
		t.Fatal("different memberships compare equal")
	}
	empties := []Set{{}, FromUint32s(nil), NewBuilder(4).Build(), viaImage(t, Set{}), s.Intersect(Set{})}
	for i, a := range empties {
		for j, b := range empties {
			if !a.Equal(b) {
				t.Fatalf("empty sets %d and %d compare unequal", i, j)
			}
		}
	}
}
