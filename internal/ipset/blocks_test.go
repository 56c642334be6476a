package ipset

import (
	"math/rand"
	"testing"
	"testing/quick"

	"unclean/internal/netaddr"
	"unclean/internal/stats"
)

func TestBlockCountKnown(t *testing.T) {
	s := MustParse("10.1.1.1 10.1.1.2 10.1.2.1 10.2.0.1 11.0.0.1")
	cases := []struct{ n, want int }{
		{0, 1}, {8, 2}, {16, 3}, {24, 4}, {32, 5},
	}
	for _, c := range cases {
		if got := s.BlockCount(c.n); got != c.want {
			t.Errorf("BlockCount(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	var empty Set
	if empty.BlockCount(16) != 0 {
		t.Error("empty BlockCount should be 0")
	}
}

func TestBlockCountsMatchesBlockCount(t *testing.T) {
	f := func(raw []uint32) bool {
		s := toSet(raw)
		counts := s.BlockCounts(0, 32)
		for n := 0; n <= 32; n++ {
			if counts[n] != s.BlockCount(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(20071024))}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockCountsMonotone(t *testing.T) {
	// |C_n(S)| is non-decreasing in n and bounded by |S|.
	f := func(raw []uint32) bool {
		s := toSet(raw)
		counts := s.BlockCounts(16, 32)
		for i := 1; i < len(counts); i++ {
			if counts[i] < counts[i-1] {
				return false
			}
		}
		return len(raw) == 0 || counts[len(counts)-1] == s.Len()
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(20071024))}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockCountsPanics(t *testing.T) {
	s := MustParse("1.2.3.4")
	for _, c := range [][2]int{{-1, 5}, {5, 33}, {20, 10}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BlockCounts(%d,%d) did not panic", c[0], c[1])
				}
			}()
			s.BlockCounts(c[0], c[1])
		}()
	}
}

func TestBlocks(t *testing.T) {
	s := MustParse("10.1.1.1 10.1.200.9 10.2.0.1")
	blocks := s.Blocks(16)
	want := []string{"10.1.0.0/16", "10.2.0.0/16"}
	if len(blocks) != len(want) {
		t.Fatalf("Blocks = %v", blocks)
	}
	for i, b := range blocks {
		if b.String() != want[i] {
			t.Errorf("Blocks[%d] = %s, want %s", i, b, want[i])
		}
	}
}

func TestMaskedSet(t *testing.T) {
	s := MustParse("10.1.1.1 10.1.200.9 10.2.0.1")
	m := s.MaskedSet(16)
	if m.Len() != 2 || !m.Contains(netaddr.MustParseAddr("10.1.0.0")) {
		t.Fatalf("MaskedSet = %v", m)
	}
	if got, want := m.Len(), s.BlockCount(16); got != want {
		t.Errorf("MaskedSet len %d != BlockCount %d", got, want)
	}
}

func TestBlockIntersectCountKnown(t *testing.T) {
	a := MustParse("10.1.1.1 10.2.1.1 10.3.1.1")
	b := MustParse("10.1.99.99 10.4.1.1")
	if got := a.BlockIntersectCount(b, 16); got != 1 {
		t.Errorf("intersect at /16 = %d, want 1", got)
	}
	if got := a.BlockIntersectCount(b, 8); got != 1 {
		t.Errorf("intersect at /8 = %d, want 1", got)
	}
	if got := a.BlockIntersectCount(b, 32); got != 0 {
		t.Errorf("intersect at /32 = %d, want 0", got)
	}
}

func TestBlockIntersectCountProperties(t *testing.T) {
	symmetric := func(ra, rb []uint32, nRaw uint8) bool {
		n := int(nRaw % 33)
		a, b := toSet(ra), toSet(rb)
		return a.BlockIntersectCount(b, n) == b.BlockIntersectCount(a, n)
	}
	if err := quick.Check(symmetric, &quick.Config{Rand: rand.New(rand.NewSource(20071024))}); err != nil {
		t.Errorf("symmetry: %v", err)
	}
	viaMasked := func(ra, rb []uint32, nRaw uint8) bool {
		n := int(nRaw % 33)
		a, b := toSet(ra), toSet(rb)
		want := a.MaskedSet(n).Intersect(b.MaskedSet(n)).Len()
		return a.BlockIntersectCount(b, n) == want
	}
	if err := quick.Check(viaMasked, &quick.Config{Rand: rand.New(rand.NewSource(20071024))}); err != nil {
		t.Errorf("against masked-set intersection: %v", err)
	}
	at32 := func(ra, rb []uint32) bool {
		a, b := toSet(ra), toSet(rb)
		return a.BlockIntersectCount(b, 32) == a.Intersect(b).Len()
	}
	if err := quick.Check(at32, &quick.Config{Rand: rand.New(rand.NewSource(20071024))}); err != nil {
		t.Errorf("/32 equals raw intersection: %v", err)
	}
}

// blockIntersectCount is the per-prefix merge that blockIntersectCountsInto
// replaced: one pass over both slices for a single mask, skipping the
// rest of each shared block. It stays here as the oracle.
func blockIntersectCount(x, y []uint32, mask uint32) int {
	i, j := 0, 0
	count := 0
	for i < len(x) && j < len(y) {
		a, b := x[i]&mask, y[j]&mask
		switch {
		case a < b:
			i++
		case a > b:
			j++
		default:
			count++
			for i < len(x) && x[i]&mask == a {
				i++
			}
			for j < len(y) && y[j]&mask == b {
				j++
			}
		}
	}
	return count
}

// TestBlockIntersectCountsMatchesPerPrefix pins the one-pass all-prefix
// kernel to the per-prefix merge on every pair of fixture shapes, in
// both argument orders, over full and partial prefix ranges.
func TestBlockIntersectCountsMatchesPerPrefix(t *testing.T) {
	rng := stats.NewRNG(1401)
	cluster := addrsOf(clusteredSet(rng, 6, 400))
	// Bit-flipped copies of the clustered set: one shares every block
	// down to /31 with it, one shares no block at any n >= 1.
	near, far := make([]uint32, len(cluster)), make([]uint32, len(cluster))
	for i, v := range cluster {
		near[i] = v ^ 1
		far[i] = v ^ 0x8000_0000
	}
	sets := []struct {
		name  string
		addrs []uint32
	}{
		{"empty", nil},
		{"single", []uint32{0x0a000001}},
		{"single-near", []uint32{0x0a0000ff}},
		{"edges", []uint32{0, 1, 63, 64, 0xffff, 0x10000, 0x7fffffff, 0x80000000, 0xffffffff}},
		{"low", []uint32{0, 1, 2, 3}},
		{"high", []uint32{0xfffffffc, 0xfffffffe, 0xffffffff}},
		{"random", addrsOf(randomSet(rng, 3000))},
		{"random-small", addrsOf(randomSet(rng, 500))},
		{"cluster", cluster},
		{"cluster-sub", addrsOf(FromUint32s(cluster).Sample(len(cluster)/3, rng))},
		{"cluster-near", addrsOf(FromUint32s(near))},
		{"cluster-far", addrsOf(FromUint32s(far))},
		{"cluster-many", addrsOf(clusteredSet(rng, 40, 30))},
	}
	ranges := [][2]int{{0, 32}, {16, 32}, {24, 24}}
	out := make([]int, 34)
	for _, xs := range sets {
		for _, ys := range sets {
			xn, x, yn, y := xs.name, xs.addrs, ys.name, ys.addrs
			for _, r := range ranges {
				lo, hi := r[0], r[1]
				for i := range out {
					out[i] = -1 // stale values must be overwritten
				}
				blockIntersectCountsInto(x, y, lo, hi, out)
				for n := lo; n <= hi; n++ {
					if want := blockIntersectCount(x, y, maskFor(n)); out[n-lo] != want {
						t.Fatalf("x=%s y=%s [%d,%d]: /%d = %d, want %d", xn, yn, lo, hi, n, out[n-lo], want)
					}
				}
				if out[hi-lo+1] != -1 {
					t.Fatalf("x=%s y=%s [%d,%d]: wrote past hi-lo", xn, yn, lo, hi)
				}
			}
		}
	}
}

func TestInBlocks(t *testing.T) {
	cover := MustParse("10.1.1.1 192.168.3.4")
	if !cover.InBlocks(netaddr.MustParseAddr("10.1.200.9"), 16) {
		t.Error("10.1.200.9 should be in C_16(cover)")
	}
	if cover.InBlocks(netaddr.MustParseAddr("10.2.0.1"), 16) {
		t.Error("10.2.0.1 should not be in C_16(cover)")
	}
	if !cover.InBlocks(netaddr.MustParseAddr("10.1.1.1"), 32) {
		t.Error("member must be in its own /32")
	}
	var empty Set
	if empty.InBlocks(0, 16) {
		t.Error("empty cover contains nothing")
	}
}

func TestInBlocksMatchesLinearScan(t *testing.T) {
	f := func(raw []uint32, probe uint32, nRaw uint8) bool {
		n := int(nRaw % 33)
		s := toSet(raw)
		p := netaddr.Addr(probe)
		want := false
		for _, b := range s.Blocks(n) {
			if b.Contains(p) {
				want = true
				break
			}
		}
		return s.InBlocks(p, n) == want
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(20071024))}); err != nil {
		t.Fatal(err)
	}
}

func TestWithinBlocks(t *testing.T) {
	traffic := MustParse("10.1.5.5 10.1.6.6 10.2.0.1 11.0.0.1")
	cover := MustParse("10.1.0.0")
	got := traffic.WithinBlocks(cover, 16)
	if got.Len() != 2 {
		t.Fatalf("WithinBlocks = %v", got)
	}
	if !got.Contains(netaddr.MustParseAddr("10.1.5.5")) || !got.Contains(netaddr.MustParseAddr("10.1.6.6")) {
		t.Fatalf("WithinBlocks membership wrong: %v", got)
	}
}

func TestWithinBlocksMatchesFilter(t *testing.T) {
	f := func(ra, rb []uint32, nRaw uint8) bool {
		n := int(nRaw % 33)
		a, b := toSet(ra), toSet(rb)
		want := a.Filter(func(addr netaddr.Addr) bool { return b.InBlocks(addr, n) })
		return a.WithinBlocks(b, n).Equal(want)
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(20071024))}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockPopulations(t *testing.T) {
	s := MustParse("10.1.1.1 10.1.1.2 10.2.1.1")
	pops := s.BlockPopulations(16)
	if len(pops) != 2 {
		t.Fatalf("populations = %v", pops)
	}
	if pops[netaddr.MustParseBlock("10.1.0.0/16")] != 2 {
		t.Errorf("10.1.0.0/16 pop = %d, want 2", pops[netaddr.MustParseBlock("10.1.0.0/16")])
	}
	total := 0
	for _, c := range pops {
		total += c
	}
	if total != s.Len() {
		t.Errorf("populations sum %d != |S| %d", total, s.Len())
	}
}
