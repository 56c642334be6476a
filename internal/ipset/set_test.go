package ipset

import (
	"math/rand"
	"testing"
	"testing/quick"

	"unclean/internal/netaddr"
	"unclean/internal/stats"
)

func TestFromUint32sDedup(t *testing.T) {
	s := FromUint32s([]uint32{5, 3, 5, 1, 3, 1})
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	for i, want := range []uint32{1, 3, 5} {
		if uint32(s.At(i)) != want {
			t.Errorf("At(%d) = %d, want %d", i, uint32(s.At(i)), want)
		}
	}
}

func TestFromUint32sDoesNotRetainInput(t *testing.T) {
	in := []uint32{9, 4, 7}
	s := FromUint32s(in)
	in[0] = 0
	if !s.Contains(netaddr.Addr(9)) {
		t.Fatal("set shares storage with caller slice")
	}
}

func TestParse(t *testing.T) {
	s := MustParse("10.1.2.3, 10.1.2.4\n10.1.2.3")
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if _, err := Parse("10.1.2"); err == nil {
		t.Error("Parse of invalid address should error")
	}
	if empty := MustParse(""); !empty.IsEmpty() {
		t.Error("Parse of empty string should be empty set")
	}
}

func TestContains(t *testing.T) {
	s := MustParse("1.2.3.4 5.6.7.8 9.10.11.12")
	if !s.Contains(netaddr.MustParseAddr("5.6.7.8")) {
		t.Error("missing member")
	}
	if s.Contains(netaddr.MustParseAddr("5.6.7.9")) {
		t.Error("phantom member")
	}
	var empty Set
	if empty.Contains(0) {
		t.Error("empty set contains nothing")
	}
}

func TestEach(t *testing.T) {
	s := FromUint32s([]uint32{3, 1, 2})
	var got []uint32
	s.Each(func(a netaddr.Addr) bool {
		got = append(got, uint32(a))
		return true
	})
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("Each order = %v", got)
	}
	count := 0
	s.Each(func(netaddr.Addr) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("Each early stop visited %d", count)
	}
}

func TestSetAlgebraKnown(t *testing.T) {
	a := FromUint32s([]uint32{1, 2, 3, 4})
	b := FromUint32s([]uint32{3, 4, 5, 6})
	if u := a.Union(b); u.Len() != 6 {
		t.Errorf("|A∪B| = %d, want 6", u.Len())
	}
	if i := a.Intersect(b); i.Len() != 2 || !i.Contains(3) || !i.Contains(4) {
		t.Errorf("A∩B = %v", i)
	}
	if d := a.Difference(b); d.Len() != 2 || !d.Contains(1) || !d.Contains(2) {
		t.Errorf("A\\B = %v", d)
	}
	var empty Set
	if !a.Intersect(empty).IsEmpty() || !empty.Difference(a).IsEmpty() {
		t.Error("algebra with empty set wrong")
	}
	if !a.Union(empty).Equal(a) {
		t.Error("A∪∅ != A")
	}
}

func toSet(raw []uint32) Set { return FromUint32s(raw) }

func TestSetAlgebraProperties(t *testing.T) {
	inclusionExclusion := func(ra, rb []uint32) bool {
		a, b := toSet(ra), toSet(rb)
		return a.Union(b).Len() == a.Len()+b.Len()-a.Intersect(b).Len()
	}
	if err := quick.Check(inclusionExclusion, &quick.Config{Rand: rand.New(rand.NewSource(20071024))}); err != nil {
		t.Errorf("inclusion-exclusion: %v", err)
	}
	partition := func(ra, rb []uint32) bool {
		a, b := toSet(ra), toSet(rb)
		// A = (A\B) ∪ (A∩B), disjointly.
		diff, inter := a.Difference(b), a.Intersect(b)
		return diff.Union(inter).Equal(a) && diff.Intersect(inter).IsEmpty()
	}
	if err := quick.Check(partition, &quick.Config{Rand: rand.New(rand.NewSource(20071024))}); err != nil {
		t.Errorf("difference/intersection partition: %v", err)
	}
	commutative := func(ra, rb []uint32) bool {
		a, b := toSet(ra), toSet(rb)
		return a.Union(b).Equal(b.Union(a)) && a.Intersect(b).Equal(b.Intersect(a))
	}
	if err := quick.Check(commutative, &quick.Config{Rand: rand.New(rand.NewSource(20071024))}); err != nil {
		t.Errorf("commutativity: %v", err)
	}
	membership := func(ra, rb []uint32, probe uint32) bool {
		a, b := toSet(ra), toSet(rb)
		p := netaddr.Addr(probe)
		inU := a.Union(b).Contains(p)
		inI := a.Intersect(b).Contains(p)
		return inU == (a.Contains(p) || b.Contains(p)) &&
			inI == (a.Contains(p) && b.Contains(p))
	}
	if err := quick.Check(membership, &quick.Config{Rand: rand.New(rand.NewSource(20071024))}); err != nil {
		t.Errorf("membership consistency: %v", err)
	}
}

func TestSortedInvariant(t *testing.T) {
	f := func(raw []uint32) bool {
		s := toSet(raw)
		for i := 1; i < s.Len(); i++ {
			if s.At(i-1) >= s.At(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(20071024))}); err != nil {
		t.Fatal(err)
	}
}

func TestFilter(t *testing.T) {
	s := MustParse("10.0.0.1 11.0.0.1 10.0.0.2")
	got := s.Filter(func(a netaddr.Addr) bool { return a.Mask(8) == netaddr.MustParseAddr("10.0.0.0") })
	if got.Len() != 2 {
		t.Fatalf("Filter kept %d, want 2", got.Len())
	}
}

func TestBuilderReuse(t *testing.T) {
	b := NewBuilder(4)
	b.Add(1)
	b.Add(1)
	if b.Len() != 2 {
		t.Fatalf("Builder.Len = %d, want 2 (pre-dedup)", b.Len())
	}
	first := b.Build()
	if first.Len() != 1 {
		t.Fatalf("first build Len = %d", first.Len())
	}
	b.Add(9)
	second := b.Build()
	if second.Len() != 1 || !second.Contains(9) || second.Contains(1) {
		t.Fatalf("builder not reset between builds: %v", second)
	}
	b2 := NewBuilder(-5)
	b2.AddSet(first)
	if got := b2.Build(); !got.Equal(first) {
		t.Fatal("AddSet lost members")
	}
}

func TestString(t *testing.T) {
	small := MustParse("1.2.3.4 5.6.7.8")
	if small.String() != "{1.2.3.4, 5.6.7.8}" {
		t.Errorf("small String = %q", small.String())
	}
	big := FromUint32s([]uint32{1, 2, 3, 4, 5, 6, 7, 8, 9})
	if got := big.String(); got != "{|S|=9, 0.0.0.1..0.0.0.9}" {
		t.Errorf("big String = %q", got)
	}
}

func TestAddrsCopy(t *testing.T) {
	s := MustParse("1.1.1.1 2.2.2.2")
	addrs := s.Addrs()
	addrs[0] = 0
	if !s.Contains(netaddr.MustParseAddr("1.1.1.1")) {
		t.Fatal("Addrs shares backing storage")
	}
}

// TestBuilderSortedFastPath checks Build returns identical sets with and
// without the sorted fast path, including the AddSet append pattern the
// evaluator's compact() uses.
func TestBuilderSortedFastPath(t *testing.T) {
	rng := stats.NewRNG(61)
	base := randomSet(rng, 5000)
	// Sorted input: AddSet then in-order Adds.
	b := NewBuilder(0)
	b.Grow(base.Len() + 10)
	b.AddSet(base)
	if !b.sorted {
		t.Fatal("AddSet of a sorted set should keep the builder sorted")
	}
	last := uint32(base.At(base.Len() - 1))
	for i := uint32(1); i <= 10; i++ {
		b.Add(netaddr.Addr(last + i))
	}
	if !b.sorted {
		t.Fatal("in-order Adds should keep the builder sorted")
	}
	got := b.Build()
	// Reference: same membership built out of order.
	b2 := NewBuilder(0)
	for i := uint32(10); i >= 1; i-- {
		b2.Add(netaddr.Addr(last + i))
	}
	b2.AddSet(base)
	if b2.sorted {
		t.Fatal("out-of-order input should clear the sorted flag")
	}
	sameAddrs(t, "fastpath", got, b2.Build())
}
