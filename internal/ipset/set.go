// Package ipset implements immutable, sorted sets of IPv4 addresses and the
// per-prefix CIDR block arithmetic the uncleanliness analyses are built on.
//
// A Set is a sorted, deduplicated []uint32. Every analysis in the paper
// reduces to a handful of primitives on these sets: cardinality (|S|),
// the CIDR masking function C_n(S), block counting |C_n(S)|, block
// intersection |C_n(A) ∩ C_n(B)|, the inclusion relation i ⊏ S, and
// random sampling for control subsets. Sets persist in two binary
// formats: v1, delta-encoded varints (codec.go), and v2, a roaring-style
// container image (container.go, codecv2.go) that OpenMapped serves
// from a memory mapping as a read-only Image.
package ipset

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"unclean/internal/netaddr"
)

// Set is an immutable sorted set of IPv4 addresses. The zero value is the
// empty set and is ready to use.
type Set struct {
	addrs []uint32 // sorted ascending, no duplicates
}

// FromAddrs builds a Set from addresses in any order, deduplicating.
func FromAddrs(addrs []netaddr.Addr) Set {
	b := NewBuilder(len(addrs))
	for _, a := range addrs {
		b.Add(a)
	}
	return b.Build()
}

// FromUint32s builds a Set from raw uint32 addresses in any order,
// deduplicating. The input slice is not retained.
func FromUint32s(addrs []uint32) Set {
	c := make([]uint32, len(addrs))
	copy(c, addrs)
	return buildSorted(c)
}

func buildSorted(c []uint32) Set {
	if len(c) >= radixCutoff {
		sortUint32s(c, make([]uint32, len(c)))
	} else {
		slices.Sort(c)
	}
	c = dedupSorted(c)
	return Set{addrs: c}
}

func dedupSorted(c []uint32) []uint32 {
	if len(c) == 0 {
		return c
	}
	w := 1
	for i := 1; i < len(c); i++ {
		if c[i] != c[w-1] {
			c[w] = c[i]
			w++
		}
	}
	return c[:w]
}

// Parse builds a Set from a whitespace- or comma-separated list of
// dotted-quad addresses; convenient in tests and examples.
func Parse(s string) (Set, error) {
	fields := strings.FieldsFunc(s, func(r rune) bool {
		return r == ' ' || r == '\t' || r == '\n' || r == '\r' || r == ','
	})
	b := NewBuilder(len(fields))
	for _, f := range fields {
		a, err := netaddr.ParseAddr(f)
		if err != nil {
			return Set{}, err
		}
		b.Add(a)
	}
	return b.Build(), nil
}

// MustParse is Parse that panics on error.
func MustParse(s string) Set {
	set, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return set
}

// Compress returns s.
//
// Deprecated: a Set has a single representation; the container form
// exists only as the v2 image (WriteBinaryV2, OpenMapped). Compress
// remains for callers written against the two-representation API.
func (s Set) Compress() Set { return s }

// Len returns |S|, the number of addresses in the set.
func (s Set) Len() int { return len(s.addrs) }

// IsEmpty reports whether the set has no addresses.
func (s Set) IsEmpty() bool { return s.Len() == 0 }

// At returns the i-th smallest address.
func (s Set) At(i int) netaddr.Addr { return netaddr.Addr(s.addrs[i]) }

// Contains reports whether a is a member of the set.
func (s Set) Contains(a netaddr.Addr) bool {
	_, found := slices.BinarySearch(s.addrs, uint32(a))
	return found
}

// Each calls fn for every address in ascending order; it stops early if fn
// returns false.
func (s Set) Each(fn func(netaddr.Addr) bool) {
	for _, u := range s.addrs {
		if !fn(netaddr.Addr(u)) {
			return
		}
	}
}

// Addrs returns a copy of the membership as a slice of addresses.
func (s Set) Addrs() []netaddr.Addr {
	out := make([]netaddr.Addr, len(s.addrs))
	for i, u := range s.addrs {
		out[i] = netaddr.Addr(u)
	}
	return out
}

// Equal reports whether two sets have identical membership.
func (s Set) Equal(other Set) bool { return slices.Equal(s.addrs, other.addrs) }

// String renders small sets fully and large sets as a cardinality summary.
func (s Set) String() string {
	n := s.Len()
	if n <= 8 {
		parts := make([]string, 0, n)
		s.Each(func(a netaddr.Addr) bool {
			parts = append(parts, a.String())
			return true
		})
		return "{" + strings.Join(parts, ", ") + "}"
	}
	return fmt.Sprintf("{|S|=%d, %s..%s}", n, s.At(0), s.At(n-1))
}

// Builder accumulates addresses for a Set.
type Builder struct {
	addrs []uint32
	// sorted tracks whether addrs is ascending (duplicates allowed), so
	// Build can skip the sort for already-ordered input — the common case
	// when whole sets are appended with AddSet.
	sorted bool
}

// NewBuilder returns a Builder with capacity for sizeHint addresses.
func NewBuilder(sizeHint int) *Builder {
	if sizeHint < 0 {
		sizeHint = 0
	}
	return &Builder{addrs: make([]uint32, 0, sizeHint), sorted: true}
}

// Grow reserves capacity for at least n more addresses, so a sequence
// of Add/AddSet calls of known total size performs one allocation.
func (b *Builder) Grow(n int) {
	if n <= 0 {
		return
	}
	if need := len(b.addrs) + n; need > cap(b.addrs) {
		grown := make([]uint32, len(b.addrs), need)
		copy(grown, b.addrs)
		b.addrs = grown
	}
}

// Add inserts an address; duplicates are removed at Build time.
func (b *Builder) Add(a netaddr.Addr) {
	if b.sorted && len(b.addrs) > 0 && uint32(a) < b.addrs[len(b.addrs)-1] {
		b.sorted = false
	}
	b.addrs = append(b.addrs, uint32(a))
}

// AddSet inserts every address of another set, growing capacity once.
// Appending sets in ascending order (or into an empty builder) keeps
// the builder sorted, so Build skips its sort pass entirely.
func (b *Builder) AddSet(s Set) {
	if len(s.addrs) == 0 {
		return
	}
	b.Grow(len(s.addrs))
	if b.sorted && len(b.addrs) > 0 && s.addrs[0] < b.addrs[len(b.addrs)-1] {
		b.sorted = false
	}
	b.addrs = append(b.addrs, s.addrs...)
}

// Len returns the number of addresses added so far (including duplicates).
func (b *Builder) Len() int { return len(b.addrs) }

// Build sorts (unless the input arrived sorted), deduplicates and
// returns the Set. The Builder is reset and may be reused.
func (b *Builder) Build() Set {
	var s Set
	if b.sorted {
		s = Set{addrs: dedupSorted(b.addrs)}
	} else {
		s = buildSorted(b.addrs)
	}
	b.addrs = nil
	b.sorted = true
	return s
}

// Union returns s ∪ other.
func (s Set) Union(other Set) Set {
	out := make([]uint32, 0, len(s.addrs)+len(other.addrs))
	i, j := 0, 0
	for i < len(s.addrs) && j < len(other.addrs) {
		switch {
		case s.addrs[i] < other.addrs[j]:
			out = append(out, s.addrs[i])
			i++
		case s.addrs[i] > other.addrs[j]:
			out = append(out, other.addrs[j])
			j++
		default:
			out = append(out, s.addrs[i])
			i++
			j++
		}
	}
	out = append(out, s.addrs[i:]...)
	out = append(out, other.addrs[j:]...)
	return Set{addrs: out}
}

// Intersect returns s ∩ other.
func (s Set) Intersect(other Set) Set {
	small, large := s.addrs, other.addrs
	var out []uint32
	i, j := 0, 0
	for i < len(small) && j < len(large) {
		switch {
		case small[i] < large[j]:
			i++
		case small[i] > large[j]:
			j++
		default:
			out = append(out, small[i])
			i++
			j++
		}
	}
	return Set{addrs: out}
}

// Difference returns s \ other.
func (s Set) Difference(other Set) Set {
	var out []uint32
	i, j := 0, 0
	for i < len(s.addrs) {
		if j >= len(other.addrs) || s.addrs[i] < other.addrs[j] {
			out = append(out, s.addrs[i])
			i++
		} else if s.addrs[i] > other.addrs[j] {
			j++
		} else {
			i++
			j++
		}
	}
	return Set{addrs: out}
}

// Filter returns the subset of addresses for which keep returns true.
func (s Set) Filter(keep func(netaddr.Addr) bool) Set {
	var out []uint32
	for _, u := range s.addrs {
		if keep(netaddr.Addr(u)) {
			out = append(out, u)
		}
	}
	return Set{addrs: out}
}

// commonPrefixLen returns the number of leading bits a and b share.
func commonPrefixLen(a, b uint32) int {
	return bits.LeadingZeros32(a ^ b)
}
