package ipset

import (
	"math/bits"
	"sort"

	"unclean/internal/netaddr"
)

// BlockCount returns |C_n(S)|: the number of distinct n-bit CIDR blocks
// containing members of the set, in one linear pass over the sorted
// addresses.
func (s Set) BlockCount(n int) int {
	mask := maskFor(n)
	if len(s.addrs) == 0 {
		return 0
	}
	count := 1
	prev := s.addrs[0] & mask
	for _, u := range s.addrs[1:] {
		if p := u & mask; p != prev {
			count++
			prev = p
		}
	}
	return count
}

// BlockCounts returns |C_n(S)| for every n in [lo, hi]: the element at
// index n-lo is the count at prefix length n. It exploits the identity
// |C_n(S)| = 1 + #{consecutive pairs with common prefix < n} in a
// single pass.
func (s Set) BlockCounts(lo, hi int) []int {
	if lo < 0 || hi > 32 || lo > hi {
		panic("ipset: invalid prefix range")
	}
	out := make([]int, hi-lo+1)
	blockCountsInto(s.addrs, lo, hi, out)
	return out
}

// blockCountsInto is the allocation-free core of BlockCounts, writing the
// counts for [lo, hi] into out (len(out) >= hi-lo+1). addrs must be
// sorted and duplicate-free. The draw kernels call this against arena
// scratch; BlockCounts wraps it for the public API.
func blockCountsInto(addrs []uint32, lo, hi int, out []int) {
	out = out[:hi-lo+1]
	if len(addrs) == 0 {
		for i := range out {
			out[i] = 0
		}
		return
	}
	// hist[k] = number of consecutive pairs whose longest common prefix is
	// exactly k bits (0..32; 32 impossible for distinct sorted values).
	var hist [33]int
	for i := 1; i < len(addrs); i++ {
		hist[commonPrefixLen(addrs[i-1], addrs[i])]++
	}
	// pairsBelow(n) = #pairs with lcp < n; count(n) = 1 + pairsBelow(n).
	pairsBelow := 0
	k := 0
	for n := 0; n <= hi; n++ {
		for ; k < n; k++ {
			pairsBelow += hist[k]
		}
		if n >= lo {
			out[n-lo] = 1 + pairsBelow
		}
	}
}

// Blocks returns C_n(S): the distinct n-bit blocks containing members of
// the set, in ascending order.
func (s Set) Blocks(n int) []netaddr.Block {
	var out []netaddr.Block
	for _, p := range s.MaskedSet(n).addrs {
		out = append(out, netaddr.Addr(p).Block(n))
	}
	return out
}

// MaskedSet returns the set C_n(S) represented as a Set of block base
// addresses (one per distinct block).
func (s Set) MaskedSet(n int) Set {
	mask := maskFor(n)
	out := make([]uint32, 0, min(len(s.addrs), 1024))
	for i, u := range s.addrs {
		if p := u & mask; i == 0 || p != out[len(out)-1] {
			out = append(out, p)
		}
	}
	return Set{addrs: out}
}

// BlockIntersectCount returns |C_n(S) ∩ C_n(other)|: how many n-bit blocks
// contain members of both sets. This is the predictive-capacity statistic
// of the temporal uncleanliness test (Eq. 4).
func (s Set) BlockIntersectCount(other Set, n int) int {
	maskFor(n) // validate n
	var out [1]int
	blockIntersectCountsInto(s.addrs, other.addrs, n, n, out[:])
	return out[0]
}

// blockIntersectCountsInto writes |C_n(x) ∩ C_n(y)| for every n in
// [lo, hi] into out (len(out) >= hi-lo+1) in one merge pass. x and y
// must be sorted and duplicate-free. The draw kernels call it against
// arena scratch; BlockIntersectCount wraps it for the public API.
//
// Let p be x[i]'s common prefix with x[i-1] (-1 for i == 0) and m its
// longest common prefix with any member of y, which one of its two
// neighbours in y attains. x[i] is the first member of x in its n-bit
// block for every n > p, and that block holds a member of y exactly
// when n <= m, since every address in it shares those n bits. So x[i]
// adds one to the count at each n in (p, m], recorded as +1 at p+1 and
// -1 at m+1 in a difference array that a prefix sum turns into counts.
func blockIntersectCountsInto(x, y []uint32, lo, hi int, out []int) {
	out = out[:hi-lo+1]
	clear(out)
	if len(x) == 0 || len(y) == 0 {
		return
	}
	var diff [34]int
	j := 0 // first index of y not below the current x[i]
	for i, v := range x {
		for j < len(y) && y[j] < v {
			j++
		}
		// The neighbour sharing the longer prefix has the smaller xor.
		var d uint32
		switch {
		case j == len(y):
			d = v ^ y[j-1]
		case j == 0:
			d = v ^ y[0]
		default:
			d = min(v^y[j-1], v^y[j])
		}
		m := bits.LeadingZeros32(d)
		p := -1
		if i > 0 {
			p = commonPrefixLen(x[i-1], v)
		}
		if m > p {
			diff[p+1]++
			diff[m+1]--
		}
	}
	sum := 0
	for n := 0; n <= hi; n++ {
		sum += diff[n]
		if n >= lo {
			out[n-lo] = sum
		}
	}
}

// InBlocks reports whether a resides in one of the n-bit blocks covering
// the set: the paper's inclusion relation a ⊏ C_n(S) (Eq. 2 restricted to a
// single prefix length).
func (s Set) InBlocks(a netaddr.Addr, n int) bool {
	mask := maskFor(n)
	want := uint32(a) & mask
	i := sort.Search(len(s.addrs), func(i int) bool { return s.addrs[i]&mask >= want })
	return i < len(s.addrs) && s.addrs[i]&mask == want
}

// WithinBlocks returns the subset of s whose addresses fall inside the
// n-bit blocks covering cover: {a ∈ s : a ⊏ C_n(cover)}. This is how the
// blocking analysis materializes the candidate population.
func (s Set) WithinBlocks(cover Set, n int) Set {
	mask := maskFor(n)
	sa, ca := s.addrs, cover.addrs
	var out []uint32
	i, j := 0, 0
	for i < len(sa) && j < len(ca) {
		a, b := sa[i]&mask, ca[j]&mask
		switch {
		case a < b:
			i++
		case a > b:
			j++
		default:
			for i < len(sa) && sa[i]&mask == a {
				out = append(out, sa[i])
				i++
			}
		}
	}
	return Set{addrs: out}
}

// BlockPopulations returns, for each distinct n-bit block in the set, the
// number of member addresses it holds, keyed by block. Used by density
// diagnostics and the simulator's ground-truth assertions.
func (s Set) BlockPopulations(n int) map[netaddr.Block]int {
	mask := maskFor(n)
	out := make(map[netaddr.Block]int)
	for _, u := range s.addrs {
		out[netaddr.Addr(u&mask).Block(n)]++
	}
	return out
}

func maskFor(n int) uint32 {
	if n < 0 || n > 32 {
		panic("ipset: prefix length out of range")
	}
	if n == 0 {
		return 0
	}
	return ^uint32(0) << (32 - uint(n))
}
