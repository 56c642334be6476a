package ipset

import (
	"math/bits"
	"sync"

	"unclean/internal/stats"
)

// Scratch arenas for the Monte-Carlo draw kernels. Each worker of a
// sampling loop owns one sampleArena; a steady-state draw (sample k
// addresses, count blocks) touches only arena memory and the output
// cell it was assigned, performing zero heap allocations. Arenas are
// recycled through a sync.Pool so repeated experiments reuse the
// high-water-mark buffers instead of regrowing them.

type sampleArena struct {
	buf    []uint32 // the draw, ascending
	counts []int    // per-prefix block counts
	// chosen holds one bit per rank of the population drawn from, and
	// summary one bit per non-zero word of chosen. Both are all-zero
	// between draws: the drain that reads a draw out clears them.
	chosen  []uint64
	summary []uint64
	table   idxTable // displacement map for the Fisher-Yates branch
}

var arenaPool = sync.Pool{New: func() any { return new(sampleArena) }}

func getArena() *sampleArena  { return arenaPool.Get().(*sampleArena) }
func putArena(a *sampleArena) { arenaPool.Put(a) }

// ensure sizes the arena for k-of-n draws counted at prefixes lengths.
// Buffers only grow, so a pooled arena may be larger than the current
// draw needs; the drain visits only the words covering [0, n).
func (a *sampleArena) ensure(n, k, prefixes int) {
	if cap(a.buf) < k {
		a.buf = make([]uint32, k)
	}
	if words := (n + 63) / 64; len(a.chosen) < words {
		a.chosen = make([]uint64, words)
		a.summary = make([]uint64, (words+63)/64)
	}
	if len(a.counts) < prefixes {
		a.counts = make([]int, prefixes)
	}
}

// sampleSorted draws a uniform k-subset of addrs (sorted,
// duplicate-free) and returns it in ascending order, which is the
// sample in canonical Set order. The returned slice aliases arena
// memory and is valid until the next call. When k == len(addrs) it
// returns addrs itself and consumes no randomness, mirroring
// Set.Sample's full-set fast path.
//
// The chosen ranks are marked in a bitmap, which yields them sorted
// with no sort pass. The generator stream consumed here is bit-for-bit
// the stream the original map/permutation implementation consumed
// (same branch point, same Intn sequence, same duplicate fallback), so
// seeded experiment outputs are unchanged.
func (a *sampleArena) sampleSorted(k int, addrs []uint32, rng *stats.RNG) []uint32 {
	n := len(addrs)
	if k < 0 || k > n {
		panic("ipset: sample size out of range")
	}
	if k == 0 {
		return nil
	}
	if k == n {
		return addrs
	}
	a.ensure(n, k, 0)
	if k <= n/16 {
		// Floyd's subset sampling over ranks. A rank already chosen
		// falls back to i, which can never be a duplicate (all prior
		// picks are < i).
		for i := n - k; i < n; i++ {
			j := rng.Intn(i + 1)
			if a.chosen[j>>6]&(1<<(j&63)) != 0 {
				j = i
			}
			a.mark(uint32(j))
		}
	} else {
		// Sparse partial Fisher-Yates: the displacement map stands in for
		// the length-n index permutation, so memory stays O(k). Position
		// i is final after step i (later steps only touch j >= i), which
		// is why recording the displacement for j alone suffices.
		t := &a.table
		t.reset(k)
		for i := 0; i < k; i++ {
			j := uint32(i + rng.Intn(n-i))
			vi, vj := t.get(uint32(i), uint32(i)), t.get(j, j)
			t.put(j, vi)
			a.mark(vj)
		}
	}
	return a.drain(addrs)
}

// mark adds rank r to the chosen bitmap.
func (a *sampleArena) mark(r uint32) {
	w := r >> 6
	a.chosen[w] |= 1 << (r & 63)
	a.summary[w>>6] |= 1 << (w & 63)
}

// drain reads addrs at the chosen ranks out in ascending order — a
// forward gather — and clears every bit it reads. The summary bitmap
// skips empty words, so a drain costs O(len(addrs)/4096 + words
// touched).
func (a *sampleArena) drain(addrs []uint32) []uint32 {
	buf := a.buf[:0]
	summary := a.summary[:((len(addrs)+63)/64+63)/64]
	for si, s := range summary {
		if s == 0 {
			continue
		}
		summary[si] = 0
		for ; s != 0; s &= s - 1 {
			w := si<<6 | bits.TrailingZeros64(s)
			word := a.chosen[w]
			a.chosen[w] = 0
			for ; word != 0; word &= word - 1 {
				buf = append(buf, addrs[w<<6|bits.TrailingZeros64(word)])
			}
		}
	}
	return buf
}

// idxTable is an epoch-stamped open-addressing hash table over sample
// indices. reset is O(1) (an epoch bump invalidates all slots), so one
// table serves thousands of draws without clearing or allocating.
type idxTable struct {
	keys  []uint32
	vals  []uint32
	epoch []uint32
	cur   uint32
	mask  uint32
	shift uint32
}

func (t *idxTable) reset(capacity int) {
	need := 4
	for need < capacity*2 {
		need <<= 1
	}
	if len(t.keys) < need {
		t.keys = make([]uint32, need)
		t.vals = make([]uint32, need)
		t.epoch = make([]uint32, need)
		t.cur = 0
	}
	size := uint32(len(t.keys))
	t.mask = size - 1
	t.shift = 32
	for 1<<(32-t.shift) < size {
		t.shift--
	}
	t.cur++
	if t.cur == 0 { // epoch counter wrapped: flush stale stamps once
		for i := range t.epoch {
			t.epoch[i] = 0
		}
		t.cur = 1
	}
}

// slot returns the probe start for key (Fibonacci hashing on the high
// bits, which scatters the near-sequential index keys well).
func (t *idxTable) slot(key uint32) uint32 {
	return (key * 0x9e3779b9) >> t.shift & t.mask
}

// get returns the value stored at key, or fallback if key is absent.
func (t *idxTable) get(key, fallback uint32) uint32 {
	h := t.slot(key)
	for {
		if t.epoch[h] != t.cur {
			return fallback
		}
		if t.keys[h] == key {
			return t.vals[h]
		}
		h = (h + 1) & t.mask
	}
}

// put stores key -> val, overwriting any existing entry.
func (t *idxTable) put(key, val uint32) {
	h := t.slot(key)
	for {
		if t.epoch[h] != t.cur {
			t.epoch[h] = t.cur
			t.keys[h] = key
			t.vals[h] = val
			return
		}
		if t.keys[h] == key {
			t.vals[h] = val
			return
		}
		h = (h + 1) & t.mask
	}
}
