package ipset

import "math/bits"

// The v2 image's body: roaring-style containers keyed by the high 16
// address bits. Each populated /16 holds exactly one container, and the
// container kind is chosen canonically from the membership alone:
//
//   - array: sorted low-16 values, 2 bytes each — sparse /16s
//   - bitmap: 1024 words (8 KiB) — /16s with more than arrMaxCard addrs
//   - run: sorted (start, last) pairs, 4 bytes each — CIDR-dense blocks
//
// whichever is smallest. Unclean space is clustered, so dense /16s
// become bitmaps or runs and sparse ones short arrays, and an image is
// smaller than the sorted slice it encodes. Sets are never held in this
// form: WriteBinaryV2 encodes each container straight from the sorted
// addresses, and an Image (the view parseV2 and OpenMapped return)
// answers Len and BlockCount off container metadata and decodes to a
// Set for anything else.

const (
	arrKind = uint8(iota) // sorted []uint16 of low-16 values
	bmpKind               // 1024-word bitmap over the low 16 bits
	runKind               // sorted (start, last) uint16 pairs, inclusive

	// arrMaxCard is the array-container ceiling: above it a bitmap is
	// denser and faster, so arrays never exceed it.
	arrMaxCard = 4096

	bmpWords = 1 << 16 / 64 // 1024
)

// ctr is one container: the members of a single /16.
type ctr struct {
	key  uint16 // high 16 bits of every member
	kind uint8
	card uint32
	arr  []uint16 // arrKind: values; runKind: (start, last) pairs
	bits []uint64 // bmpKind: bmpWords words
}

// Image is a read-only view of a v2 container image: one container per
// populated /16, ascending by key, none empty. An Image from OpenMapped
// aliases the mapping and is valid until the Mapped is closed.
type Image struct {
	cs []ctr
	n  int // total cardinality
}

// chooseKind picks the canonical container kind for a membership with
// the given cardinality and run count. Equal memberships always get
// equal containers, so equal sets write byte-identical images.
func chooseKind(card, runs int) uint8 {
	runBytes := 4 * runs
	arrBytes := 1 << 30
	if card <= arrMaxCard {
		arrBytes = 2 * card
	}
	if runBytes < arrBytes && runBytes < 8192 {
		return runKind
	}
	if arrBytes <= 8192 {
		return arrKind
	}
	return bmpKind
}

// runLimit is the run count at and above which chooseKind never picks
// a run container for card members, so counting runs can stop there.
func runLimit(card int) int {
	if card <= arrMaxCard {
		return min(8192/4, (card+1)/2)
	}
	return 8192 / 4
}

// appendAddrs appends the container's full addresses, ascending, to dst.
func (c *ctr) appendAddrs(dst []uint32) []uint32 {
	base := uint32(c.key) << 16
	switch c.kind {
	case arrKind:
		for _, v := range c.arr {
			dst = append(dst, base|uint32(v))
		}
	case bmpKind:
		for wi, w := range c.bits {
			for w != 0 {
				dst = append(dst, base|uint32(wi<<6+bits.TrailingZeros64(w)))
				w &= w - 1
			}
		}
	case runKind:
		for i := 0; i < len(c.arr); i += 2 {
			for v := int(c.arr[i]); v <= int(c.arr[i+1]); v++ {
				dst = append(dst, base|uint32(v))
			}
		}
	}
	return dst
}

// Len returns the number of addresses in the image.
func (im Image) Len() int { return im.n }

// Set decodes the image into a Set. The Set owns its storage, so it
// outlives the mapping an Image may alias.
func (im Image) Set() Set {
	if im.n == 0 {
		return Set{}
	}
	addrs := make([]uint32, 0, im.n)
	for i := range im.cs {
		addrs = im.cs[i].appendAddrs(addrs)
	}
	return Set{addrs: addrs}
}

// BlockCount returns |C_n| of the image's membership without decoding
// any container: short prefixes count distinct key prefixes, long ones
// count masked distinct values per container kind. It equals
// im.Set().BlockCount(n).
func (im Image) BlockCount(n int) int {
	maskFor(n) // validate n
	cs := im.cs
	if len(cs) == 0 {
		return 0
	}
	switch {
	case n == 0:
		return 1
	case n <= 16:
		shift := uint(16 - n)
		count := 1
		prev := cs[0].key >> shift
		for i := 1; i < len(cs); i++ {
			if p := cs[i].key >> shift; p != prev {
				count++
				prev = p
			}
		}
		return count
	case n == 32:
		return im.n
	}
	shift := uint(32 - n) // 1..15: block width inside a /16
	count := 0
	for i := range cs {
		count += cs[i].maskedCount(shift)
	}
	return count
}

// maskedCount counts distinct (value >> shift) within the container.
func (c *ctr) maskedCount(shift uint) int {
	switch c.kind {
	case arrKind:
		count := 1
		prev := c.arr[0] >> shift
		for _, v := range c.arr[1:] {
			if p := v >> shift; p != prev {
				count++
				prev = p
			}
		}
		return count
	case runKind:
		count := 0
		prev := -1
		for i := 0; i < len(c.arr); i += 2 {
			lo, hi := int(c.arr[i]>>shift), int(c.arr[i+1]>>shift)
			count += hi - lo + 1
			if lo == prev {
				count--
			}
			prev = hi
		}
		return count
	case bmpKind:
		if shift >= 6 {
			// A block spans whole words; count groups with any set bit.
			group := 1 << (shift - 6)
			count := 0
			for g := 0; g < bmpWords; g += group {
				for w := g; w < g+group; w++ {
					if c.bits[w] != 0 {
						count++
						break
					}
				}
			}
			return count
		}
		// Blocks are sub-word chunks of width 1<<shift bits.
		width := uint(1) << shift
		mask := uint64(1)<<width - 1
		count := 0
		for _, w := range c.bits {
			for w != 0 {
				chunk := uint(bits.TrailingZeros64(w)) / width * width
				count++
				w &^= mask << chunk
			}
		}
		return count
	}
	return 0
}
