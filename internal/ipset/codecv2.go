package ipset

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"sort"
	"unsafe"

	"unclean/internal/atomicfile"
)

// Binary set format v2: an mmap-friendly container image. Where v1
// delta-varint-encodes the membership (smallest on disk, but decoding
// materializes every address), v2 serializes the containers of
// container.go directly, so a mapped file answers Len and BlockCount
// without decoding:
//
//	header     8B magic "unclips2", u32 container count, u32 pad,
//	           u64 total cardinality
//	directory  24B per container: u16 key, u8 kind, u8 pad, u32 card,
//	           u32 elems, u32 pad, u64 offset — everything a query
//	           planner needs without touching container data
//	           (padding to the next 4096 boundary)
//	data       per-container payloads at their directory offsets, each
//	           8-byte aligned: u16 values (array), u16 start/last pairs
//	           (run), or 1024 u64 words (bitmap), little-endian
//	footer     24B: u64 payload length, u32 IEEE CRC32 of the payload,
//	           u32 pad, 8B magic again
//
// The directory lives in the first page(s) and container data starts
// page-aligned, so OpenMapped can alias []uint16/[]uint64 container
// slices straight into the mapping — the OS pages in only the /16s a
// workload touches. ReadBinary dispatches on the magic and decodes
// either format into a Set.

var codecMagicV2 = [8]byte{'u', 'n', 'c', 'l', 'i', 'p', 's', '2'}

const (
	v2HeaderSize = 24
	v2EntrySize  = 24
	v2FooterSize = 24
	v2PageAlign  = 4096
)

var v2LE = binary.LittleEndian

// hostLittleEndian gates the zero-copy alias paths: on a big-endian
// host the on-disk little-endian payloads are decoded by copy instead.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// v2Entry is one directory entry of an image being written: the /16
// whose members are addrs[lo:hi], and its canonical container.
type v2Entry struct {
	lo, hi int
	kind   uint8
	elems  uint32 // u16 values (array, run) or u64 words (bitmap)
	off    uint64 // payload offset
}

// v2Directory groups sorted, duplicate-free addrs by /16, picks each
// group's container kind, and lays the payloads out after the
// page-aligned directory. It returns the entries and the payload end.
func v2Directory(addrs []uint32) ([]v2Entry, uint64) {
	var dir []v2Entry
	for i := 0; i < len(addrs); {
		g := addrs[i : i+groupEnd(addrs[i:])]
		// Count runs only while a run container could still be the
		// smallest; past runLimit chooseKind decides on the cardinality
		// alone.
		limit := runLimit(len(g))
		runs := 1
		prev := g[0]
		for _, u := range g[1:] {
			// A gap d = u-prev > 1 starts a new run. Within a /16,
			// d-2 wraps to a set top bit exactly when d == 1, so the
			// shift counts the gap without a branch.
			runs += int((u-prev-2)>>31 ^ 1)
			prev = u
			if runs >= limit {
				break
			}
		}
		e := v2Entry{lo: i, hi: i + len(g), kind: chooseKind(len(g), runs)}
		switch e.kind {
		case arrKind:
			e.elems = uint32(len(g))
		case runKind:
			e.elems = uint32(2 * runs)
		case bmpKind:
			e.elems = bmpWords
		}
		dir = append(dir, e)
		i = e.hi
	}
	off := (v2HeaderSize + len(dir)*v2EntrySize + v2PageAlign - 1) / v2PageAlign * v2PageAlign
	for i := range dir {
		dir[i].off = uint64(off)
		size := 2 * int(dir[i].elems)
		if dir[i].kind == bmpKind {
			size = 8 * bmpWords
		}
		off += (size + 7) &^ 7
	}
	return dir, uint64(off)
}

// groupEnd returns the length of the leading run of addrs that shares
// addrs[0]'s /16: a doubling search, then a binary search within the
// last step, so a group costs O(log size) probes of cache-near memory.
func groupEnd(addrs []uint32) int {
	key := addrs[0] >> 16
	step := 1
	for step < len(addrs) && addrs[step]>>16 == key {
		step *= 2
	}
	lo, hi := step/2, min(step, len(addrs))
	return lo + sort.Search(hi-lo, func(k int) bool { return addrs[lo+k]>>16 != key })
}

// encodeCtr writes the little-endian payload of the container of the
// given kind holding addrs (one /16) into buf, padded with zeros to 8
// bytes, and returns its length. buf must hold 8*bmpWords bytes, the
// largest payload.
func encodeCtr(buf []byte, addrs []uint32, kind uint8) int {
	n := 0
	switch kind {
	case arrKind:
		for i, u := range addrs {
			v2LE.PutUint16(buf[2*i:], uint16(u))
		}
		n = 2 * len(addrs)
	case runKind:
		start := 0
		for i := 1; i <= len(addrs); i++ {
			if i == len(addrs) || addrs[i] != addrs[i-1]+1 {
				v2LE.PutUint16(buf[n:], uint16(addrs[start]))
				v2LE.PutUint16(buf[n+2:], uint16(addrs[i-1]))
				n += 4
				start = i
			}
		}
	case bmpKind:
		// Bit v of a little-endian word array is bit v&7 of byte v>>3.
		clear(buf[:8*bmpWords])
		for _, u := range addrs {
			v := uint16(u)
			buf[v>>3] |= 1 << (v & 7)
		}
		n = 8 * bmpWords
	}
	for ; n&7 != 0; n++ {
		buf[n] = 0
	}
	return n
}

// WriteBinaryV2 serializes the set in the v2 container image format,
// encoding each /16's container straight from the sorted addresses.
func (s Set) WriteBinaryV2(w io.Writer) error {
	dir, payloadLen := v2Directory(s.addrs)

	h := crc32.NewIEEE()
	mw := io.MultiWriter(w, h)

	// Header + directory + page padding, in one buffer.
	dataStart := (v2HeaderSize + len(dir)*v2EntrySize + v2PageAlign - 1) / v2PageAlign * v2PageAlign
	head := make([]byte, dataStart)
	copy(head, codecMagicV2[:])
	v2LE.PutUint32(head[8:], uint32(len(dir)))
	v2LE.PutUint64(head[16:], uint64(s.Len()))
	for i, d := range dir {
		e := head[v2HeaderSize+i*v2EntrySize:]
		v2LE.PutUint16(e[0:], uint16(s.addrs[d.lo]>>16))
		e[2] = d.kind
		v2LE.PutUint32(e[4:], uint32(d.hi-d.lo))
		v2LE.PutUint32(e[8:], d.elems)
		v2LE.PutUint64(e[16:], d.off)
	}
	if _, err := mw.Write(head); err != nil {
		return err
	}

	// Container payloads, each padded to 8 bytes.
	scratch := make([]byte, 8*bmpWords)
	for _, d := range dir {
		n := encodeCtr(scratch, s.addrs[d.lo:d.hi], d.kind)
		if _, err := mw.Write(scratch[:n]); err != nil {
			return err
		}
	}

	// Footer — not covered by the CRC it carries.
	var foot [v2FooterSize]byte
	v2LE.PutUint64(foot[0:], payloadLen)
	v2LE.PutUint32(foot[8:], h.Sum32())
	copy(foot[16:], codecMagicV2[:])
	_, err := w.Write(foot[:])
	return err
}

// WriteFileV2 atomically writes the set to path in the v2 format via
// the crash-safe temp → fsync → rename sequence.
func (s Set) WriteFileV2(path string) error {
	return atomicfile.WriteStream(path, s.WriteBinaryV2)
}

// parseV2 validates a complete v2 image and builds its Image. When
// alias is true (and the host is little-endian, and data is 8-byte
// aligned) container slices reference data directly — the mmap fast
// path; otherwise payloads are copied out.
func parseV2(data []byte, alias bool) (Image, error) {
	if len(data) < v2HeaderSize+v2FooterSize {
		return Image{}, fmt.Errorf("ipset: v2 image truncated: %d bytes", len(data))
	}
	foot := data[len(data)-v2FooterSize:]
	if [8]byte(foot[16:24]) != codecMagicV2 {
		return Image{}, fmt.Errorf("ipset: v2 footer magic missing (truncated file?)")
	}
	payloadLen := v2LE.Uint64(foot[0:])
	if payloadLen != uint64(len(data)-v2FooterSize) {
		return Image{}, fmt.Errorf("ipset: v2 footer claims %d payload bytes, file has %d",
			payloadLen, len(data)-v2FooterSize)
	}
	payload := data[:payloadLen]
	if got, want := crc32.ChecksumIEEE(payload), v2LE.Uint32(foot[8:]); got != want {
		return Image{}, fmt.Errorf("ipset: v2 crc %08x, footer says %08x", got, want)
	}
	if [8]byte(payload[0:8]) != codecMagicV2 {
		return Image{}, fmt.Errorf("ipset: v2 header magic corrupt")
	}
	count := int(v2LE.Uint32(payload[8:]))
	total := v2LE.Uint64(payload[16:])
	dirEnd := v2HeaderSize + count*v2EntrySize
	if count < 0 || dirEnd > len(payload) {
		return Image{}, fmt.Errorf("ipset: v2 directory (%d containers) exceeds payload", count)
	}
	if count == 0 {
		if total != 0 {
			return Image{}, fmt.Errorf("ipset: v2 empty directory but cardinality %d", total)
		}
		return Image{}, nil
	}

	alias = alias && hostLittleEndian && uintptr(unsafe.Pointer(&data[0]))&7 == 0
	im := Image{cs: make([]ctr, count)}
	prevKey := -1
	for i := 0; i < count; i++ {
		e := payload[v2HeaderSize+i*v2EntrySize:]
		c := &im.cs[i]
		c.key = v2LE.Uint16(e[0:])
		c.kind = e[2]
		c.card = v2LE.Uint32(e[4:])
		elems := v2LE.Uint32(e[8:])
		off := v2LE.Uint64(e[16:])
		if int(c.key) <= prevKey {
			return Image{}, fmt.Errorf("ipset: v2 container %d: key %#04x out of order", i, c.key)
		}
		prevKey = int(c.key)
		if c.card == 0 || c.card > 1<<16 {
			return Image{}, fmt.Errorf("ipset: v2 container %d: cardinality %d", i, c.card)
		}
		var size uint64
		switch c.kind {
		case arrKind, runKind:
			size = 2 * uint64(elems)
		case bmpKind:
			if elems != bmpWords {
				return Image{}, fmt.Errorf("ipset: v2 container %d: bitmap with %d words", i, elems)
			}
			size = 8 * bmpWords
		default:
			return Image{}, fmt.Errorf("ipset: v2 container %d: unknown kind %d", i, c.kind)
		}
		if off&7 != 0 || off < uint64(dirEnd) || off+size > payloadLen {
			return Image{}, fmt.Errorf("ipset: v2 container %d: payload [%d, %d) out of bounds", i, off, off+size)
		}
		body := payload[off : off+size]
		switch c.kind {
		case arrKind, runKind:
			if alias {
				c.arr = unsafe.Slice((*uint16)(unsafe.Pointer(&data[off])), elems)
			} else {
				c.arr = make([]uint16, elems)
				for j := range c.arr {
					c.arr[j] = v2LE.Uint16(body[2*j:])
				}
			}
		case bmpKind:
			if alias {
				c.bits = unsafe.Slice((*uint64)(unsafe.Pointer(&data[off])), bmpWords)
			} else {
				c.bits = make([]uint64, bmpWords)
				for j := range c.bits {
					c.bits[j] = v2LE.Uint64(body[8*j:])
				}
			}
		}
		if err := validateCtr(c, int(elems)); err != nil {
			return Image{}, fmt.Errorf("ipset: v2 container %d (key %#04x): %w", i, c.key, err)
		}
		im.n += int(c.card)
	}
	if uint64(im.n) != total {
		return Image{}, fmt.Errorf("ipset: v2 cardinality %d, containers sum to %d", total, im.n)
	}
	return im, nil
}

// validateCtr checks the structural invariants every query path relies
// on: sorted arrays, ordered non-overlapping runs, and cardinalities
// that match the payload. A file that passes decodes to a sorted,
// duplicate-free Set, and the block counter reads it correctly.
func validateCtr(c *ctr, elems int) error {
	switch c.kind {
	case arrKind:
		if elems != int(c.card) {
			return fmt.Errorf("array with %d values, cardinality %d", elems, c.card)
		}
		for j := 1; j < len(c.arr); j++ {
			if c.arr[j] <= c.arr[j-1] {
				return fmt.Errorf("array not strictly ascending at %d", j)
			}
		}
	case runKind:
		if elems == 0 || elems&1 != 0 {
			return fmt.Errorf("run container with %d values", elems)
		}
		span := uint64(0)
		prevLast := -1
		for j := 0; j < len(c.arr); j += 2 {
			start, last := int(c.arr[j]), int(c.arr[j+1])
			if start > last || start <= prevLast {
				return fmt.Errorf("run %d [%d, %d] out of order", j/2, start, last)
			}
			span += uint64(last - start + 1)
			prevLast = last
		}
		if span != uint64(c.card) {
			return fmt.Errorf("runs span %d values, cardinality %d", span, c.card)
		}
	case bmpKind:
		pop := 0
		for _, w := range c.bits {
			pop += bits.OnesCount64(w)
		}
		if pop != int(c.card) {
			return fmt.Errorf("bitmap popcount %d, cardinality %d", pop, c.card)
		}
	}
	return nil
}

// Mapped is an Image served from a memory-mapped v2 file. The Image is
// valid until Close; a Set decoded from it owns its storage and
// outlives the mapping.
type Mapped struct {
	Set    Image
	mapped []byte // non-nil only for a real mmap
}
