package ipset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Binary set format: sorted sets compress extremely well as
// delta-encoded varints (clustered addresses have small gaps), which
// matters for control reports — 47M addresses at paper scale would be
// ~500 MB of dotted-quad text but tens of MB in this encoding.
//
// Layout: 8-byte magic, uvarint count, then per address the uvarint
// delta to the previous address (first delta is from -1, so a set
// starting at 0.0.0.0 still has a positive first delta).

var codecMagic = [8]byte{'u', 'n', 'c', 'l', 'i', 'p', 's', '1'}

// WriteBinary serializes the set in the binary format.
func (s Set) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(codecMagic[:]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(s.Len()))
	if _, err := bw.Write(buf[:n]); err != nil {
		return err
	}
	prev := int64(-1)
	for _, u := range s.addrs {
		n := binary.PutUvarint(buf[:], uint64(int64(u)-prev))
		if _, err := bw.Write(buf[:n]); err != nil {
			return err
		}
		prev = int64(u)
	}
	return bw.Flush()
}

// ReadBinary parses a set written by WriteBinary or WriteBinaryV2,
// dispatching on the magic. v1 images are validated element-wise
// (monotonicity, address-space bounds); v2 images are CRC-checked and
// structurally validated, then decoded.
func ReadBinary(r io.Reader) (Set, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return Set{}, fmt.Errorf("ipset: reading magic: %w", err)
	}
	if magic == codecMagicV2 {
		rest, err := io.ReadAll(br)
		if err != nil {
			return Set{}, fmt.Errorf("ipset: reading v2 image: %w", err)
		}
		data := make([]byte, 0, 8+len(rest))
		data = append(data, magic[:]...)
		data = append(data, rest...)
		im, err := parseV2(data, true)
		if err != nil {
			return Set{}, err
		}
		return im.Set(), nil
	}
	if magic != codecMagic {
		return Set{}, fmt.Errorf("ipset: bad magic %q", magic[:])
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return Set{}, fmt.Errorf("ipset: reading count: %w", err)
	}
	if count > 1<<32 {
		return Set{}, fmt.Errorf("ipset: implausible count %d", count)
	}
	// count is untrusted until the deltas back it: pre-size for at most
	// 64k addresses and let append grow the rest.
	addrs := make([]uint32, 0, min(count, 1<<16))
	prev := int64(-1)
	for i := uint64(0); i < count; i++ {
		delta, err := binary.ReadUvarint(br)
		if err != nil {
			return Set{}, fmt.Errorf("ipset: reading delta %d: %w", i, err)
		}
		if delta == 0 {
			return Set{}, fmt.Errorf("ipset: zero delta at %d (duplicate address)", i)
		}
		v := prev + int64(delta)
		if v > 0xffffffff {
			return Set{}, fmt.Errorf("ipset: address overflow at %d", i)
		}
		addrs = append(addrs, uint32(v))
		prev = v
	}
	return Set{addrs: addrs}, nil
}
