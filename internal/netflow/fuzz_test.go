package netflow

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"unclean/internal/netaddr"
)

// FuzzSegmentRecord feeds arbitrary bytes to the spill-record decoder.
// It must never panic, must reject exactly the inputs shorter than a
// record, and encoding what it decoded must give back the record's 56
// bytes whenever the input's padding bytes are zero: the codec loses
// nothing but the padding.
func FuzzSegmentRecord(f *testing.F) {
	first := time.Date(2006, 10, 3, 14, 7, 9, 0, time.UTC)
	for _, r := range []Record{
		{
			SrcAddr: netaddr.Addr(0x0a010203), DstAddr: netaddr.Addr(0xc0a80001),
			NextHop: netaddr.Addr(0xc0a800fe), Input: 3, Output: 7,
			Packets: 42, Octets: 9001,
			First: first, Last: first.Add(13 * time.Second),
			SrcPort: 51515, DstPort: 25,
			TCPFlags: FlagSYN | FlagACK | FlagPSH, Proto: ProtoTCP, TOS: 0x10,
			SrcAS: 65001, DstAS: 65002, SrcMask: 24, DstMask: 16,
		},
		{First: time.Unix(0, 0).UTC(), Last: time.Unix(0, -1).UTC()},
	} {
		var buf [SegmentRecordSize]byte
		EncodeSegmentRecord(buf[:], &r)
		f.Add(buf[:])
	}
	f.Add([]byte{})
	f.Add(make([]byte, SegmentRecordSize-1))
	f.Add(bytes.Repeat([]byte{0xff}, SegmentRecordSize+3))
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Record
		err := DecodeSegmentRecord(data, &r)
		if len(data) < SegmentRecordSize {
			if err == nil {
				t.Fatalf("decoded a %d-byte record without error", len(data))
			}
			return
		}
		if err != nil {
			t.Fatalf("full-length record rejected: %v", err)
		}
		in := data[:SegmentRecordSize]
		if in[53] != 0 || in[54] != 0 || in[55] != 0 {
			return
		}
		var out [SegmentRecordSize]byte
		EncodeSegmentRecord(out[:], &r)
		if !bytes.Equal(out[:], in) {
			t.Fatalf("encode(decode(x)) != x:\n got %x\nwant %x", out, in)
		}
	})
}

// FuzzV5Reader drains arbitrary bytes as a V5 export stream. It must
// never panic, and never return more records than the headers it
// walked past declare — so a hostile stream cannot make the reader
// invent records. The seeds are short (two datagrams of a few records)
// because the fuzzer's input minimization is quadratic in input length.
func FuzzV5Reader(f *testing.F) {
	boot := time.Date(2006, 10, 1, 0, 0, 0, 0, time.UTC)
	datagram := func(n int) []byte {
		var out bytes.Buffer
		w := NewWriter(&out, boot)
		for i := 0; i < n; i++ {
			start := boot.Add(time.Duration(i) * time.Minute)
			if err := w.Write(Record{
				SrcAddr: netaddr.Addr(0x3c000001 + uint32(i)), DstAddr: netaddr.Addr(0x1e000001),
				Packets: 3, Octets: 156, First: start, Last: start.Add(time.Second),
				SrcPort: 4000, DstPort: 445, TCPFlags: FlagSYN, Proto: ProtoTCP,
			}); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			f.Fatal(err)
		}
		return out.Bytes()
	}
	two := append(datagram(2), datagram(1)...)
	f.Add(two)
	f.Add(two[:HeaderSize+2*RecordSize])   // the first datagram
	f.Add(two[:HeaderSize+2*RecordSize-5]) // cut mid-record
	f.Add(two[:HeaderSize-1])              // cut mid-header
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, _ := NewReader(bytes.NewReader(data)).ReadAll()
		if declared := declaredRecords(data); len(recs) > declared {
			t.Fatalf("read %d records, headers declare %d", len(recs), declared)
		}
	})
}

// declaredRecords walks data datagram by datagram, as the reader does,
// summing the record counts of every complete header.
func declaredRecords(data []byte) int {
	total := 0
	for off := 0; off+HeaderSize <= len(data); {
		count := int(binary.BigEndian.Uint16(data[off+2:]))
		total += count
		off += HeaderSize + count*RecordSize
	}
	return total
}
