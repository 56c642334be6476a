package ipset

import (
	"bytes"
	"io"
	"testing"
)

// FuzzReadBinary feeds arbitrary bytes to the image reader, which
// dispatches on the magic to the v1 delta-varint decoder or the v2
// container parser. ReadBinary must never panic, and any set it accepts
// must survive a round trip through both writers unchanged. The
// checked-in corpus holds a small v1 image, a v1 header whose count no
// deltas back, and a small v2 image with an array and a run container.
// The writer pads v2 container data to the next page, so even an empty
// v2 image is 4 KiB; the corpus one packs its data right after the
// directory, which the reader accepts, to keep the seeds short.
func FuzzReadBinary(f *testing.F) {
	for _, s := range []Set{{}, FromUint32s([]uint32{0, 5, 9, 0x0a000001, 0xffffffff})} {
		var buf bytes.Buffer
		if err := s.WriteBinary(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, w := range []struct {
			name  string
			write func(Set, io.Writer) error
		}{{"v1", Set.WriteBinary}, {"v2", Set.WriteBinaryV2}} {
			var buf bytes.Buffer
			if err := w.write(s, &buf); err != nil {
				t.Fatalf("%s write of an accepted set: %v", w.name, err)
			}
			got, err := ReadBinary(&buf)
			if err != nil {
				t.Fatalf("%s image of an accepted set rejected: %v", w.name, err)
			}
			if !got.Equal(s) {
				t.Fatalf("%s round trip changed the set: %d members, want %d", w.name, got.Len(), s.Len())
			}
		}
	})
}
