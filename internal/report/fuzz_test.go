package report

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReportRead feeds arbitrary bytes to Read, the parser of the
// report files dnsbld reloads. Read must never panic, and any report it
// accepts must survive Write → Read with every field unchanged. The
// checked-in corpus holds a valid report, one missing its tag header,
// one with a malformed address, one whose window ends before it starts,
// and one whose method line fills the reader's 64 KiB line buffer.
func FuzzReportRead(f *testing.F) {
	var buf bytes.Buffer
	if err := sampleReport().Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out strings.Builder
		if err := r.Write(&out); err != nil {
			t.Fatalf("Write of an accepted report: %v", err)
		}
		got, err := Read(strings.NewReader(out.String()))
		if err != nil {
			t.Fatalf("written form of an accepted report rejected: %v", err)
		}
		if got.Tag != r.Tag || got.Type != r.Type || got.Class != r.Class ||
			!got.ValidFrom.Equal(r.ValidFrom) || !got.ValidTo.Equal(r.ValidTo) ||
			got.Method != r.Method || !got.Addrs.Equal(r.Addrs) {
			t.Fatalf("round trip changed the report:\n got %+v\nwant %+v", got, r)
		}
	})
}
