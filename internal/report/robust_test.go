package report

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// Read parses report files from disk; arbitrary input must yield an
// error, never a panic.
func TestReadNeverPanics(t *testing.T) {
	f := func(data string) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Read panicked on %q: %v", data, r)
			}
		}()
		_, _ = Read(strings.NewReader(data))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(20071024))}); err != nil {
		t.Fatal(err)
	}
}

// Line-level mutations of a valid file exercise the header and body
// parsers past the magic check.
func TestReadMutatedFilesNeverPanic(t *testing.T) {
	var buf strings.Builder
	if err := sampleReport().Write(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	junk := []string{"", ":", "x: y", "999.1.2.3", "\x00\xff", strings.Repeat("a", 300)}
	for i := range lines {
		for _, j := range junk {
			mutated := append([]string{}, lines...)
			mutated[i] = j
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("Read panicked with line %d = %q: %v", i, j, r)
					}
				}()
				_, _ = Read(strings.NewReader(strings.Join(mutated, "\n")))
			}()
		}
	}
}
