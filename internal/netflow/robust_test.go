package netflow

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// The stream reader consumes archive bytes; arbitrary input must return
// an error or clean EOF, never panic, and never read unbounded memory.
func TestReaderNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Reader panicked on %d bytes: %v", len(data), r)
			}
		}()
		r := NewReader(bytes.NewReader(data))
		for i := 0; i < 100; i++ { // bounded drain
			if _, err := r.Next(); err != nil {
				return true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(20071024))}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalHeaderNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("UnmarshalHeader panicked: %v", r)
			}
		}()
		_, _ = UnmarshalHeader(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(20071024))}); err != nil {
		t.Fatal(err)
	}
}
