//go:build !linux

package ipset

import (
	"fmt"
	"os"
)

// OpenMapped loads a v2 set file. On platforms without the mmap fast
// path the file is read into memory and parsed in place; the API and
// validation behavior match the linux implementation.
func OpenMapped(path string) (*Mapped, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := parseV2(data, true)
	if err != nil {
		return nil, fmt.Errorf("ipset: %s: %w", path, err)
	}
	return &Mapped{Set: s}, nil
}

// Close releases the Image. Without a real mapping there is nothing to
// unmap; the method exists so callers are portable.
func (m *Mapped) Close() error {
	m.Set = Image{}
	return nil
}
