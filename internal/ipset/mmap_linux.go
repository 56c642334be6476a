//go:build linux

package ipset

import (
	"fmt"
	"math"
	"os"
	"syscall"
)

// OpenMapped memory-maps a v2 set file and serves its Image from the
// mapping: container payloads alias the mapped pages directly, so
// opening a multi-gigabyte report costs no heap and the OS pages in
// only the /16s that queries touch. The image's CRC footer and
// structural invariants are verified before the Image is returned (one
// sequential read of the mapping, which the page cache retains).
//
// The returned Image is read-only and valid until Close.
func OpenMapped(path string) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() == 0 || st.Size() > math.MaxInt {
		return nil, fmt.Errorf("ipset: %s: unmappable size %d", path, st.Size())
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(st.Size()), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("ipset: mmap %s: %w", path, err)
	}
	s, err := parseV2(data, true)
	if err != nil {
		syscall.Munmap(data)
		return nil, fmt.Errorf("ipset: %s: %w", path, err)
	}
	return &Mapped{Set: s, mapped: data}, nil
}

// Close unmaps the file. The Image must not be used afterwards; Sets
// decoded from it stay valid.
func (m *Mapped) Close() error {
	if m.mapped == nil {
		return nil
	}
	data := m.mapped
	m.mapped = nil
	m.Set = Image{}
	return syscall.Munmap(data)
}
