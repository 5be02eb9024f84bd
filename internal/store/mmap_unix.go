//go:build unix

package store

import (
	"os"
	"syscall"
)

// mmapSupported selects the zero-copy open path on unix-like platforms.
const mmapSupported = true

// mmapFile maps size bytes of f read-only and returns the mapping plus its
// unmap function. A zero-size file cannot be mapped; callers reject those
// earlier (a snapshot is never empty — the header alone is 48 bytes).
func mmapFile(f *os.File, size int) ([]byte, func() error, error) {
	data, err := syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, err
	}
	return data, func() error { return syscall.Munmap(data) }, nil
}
