//go:build !unix

package atrace

import (
	"errors"
	"os"
)

var errMmapUnsupported = errors.New("atrace: mmap not supported on this platform")

// mmapFile always fails on non-unix platforms; OpenSpill falls
// back to reading the spill into an aligned heap buffer (same format,
// same replay semantics, just resident memory instead of page cache).
func mmapFile(f *os.File, size int64) (*mapping, error) {
	return nil, errMmapUnsupported
}

func munmap(data []byte) {}
