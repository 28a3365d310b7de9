//go:build unix

package atrace

import (
	"os"
	"syscall"
)

// lockFile takes an exclusive advisory flock on path (creating it if
// needed), blocking until the lock is granted. The returned function
// releases the lock. Locks are per-open-file, so N processes (or
// goroutines holding separate descriptors) serialize on the same path.
// The disk cache uses it only for index.lock, held for the few
// milliseconds of an index read-modify-write; the file stays in place.
func lockFile(path string) (unlock func(), err error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		// Closing the descriptor releases the flock.
		f.Close()
	}, nil
}
