//go:build !unix

package atrace

import (
	"os"
	"time"
)

// staleLockAge bounds how long a fallback lock file is honoured: a
// process that died while holding the lock would otherwise wedge every
// later run. Index updates finish well inside this window.
const staleLockAge = 10 * time.Minute

// lockFile emulates an exclusive lock with O_CREATE|O_EXCL polling on
// platforms without flock. Unlike flock, the lock is identified by file
// existence, so crashed holders leave the file behind; locks older than
// staleLockAge are broken.
func lockFile(path string) (unlock func(), err error) {
	for {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			f.Close()
			return func() { os.Remove(path) }, nil
		}
		if !os.IsExist(err) {
			return nil, err
		}
		if fi, serr := os.Stat(path); serr == nil && time.Since(fi.ModTime()) > staleLockAge {
			os.Remove(path)
			continue
		}
		time.Sleep(25 * time.Millisecond)
	}
}
