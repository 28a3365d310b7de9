package experiments

import (
	"errors"
	"testing"
)

// failingWriter rejects every write, as a full disk does.
type failingWriter struct{}

var errDiskFull = errors.New("no space left on device")

func (failingWriter) Write([]byte) (int, error) { return 0, errDiskFull }

// TestWriteCSVReturnsWriteError: a CSV body small enough to sit in the
// csv.Writer buffer until the final flush must still report the failed
// write instead of returning nil over an empty file.
func TestWriteCSVReturnsWriteError(t *testing.T) {
	if err := WriteCSV(failingWriter{}, Table5{Rows: []Table5Row{{}}}); !errors.Is(err, errDiskFull) {
		t.Fatalf("WriteCSV to a failing writer returned %v, want %v", err, errDiskFull)
	}
}
