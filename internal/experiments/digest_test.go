package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/exhibit_csv_digests.json from the current exhibits")

const digestFile = "testdata/exhibit_csv_digests.json"

// TestExhibitCSVDigests pins absolute model output: every exhibit runs
// at seed 1 with 20k warm-up and 60k measured instructions, and the
// SHA-256 of its WriteCSV body must equal the digest recorded in
// testdata/exhibit_csv_digests.json. The relative goldens (cached vs
// direct, gang vs solo, daemon vs CLI) cannot see a change that moves
// every path alike; this can. A change that moves model output
// regenerates the file with -update and says why.
func TestExhibitCSVDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every exhibit")
	}
	s := Quick(1)
	s.Warmup, s.Measure = 20_000, 60_000

	got := make(map[string]string)
	for _, r := range All() {
		var buf bytes.Buffer
		if err := WriteCSV(&buf, r.Run(s)); err != nil {
			t.Fatalf("%s: WriteCSV: %v", r.ID, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		got[r.ID] = hex.EncodeToString(sum[:])
	}

	path := filepath.FromSlash(digestFile)
	if *updateDigests {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -run TestExhibitCSVDigests -update)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	for id, sum := range got {
		if want[id] != sum {
			t.Errorf("%s: CSV digest %s, %s pins %q", id, sum, path, want[id])
		}
	}
	for id := range want {
		if _, ok := got[id]; !ok {
			t.Errorf("%s pins exhibit %q, which no longer exists", path, id)
		}
	}
}
