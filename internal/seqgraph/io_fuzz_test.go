package seqgraph

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzRead feeds arbitrary bytes to the assay reader, seeded from the JSON
// assays under testdata. Read must never panic; every graph it accepts must
// validate, and writing it out and reading it back must keep its
// fingerprint.
func FuzzRead(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("Read accepted an invalid graph: %v", err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatalf("Write of an accepted graph: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-reading written graph: %v\n%s", err, buf.Bytes())
		}
		if Fingerprint(back) != Fingerprint(g) {
			t.Fatalf("round trip changed the fingerprint:\n%s", buf.Bytes())
		}
	})
}
