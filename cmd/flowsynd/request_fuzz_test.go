package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeRequests feeds arbitrary bytes through the daemon's request
// decoders without solving anything: the submit body decoded as a
// jobRequest, resolved to a job (a built-in benchmark, or an inline assay
// through flowsyn.ReadAssay, then the option overrides) and validated, and
// the recover body decoded as a faultRequest and resolved to a fault.
// Neither path may panic, and an accepted job must carry an assay.
func FuzzDecodeRequests(f *testing.F) {
	seeds := []string{
		`{"benchmark":"PCR"}`,
		`{"benchmark":"IVD","name":"n","tenant":"a","priority":2,"deadline_ms":50,"options":{"devices":3,"transport":5,` +
			`"grid_rows":5,"grid_cols":6,"objective":"time","engine":"exact-ilp","ilp_time_limit_ms":500,` +
			`"model_io":true,"verify":false,"storage":"hybrid","cache_slots":2,"eviction":"lru"}}`,
		`{"benchmark":"PCR","options":{"devices":0,"objective":"fast","storage":"attic"}}`,
		`{"benchmark":"PCR","assay":{}}`,
		`{"kind":"device","time":30,"device":1}`,
		`{"kind":"channel","time":12,"channel":3}`,
		`{"kind":"storage","time":-1,"channel":-7}`,
		`{"kind":"laser"}`,
		`{}`, `null`, `[`, ``,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "internal", "seqgraph", "testdata", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append(append([]byte(`{"assay":`), data...), `,"options":{"devices":2}}`...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req jobRequest
		if json.NewDecoder(bytes.NewReader(data)).Decode(&req) == nil {
			if job, err := req.job(); err == nil {
				if job.Assay == nil {
					t.Fatalf("request %q resolved to a job without an assay", data)
				}
				_ = job.Options.Validate()
			}
		}
		var fr faultRequest
		if json.NewDecoder(bytes.NewReader(data)).Decode(&fr) == nil {
			_, _ = fr.fault()
		}
	})
}
