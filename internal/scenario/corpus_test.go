package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSeedCorpus replays every spec under testdata/ twice and verifies
// the outcome against its checked-in golden: the issue's acceptance gate,
// run on every `go test`.
func TestSeedCorpus(t *testing.T) {
	var specs []string
	for _, pat := range []string{"*.yaml", "*.yml", "*.json"} {
		m, err := filepath.Glob(filepath.Join("testdata", pat))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range m {
			if !strings.HasSuffix(path, ".golden.json") {
				specs = append(specs, path)
			}
		}
	}
	if len(specs) < 4 {
		t.Fatalf("seed corpus has %d specs, want at least 4", len(specs))
	}
	for _, path := range specs {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			v, err := Verify(path)
			if err != nil {
				t.Fatal(err)
			}
			if !v.Deterministic {
				t.Fatalf("nondeterministic replay:\n%s", v.DetDiff)
			}
			if v.GoldenMissing {
				t.Fatalf("no golden at %s — run `go run ./cmd/scenario record %s`", v.GoldenPath, path)
			}
			if !v.GoldenMatch {
				t.Fatalf("outcome diverges from golden (- golden, + replay):\n%s", v.GoldenDiff)
			}
			if !v.Outcome.Pass {
				t.Fatalf("expectations failed: %v", v.Outcome.FailedChecks())
			}
		})
	}
}

// BenchmarkCorpusPass decodes, builds and runs every YAML spec of the seed
// corpus once per iteration: the sim layers' cost per corpus pass, with
// allocations and the sim kernel's delivered events and goroutine
// handoffs.
func BenchmarkCorpusPass(b *testing.B) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.yaml"))
	if err != nil || len(paths) == 0 {
		b.Fatalf("no corpus specs (%v)", err)
	}
	var raws [][]byte
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			b.Fatal(err)
		}
		raws = append(raws, raw)
	}
	b.ReportAllocs()
	var events, handoffs int64
	for i := 0; i < b.N; i++ {
		for _, raw := range raws {
			spec, err := Decode(raw)
			if err != nil {
				b.Fatal(err)
			}
			r, err := NewRunner(spec)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := r.Run(); err != nil {
				b.Fatal(err)
			}
			st := r.Campaign.Base.Engine.Stats()
			events += st.Events
			handoffs += st.Handoffs
		}
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	b.ReportMetric(float64(handoffs)/float64(b.N), "handoffs/op")
}
