package metrics_test

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	_ "repro/internal/experiments" // registers the scenarios
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/testutil"
)

// FuzzMetricsDecode feeds arbitrary bytes to the metrics.json decoder,
// seeded with the snapshot of a smoke-sized fleet run (what `mpexp run
// fleet -set smoke -set metrics=FILE` writes), and puts what it decodes through
// what `mpexp diff` does with a snapshot: the canonical view, a lookup of
// every name, the text rendering and a re-encoding. None of it may panic,
// and what it allocates must stay bounded by the input's length.
func FuzzMetricsDecode(f *testing.F) {
	file := filepath.Join(f.TempDir(), "fleet.metrics.json")
	sp, err := scenario.Build("fleet", scenario.NewParams(map[string]string{"smoke": "", "metrics": file}))
	if err != nil {
		f.Fatal(err)
	}
	scenario.Execute(sp, 1)
	real, err := os.ReadFile(file)
	if err != nil {
		f.Fatal(err)
	}
	if s, err := metrics.Decode(real); err != nil || len(s.Metrics) == 0 {
		f.Fatalf("the seed snapshot does not decode: %v", err)
	}
	f.Add(real)
	f.Add(real[:len(real)/2])
	f.Add([]byte(`{"metrics":[{"name":"a","kind":"histogram","tags":["wall"],"value":3,"shards":[1,2],"buckets":[0,3]}]}`))
	f.Add([]byte(`{"metrics":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		s, err := metrics.Decode(data)
		runtime.ReadMemStats(&m1)
		if got := m1.TotalAlloc - m0.TotalAlloc; !testutil.RaceEnabled && got > uint64(64*len(data)+64<<10) {
			t.Fatalf("%d input bytes cost %d allocated bytes", len(data), got)
		}
		if err != nil {
			return
		}
		c := s.Canonical()
		for i := range c.Metrics {
			if c.Get(c.Metrics[i].Name) == nil {
				t.Fatalf("metric %q not found by name", c.Metrics[i].Name)
			}
		}
		_ = s.Text()
		if _, err := s.Encode(); err != nil {
			t.Fatalf("a decoded snapshot does not encode: %v", err)
		}
	})
}
