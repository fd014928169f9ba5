package trace_test

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	_ "repro/internal/experiments" // registers the scenarios
	"repro/internal/scenario"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// FuzzTraceRead feeds arbitrary bytes to the trace file reader, seeded
// with the file of a short traced run: it must not panic, and what it
// allocates must stay bounded by the input's length, whatever counts the
// header claims.
func FuzzTraceRead(f *testing.F) {
	file := filepath.Join(f.TempDir(), "scale.trace")
	p := scenario.NewParams(map[string]string{"conns": "1", "kb": "16", "trace": file, "trace_cap": "64"})
	sp, err := scenario.Build("scale", p)
	if err != nil {
		f.Fatal(err)
	}
	scenario.Execute(sp, 1)
	real, err := os.ReadFile(file)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := trace.Read(bytes.NewReader(real)); err != nil {
		f.Fatalf("the seed trace does not read back: %v", err)
	}
	f.Add(real)
	f.Add(real[:len(real)/2])
	// Magic, no entities, no shards, and a count of 2^20 records.
	f.Add(append([]byte("MPTRACE1\x00\x00\x00\x00\x00\x00\x00\x00"), 0, 0, 0x10, 0, 0, 0, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		trace.Read(bytes.NewReader(data))
		runtime.ReadMemStats(&m1)
		if got := m1.TotalAlloc - m0.TotalAlloc; !testutil.RaceEnabled && got > uint64(16*len(data)+256<<10) {
			t.Fatalf("%d input bytes cost %d allocated bytes", len(data), got)
		}
	})
}
