package workspace

import (
	"runtime"
	"testing"

	_ "repro/internal/experiments" // registers the scenarios
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/testutil"
)

// FuzzDecodeResult feeds arbitrary bytes to the result.json decoder,
// seeded with the result of a smoke-sized fig2a run (scalars and series)
// and a truncation of it, and puts what it decodes through what `mpexp
// diff` does with a result: a diff against itself, which must be clean,
// and a re-encoding, which must decode to a result that diffs clean
// against the first and encodes to the same bytes. None of it may panic,
// and what the decoder allocates must stay bounded by the input's length.
func FuzzDecodeResult(f *testing.F) {
	p, err := scenario.ParseSets([]string{"smoke=true"})
	if err != nil {
		f.Fatal(err)
	}
	real, err := scenario.Job("fig2a", p)(1).Data().Encode()
	if err != nil {
		f.Fatal(err)
	}
	if d, err := stats.DecodeResult(real); err != nil || len(d.Scalars) == 0 || len(d.Series) == 0 {
		f.Fatalf("the seed result does not decode to scalars and series: %v", err)
	}
	f.Add(real)
	f.Add(real[:len(real)/2])
	f.Add([]byte(`{"name":"x","scalars":{"a":1,"w":2},"samples":{"s":[1,2]},"series":[{"name":"q","t":[0],"y":[1],"labels":["l"]}],"wall_clock":["w"]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		d, err := stats.DecodeResult(data)
		runtime.ReadMemStats(&m1)
		if got := m1.TotalAlloc - m0.TotalAlloc; !testutil.RaceEnabled && got > uint64(64*len(data)+64<<10) {
			t.Fatalf("%d input bytes cost %d allocated bytes", len(data), got)
		}
		if err != nil {
			return
		}
		var self DiffReport
		diffResults(&self, d, d, "", DiffOptions{})
		if !self.Clean() {
			t.Fatalf("a result differs from itself:\n%s", self.String())
		}
		enc, err := d.Encode()
		if err != nil {
			t.Fatalf("a decoded result does not encode: %v", err)
		}
		d2, err := stats.DecodeResult(enc)
		if err != nil {
			t.Fatalf("a re-encoded result does not decode: %v", err)
		}
		var round DiffReport
		diffResults(&round, d, d2, "", DiffOptions{})
		if !round.Clean() {
			t.Fatalf("a result differs from its re-encoding:\n%s", round.String())
		}
		if enc2, err := d2.Encode(); err != nil || string(enc2) != string(enc) {
			t.Fatalf("re-encoding is not stable (%v):\n%s\n%s", err, enc, enc2)
		}
	})
}
