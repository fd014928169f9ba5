package core

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"repro/internal/nlmsg"
	"repro/internal/testutil"
)

// FuzzReadMessages feeds arbitrary byte streams to the socket framing
// reader: it must not panic, and what it allocates must stay bounded by the
// input's length, whatever frame lengths the headers claim.
func FuzzReadMessages(f *testing.F) {
	var stream []byte
	for i := range 3 {
		ev := &nlmsg.Event{Kind: nlmsg.EvTimeout, Token: uint32(i), RTO: time.Duration(i) * time.Second}
		stream = ev.AppendMarshal(stream, uint32(i), 1)
	}
	f.Add(stream)
	f.Add(stream[:len(stream)-3])
	f.Add([]byte{0xff, 0xff, 0x0f, 0x00}) // a 1 MB frame's header and nothing else
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ReadMessages(bytes.NewReader(data), func(b []byte) {
			if len(b) < 20 {
				t.Fatalf("frame of %d bytes handed on", len(b))
			}
		})
		runtime.ReadMemStats(&m1)
		if got := m1.TotalAlloc - m0.TotalAlloc; !testutil.RaceEnabled && got > uint64(8*len(data)+64<<10) {
			t.Fatalf("%d input bytes cost %d allocated bytes", len(data), got)
		}
	})
}
