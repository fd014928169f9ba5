package tcp

import (
	"net/netip"
	"testing"

	"repro/internal/seg"
	"repro/internal/testutil"
)

// Every state and errno names itself in traces and controller logs — a
// name of its own, never the "?" or "errno(N)" fallback — and a subflow
// prints its four-tuple.
func TestStringNames(t *testing.T) {
	testutil.CheckNames(t, "State", "?", map[string]string{
		"StateClosed": StateClosed.String(), "StateSynSent": StateSynSent.String(),
		"StateSynRcvd": StateSynRcvd.String(), "StateEstablished": StateEstablished.String(),
		"StateFinWait": StateFinWait.String(), "StateDead": StateDead.String(),
	})
	testutil.CheckNames(t, "Errno", "errno(", map[string]string{
		"Ok": Ok.Error(), "ENETUNREACH": ENETUNREACH.Error(), "ECONNABORTED": ECONNABORTED.Error(),
		"ECONNRESET": ECONNRESET.Error(), "ECONNREFUSED": ECONNREFUSED.Error(), "ETIMEDOUT": ETIMEDOUT.Error(),
	})
	tuple := seg.FourTuple{SrcIP: netip.MustParseAddr("10.0.0.1"), DstIP: netip.MustParseAddr("10.0.1.1"),
		SrcPort: 40000, DstPort: 80}
	if got := NewStubSubflow(StubState{Tuple: tuple}).String(); got != "10.0.0.1:40000->10.0.1.1:80" {
		t.Errorf("subflow prints %q, not its tuple", got)
	}
}
