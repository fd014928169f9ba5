package experiments

import (
	"net/netip"
	"slices"
	"testing"

	"repro/internal/app"
	"repro/internal/mptcp"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// subflowRecorder is scale's fan-out workload that also records, per
// client, the (local address, remote address) pair of every ESTABLISHED
// subflow its connection has when the peer has acknowledged all of its
// data: the mesh the connection ends with, just before it closes.
type subflowRecorder struct {
	*scenario.FanOut
	pairs [][]string // per client, sorted; nil while its data is unacknowledged
}

func (w *subflowRecorder) Client(rt *scenario.Run) {
	client := make(map[netip.Addr]int, len(rt.Net.Clients))
	for i, cl := range rt.Net.Clients {
		client[cl.Addrs[0]] = i
	}
	w.pairs = make([][]string, len(rt.Net.Clients))
	w.DialAt = rt.FanOutDial("scale.dial", func(cclk sim.Clock) mptcp.ConnCallbacks {
		cb := app.NewSource(cclk, w.Bytes, true).Callbacks()
		cb.OnDataAck = func(c *mptcp.Connection, una uint64) {
			i := client[c.InitialTuple().SrcIP]
			if una < uint64(w.Bytes) || w.pairs[i] != nil {
				return
			}
			w.pairs[i] = []string{}
			for _, sf := range c.Info().Subflows {
				if sf.State == tcp.StateEstablished {
					w.pairs[i] = append(w.pairs[i], sf.Tuple.SrcIP.String()+"->"+sf.Tuple.DstIP.String())
				}
			}
			slices.Sort(w.pairs[i])
		}
		return cb
	})
}

// endMeshes runs scale at smoke size under policy at seed and returns each
// client connection's recorded subflow pairs.
func endMeshes(t *testing.T, policy string, seed int64) [][]string {
	t.Helper()
	sp := build(t, "scale", "smoke", "policy="+policy)
	rec := &subflowRecorder{FanOut: sp.Runs[0].Workload.(*scenario.FanOut)}
	sp.Runs[0].Workload = rec
	sp.Render = nil // it reads the plain fan-out
	scenario.Execute(sp, seed)
	return rec.pairs
}

// TestKernelManagersAreOracles is ROADMAP item 3's first slice: the
// in-kernel path managers as a differential oracle for the userspace
// controllers that reimplement them. Under each pair of policy names, on
// the smoke-sized scale cell and seeds 1–4, every client connection ends
// with the same multiset of ESTABLISHED (local, remote) subflow pairs on
// both sides.
func TestKernelManagersAreOracles(t *testing.T) {
	for _, pair := range [][2]string{{"kernel", "fullmesh"}, {"kernel-ndiffports", "ndiffports"}} {
		for seed := int64(1); seed <= 4; seed++ {
			kernel, user := endMeshes(t, pair[0], seed), endMeshes(t, pair[1], seed)
			for i := range kernel {
				if kernel[i] == nil || user[i] == nil {
					t.Errorf("%s vs %s, seed %d, client %d: data left unacknowledged (%v, %v)",
						pair[0], pair[1], seed, i, kernel[i], user[i])
				} else if !slices.Equal(kernel[i], user[i]) {
					t.Errorf("%s vs %s, seed %d, client %d: the connection ends with subflows %v under %s, %v under %s",
						pair[0], pair[1], seed, i, kernel[i], pair[0], user[i], pair[1])
				}
			}
			t.Logf("%s vs %s, seed %d: client 0 ends with %v", pair[0], pair[1], seed, kernel[0])
		}
	}
}
