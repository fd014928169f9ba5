package pm

import (
	"repro/internal/mptcp"
)

// NDiffPorts is the kernel ndiffports path manager: immediately after the
// connection is established it opens n-1 additional subflows over the same
// address pair, each from a fresh random source port, hoping ECMP hashes
// them onto distinct paths (§2, §4.4; Raiciu et al., SIGCOMM'11).
type NDiffPorts struct {
	mptcp.NopPM
	// N is the total number of subflows per connection (including the
	// initial one). The paper's Fig. 2c uses 5.
	N int
}

// NewNDiffPorts returns an ndiffports manager creating n subflows total.
func NewNDiffPorts(n int) *NDiffPorts { return &NDiffPorts{N: n} }

// ConnEstablished implements mptcp.PathManager.
func (p *NDiffPorts) ConnEstablished(c *mptcp.Connection) {
	if !c.IsClient() {
		return
	}
	init := c.InitialTuple()
	for i := 1; i < p.N; i++ {
		// Port 0 draws a fresh random ephemeral port, which is what makes
		// the flows hash differently under ECMP.
		if _, err := c.OpenSubflow(init.SrcIP, 0, init.DstIP, init.DstPort, false); err != nil {
			return
		}
	}
}
