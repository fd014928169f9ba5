package smapp

import (
	"net/netip"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mptcp"
	"repro/internal/netem"
	"repro/internal/nlmsg"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// prioAnnounce is a policy that, once its connection is established, marks
// the initial subflow backup and announces a second local address.
type prioAnnounce struct {
	lib      core.Lib
	announce netip.Addr
	acks     []uint32
}

func (p *prioAnnounce) Detach() {}
func (p *prioAnnounce) Attach(lib core.Lib) {
	p.lib = lib
	lib.Register(core.Callbacks{Established: p.established}, nil)
}

func (p *prioAnnounce) established(ev *nlmsg.Event) {
	ack := func(errno uint32) { p.acks = append(p.acks, errno) }
	p.lib.SetBackup(ev.Token, ev.Tuple, true, ack)
	p.lib.AnnounceAddr(ev.Token, p.announce, 0, ack)
}

// TestBindingSetBackupAndAnnounceAddr runs a policy that issues SetBackup
// and AnnounceAddr through a Stack's binding: the trace records both
// commands against the policy, and the kernel side applies them, so the
// subflow carries the backup flag at both ends and the server learns the
// announced address from an ADD_ADDR on the wire.
func TestBindingSetBackupAndAnnounceAddr(t *testing.T) {
	net := topo.NewTwoPath(sim.New(5), netem.LinkConfig{RateBps: 50e6, Delay: 10 * time.Millisecond},
		netem.LinkConfig{RateBps: 50e6, Delay: 10 * time.Millisecond})
	tr := trace.New(1 << 12)
	st := New(net.Client, Config{MPTCP: mptcp.Config{Trace: tr.Shard("client")}})
	sep := mptcp.NewEndpoint(net.Server, mptcp.Config{}, nil)
	var server *mptcp.Connection
	sep.Listen(80, func(c *mptcp.Connection) { server = c })
	net.Sim.RunFor(time.Millisecond)

	conn, err := st.Dial(net.ClientAddrs[0], net.ServerAddr, 80, "", ControllerConfig{}, mptcp.ConnCallbacks{})
	if err != nil {
		t.Fatal(err)
	}
	pol := &prioAnnounce{announce: net.ClientAddrs[1]}
	st.bind(conn.Token(), "prio-announce", pol)
	net.Sim.RunFor(time.Second)

	if !slices.Equal(pol.acks, []uint32{0, 0}) {
		t.Fatalf("command acks %v, want two successes", pol.acks)
	}
	var cmds []uint8
	for _, r := range tr.Snapshot().Records {
		if r.Kind == trace.KPolicyCmd {
			cmds = append(cmds, r.Flag)
		}
	}
	if !slices.Equal(cmds, []uint8{trace.CmdSetBackup, trace.CmdAnnounceAddr}) {
		t.Fatalf("traced policy commands %v, want [set-backup announce-addr]", cmds)
	}
	sfs := conn.Subflows()
	if len(sfs) != 1 || !sfs[0].Backup() {
		t.Fatal("the client's subflow does not carry the backup flag")
	}
	if server == nil || len(server.Subflows()) != 1 || !server.Subflows()[0].Backup() {
		t.Fatal("MP_PRIO did not reach the server's subflow")
	}
	peers := server.PeerAddrs()
	if len(peers) != 1 {
		t.Fatalf("server peer addrs %v, want the announced %v", peers, pol.announce)
	}
	for _, ap := range peers {
		if ap.Addr() != pol.announce {
			t.Fatalf("server peer addrs %v, want the announced %v", peers, pol.announce)
		}
	}
}
