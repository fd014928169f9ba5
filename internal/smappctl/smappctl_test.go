package smappctl

import (
	"bytes"
	"fmt"
	"log"
	"net/netip"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nlmsg"
	"repro/internal/seg"
)

// The event pump hands every socket frame to logEvent and then to the
// library, whose receiver sits in the dispatchPipe. Feed both an event, a
// command reply and a frame cut short, as the pump would.
func TestLogEventAndDispatchPipe(t *testing.T) {
	closed := &nlmsg.Event{
		Kind: nlmsg.EvSubClosed, Token: 0xfeed01, HasTuple: true, Errno: 104,
		Tuple: seg.FourTuple{
			SrcIP: netip.MustParseAddr("10.0.0.1"), DstIP: netip.MustParseAddr("10.0.1.1"),
			SrcPort: 40000, DstPort: 80,
		},
	}
	timeout := &nlmsg.Event{Kind: nlmsg.EvTimeout, Token: 0xfeed02, RTO: 400 * time.Millisecond, Backoffs: 1}
	eventFrame := closed.AppendMarshal(nil, 1, 0)
	timeoutFrame := timeout.AppendMarshal(nil, 2, 0)
	ackFrame := nlmsg.AppendAck(nil, 0, 9, 1)
	cutFrame := eventFrame[:len(eventFrame)-5]

	// The library installs its receiver on the ToUser half; Send on that
	// half goes nowhere, commands leave through ToKernel.
	user := &dispatchPipe{}
	var toKernel bytes.Buffer
	var got []nlmsg.Event
	lib := core.NewLibrary(&core.Transport{ToUser: user, ToKernel: core.NewSocketPipe(&toKernel)}, nil, 1)
	lib.Register(core.Callbacks{
		SubClosed: func(ev *nlmsg.Event) { got = append(got, *ev) },
		Timeout:   func(ev *nlmsg.Event) { got = append(got, *ev) },
	}, nil)
	if user.recv == nil {
		t.Fatal("library did not install its receiver on the dispatchPipe")
	}
	if toKernel.Len() == 0 {
		t.Fatal("subscribe command did not leave through ToKernel")
	}
	user.Send(eventFrame)
	if len(got) != 0 {
		t.Fatal("dispatchPipe.Send delivered a frame; that half is receive-only")
	}

	var out bytes.Buffer
	lg := log.New(&out, "", 0)
	for _, frame := range [][]byte{eventFrame, ackFrame, cutFrame, timeoutFrame} {
		logEvent(lg, frame) // what the pump does per frame
		user.recv(frame)
	}

	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	want := []string{
		"event sub_closed     token=00feed01 tuple=10.0.0.1:40000->10.0.1.1:80 errno=104",
		fmt.Sprintf("malformed frame (%d bytes): nlmsg: bad length %d (have %d)", len(cutFrame), len(eventFrame), len(cutFrame)),
		"event timeout        token=00feed02 rto=400ms backoffs=1",
	}
	if len(lines) != len(want) {
		t.Fatalf("logged %d lines, want %d (the ack is the library's business):\n%s", len(lines), len(want), out.String())
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
	if len(got) != 2 || got[0].Kind != nlmsg.EvSubClosed || got[0].Tuple != closed.Tuple || got[1].RTO != timeout.RTO {
		t.Fatalf("library dispatched %+v", got)
	}
	if st := lib.Stats; st.EventsReceived != 2 || st.ParseErrors != 1 || st.RepliesOrphaned != 1 {
		t.Fatalf("library stats %+v, want 2 events, 1 parse error, 1 orphaned reply", st)
	}
}
