package main

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/nlmsg"
)

// Two commands written back to back (a full-mesh controller does this on
// every `created` event) are both read before the pacing loop drains the
// channel. ReadMessages reuses its frame buffer between reads, so each
// command must reach the receiver as its own intact frame, in order.
func TestIngestKeepsBackToBackFramesApart(t *testing.T) {
	cmds := []*nlmsg.Command{
		{Kind: nlmsg.CmdCreateSubflow, Seq: 1, Pid: 7, Token: 0x1111, Backup: true},
		{Kind: nlmsg.CmdRemoveSubflow, Seq: 2, Pid: 7, Token: 0x2222},
	}
	var sock bytes.Buffer
	var want [][]byte
	for _, c := range cmds {
		frame := c.AppendMarshal(nil)
		want = append(want, frame)
		sock.Write(frame)
	}

	p := &chanPipe{ch: make(chan []byte, len(cmds))}
	if err := p.ingest(&sock); err != io.EOF {
		t.Fatalf("ingest: %v, want EOF", err)
	}
	var got [][]byte
	p.SetReceiver(func(b []byte) { got = append(got, append([]byte(nil), b...)) })
	if p.drain() {
		t.Fatal("drain reported a live controller after the socket closed")
	}
	if len(got) != len(want) {
		t.Fatalf("receiver saw %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("frame %d reached the receiver as\n %x\nwant\n %x", i, got[i], want[i])
		}
	}
}
