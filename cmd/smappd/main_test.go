package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
	"time"

	"repro/internal/nlmsg"
	"repro/internal/smappctl"
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
	if p.ingest(&sock); p.err != io.EOF {
		t.Fatalf("ingest: %v, want EOF", p.err)
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

// TestSplitDeployment runs both halves of the paper's split deployment in
// one process, the way `make smoke-split` runs them in two: smappd serves
// its Netlink PM on a Unix socket and smappctl attaches with a policy.
// smappd must run to its end and deliver data, and smappctl must have sent
// more than its subscription. fullmesh is the smoke's policy; refresh also
// reads the wall clock and arms a timer on it, which no simulated run does.
func TestSplitDeployment(t *testing.T) {
	for _, policy := range []string{"fullmesh", "refresh"} {
		t.Run(policy, func(t *testing.T) {
			sock := filepath.Join(t.TempDir(), "s")
			var dOut, dErr bytes.Buffer
			code := make(chan int, 1) // buffered: smappd can return after the test has stopped
			go func() { code <- run([]string{"-sock", sock, "-run", "1500ms"}, &dOut, &dErr) }()
			for i := 0; ; i++ {
				if _, err := os.Stat(sock); err == nil {
					break
				}
				if i == 500 {
					t.Fatal("smappd never opened its socket")
				}
				time.Sleep(10 * time.Millisecond)
			}

			var cErr bytes.Buffer
			if c := smappctl.Run([]string{"-sock", sock, "-policy", policy}, io.Discard, &cErr); c != 0 {
				t.Fatalf("smappctl exited %d:\n%s", c, cErr.String())
			}
			if c := <-code; c != 0 {
				t.Fatalf("smappd exited %d:\n%s", c, dErr.String())
			}

			m := regexp.MustCompile(`done; receiver got ([0-9.]+) MB`).FindStringSubmatch(dOut.String())
			if m == nil {
				t.Fatalf("smappd did not finish its run:\n%s%s", dOut.String(), dErr.String())
			}
			if mb, _ := strconv.ParseFloat(m[1], 64); mb <= 0 {
				t.Fatalf("smappd's receiver got %s MB", m[1])
			}
			m = regexp.MustCompile(`events=([0-9]+) commands=([0-9]+)`).FindStringSubmatch(cErr.String())
			if m == nil {
				t.Fatalf("smappctl printed no counts:\n%s", cErr.String())
			}
			if n, _ := strconv.Atoi(m[2]); n < 2 {
				t.Fatalf("smappctl sent %s commands, want its subscription and more:\n%s", m[2], cErr.String())
			}
		})
	}
}
