package controller

import (
	"slices"
	"testing"
)

// hstep is one op of a scripted history and the commands and timers it
// must issue, in order.
type hstep struct {
	op   []byte
	want []string
}

// scriptedHistory is a history written once, op by op next to what each
// op must issue; its bytes are a seed of FuzzControllerHistory.
type scriptedHistory struct {
	name  string
	steps []hstep
}

func (s scriptedHistory) history() []byte {
	var b []byte
	for _, st := range s.steps {
		b = append(b, st.op...)
	}
	return b
}

// fullMeshHistories are the scripted histories FullMesh's command log is
// pinned over, under histL1 (10.0.0.1, the initial subflow's) and histL2
// (10.1.0.1); the remotes are 10.9.0.1:80 and the announced 10.9.1.1.
func fullMeshHistories() []scriptedHistory {
	return []scriptedHistory{
		{"flap-and-retry", []hstep{
			{h(hoCreated, 0), nil},
			{h(hoSubUp, 0, htuple(0, 0, 0)), nil},
			// Up in the order r2, r1; dismissed in key order.
			{h(hoSubUp, 0, htuple(1, 1, 5)), nil},
			{h(hoSubUp, 0, htuple(1, 0, 1)), nil},
			{h(hoLocalDown, 1), []string{"remove 10.1.0.1:40001->10.9.0.1:80", "remove 10.1.0.1:40005->10.9.1.1:80"}},
			{h(hoSubClosed, 1, htuple(0, 0, 0)), []string{"timer 1s"}}, // ECONNRESET
			{h(hoSubClosed, 2, htuple(1, 0, 1)), nil},                  // its interface is gone
			{h(hoSubClosed, 3, htuple(0, 0, 2)), nil},                  // its retry is pending
			{h(hoFire, 0), []string{"create 10.0.0.1:0->10.9.0.1:80"}},
			// The mesh skips a pair whose create awaits its ack.
			{h(hoLocalUp, 1), []string{"create 10.1.0.1:0->10.9.0.1:80"}},
			{h(hoAddAddr, 0), []string{"create 10.0.0.1:0->10.9.1.1:80", "create 10.1.0.1:0->10.9.1.1:80"}},
			{h(hoClosed, 0), nil},
			{h(hoSubClosed, 1, htuple(0, 0, 3)), nil},
			{h(hoAddAddr, 2), nil}, // 10.9.1.1:8080
		}},
		{"errno-specific-delays", []hstep{
			{h(hoCreated, 0), nil},
			{h(hoEstablished, 0), []string{"create 10.1.0.1:0->10.9.0.1:80"}},
			{h(hoAck, 0), nil},
			// The acked pair is held until its subflow is up.
			{h(hoAddAddr, 0), []string{"create 10.0.0.1:0->10.9.1.1:80", "create 10.1.0.1:0->10.9.1.1:80"}},
			{h(hoAck, 0), nil},
			{h(hoAck, 0), nil},
			{h(hoAck, 0), nil}, // no create awaits it
			{h(hoSubUp, 0, htuple(0, 1, 10)), nil},
			{h(hoSubUp, 0, htuple(1, 0, 11)), nil},
			{h(hoSubUp, 0, htuple(1, 1, 12)), nil},
			{h(hoSubClosed, 1, htuple(0, 0, 0)), []string{"timer 1s"}},  // ECONNRESET
			{h(hoSubClosed, 2, htuple(0, 1, 10)), []string{"timer 3s"}}, // ETIMEDOUT
			{h(hoSubClosed, 3, htuple(1, 0, 11)), []string{"timer 5s"}}, // ECONNREFUSED
			{h(hoSubClosed, 4, htuple(1, 1, 12)), []string{"timer 3s"}}, // another errno
			{h(hoSubUp, 0, htuple(0, 1, 13)), nil},                      // before its retry
			{h(hoFire, 0), []string{"create 10.0.0.1:0->10.9.0.1:80", "create 10.1.0.1:0->10.9.0.1:80",
				"create 10.1.0.1:0->10.9.1.1:80"}},
			{h(hoLocalDown, 0), []string{"remove 10.0.0.1:40013->10.9.1.1:80"}},
			{h(hoClosed, 0), nil},
		}},
		{"late-ack", []hstep{
			{h(hoCreated, 0), nil},
			{h(hoEstablished, 0), []string{"create 10.1.0.1:0->10.9.0.1:80"}},
			{h(hoSubUp, 0, htuple(1, 0, 1)), nil}, // up before its create is acked
			{h(hoAddAddr, 0), []string{"create 10.0.0.1:0->10.9.1.1:80", "create 10.1.0.1:0->10.9.1.1:80"}},
			{h(hoAck, 0), nil},
			// A failed ack backs off the create it answers, the second.
			{h(hoAck, 1), []string{"timer 5s"}},
			{h(hoAck, 0), nil},
			{h(hoAckAgain, 0), nil}, // an ack no create waits for
			// The held pair (10.1.0.1, 10.9.1.1:80) goes without a remove.
			{h(hoLocalDown, 1), []string{"remove 10.1.0.1:40001->10.9.0.1:80"}},
			{h(hoFire, 0), []string{"create 10.0.0.1:0->10.9.1.1:80"}},
			{h(hoClosed, 0), nil},
			{h(hoAck, 1), nil}, // fails after closed
		}},
		{"failed-ack", []hstep{
			{h(hoCreated, 0), nil},
			{h(hoEstablished, 0), []string{"create 10.1.0.1:0->10.9.0.1:80"}},
			{h(hoAck, 1), []string{"timer 5s"}},
			{h(hoLocalUp, 1), nil}, // the mesh skips a pair whose retry is pending
			{h(hoFire, 0), []string{"create 10.1.0.1:0->10.9.0.1:80"}},
			{h(hoAck, 2), []string{"timer 5s"}},
			{h(hoLocalDown, 1), nil},
			{h(hoFire, 0), nil}, // its interface is gone
			{h(hoLocalUp, 1), []string{"create 10.1.0.1:0->10.9.0.1:80"}},
			{h(hoAck, 0), nil},
			{h(hoSubUp, 0, htuple(1, 0, 1)), nil},
			{h(hoClosed, 0), nil},
		}},
		{"repeated-established", []hstep{
			{h(hoCreated, 0), nil},
			{h(hoEstablished, 0), []string{"create 10.1.0.1:0->10.9.0.1:80"}},
			{h(hoEstablished, 0), nil},
		}},
		{"unacked-creates", []hstep{
			{h(hoCreated, 0), nil},
			{h(hoEstablished, 0), []string{"create 10.1.0.1:0->10.9.0.1:80"}},
			// Neither an address coming up again nor the same announcement
			// twice re-issues a create still awaiting its ack.
			{h(hoLocalUp, 0), nil},
			{h(hoLocalUp, 0), nil},
			{h(hoAddAddr, 0), []string{"create 10.0.0.1:0->10.9.1.1:80", "create 10.1.0.1:0->10.9.1.1:80"}},
			{h(hoAddAddr, 0), nil},
		}},
		{"stale-ack", []hstep{
			{h(hoCreated, 0), nil},
			{h(hoEstablished, 0), []string{"create 10.1.0.1:0->10.9.0.1:80"}},
			{h(hoClosed, 0), nil},
			{h(hoCreated, 0), nil},
			{h(hoEstablished, 0), []string{"create 10.1.0.1:0->10.9.0.1:80"}},
			// The ack answers the first connection's create, so the
			// second's still awaits its ack.
			{h(hoAck, 0), nil},
			{h(hoLocalUp, 1), nil},
		}},
		// A pair acked but not yet up is not meshed again.
		{"acked-not-up", []hstep{
			{h(hoCreated, 0), nil},
			{h(hoEstablished, 0), []string{"create 10.1.0.1:0->10.9.0.1:80"}},
			{h(hoAck, 0), nil},
			{h(hoLocalUp, 1), nil},
		}},
		// Its address going down ends the hold, with no remove.
		{"held-then-down", []hstep{
			{h(hoCreated, 0), nil},
			{h(hoEstablished, 0), []string{"create 10.1.0.1:0->10.9.0.1:80"}},
			{h(hoAck, 0), nil},
			{h(hoLocalDown, 1), nil},
			{h(hoLocalUp, 1), []string{"create 10.1.0.1:0->10.9.0.1:80"}},
		}},
	}
}

// TestFullMeshCommandLog pins FullMesh's commands over whole scripted
// histories, not only their outcome: every op names the commands and
// retry timers it must issue, and the history keeps every rule of
// checkHistory.
func TestFullMeshCommandLog(t *testing.T) {
	for _, row := range fullMeshHistories() {
		t.Run(row.name, func(t *testing.T) {
			log, broken := checkHistory(historyControllers[0], row.history())
			if broken != "" {
				t.Fatal(broken)
			}
			for i, st := range row.steps {
				if !slices.Equal(log[i], st.want) {
					t.Fatalf("op %d, %s: commands %q, want %q", i, opName(st.op), log[i], st.want)
				}
			}
		})
	}
}

// TestDetachStopsController drives each of the four policies whose Detach
// only SwitchPolicy calls to where it has work pending — an armed timer or
// an unanswered GetInfo — and then through what makes it act. Run as it
// is, the history issues commands after the pending point; with hoDetach
// there, it keeps runHistory's rules: no timer armed and no command after
// Detach.
func TestDetachStopsController(t *testing.T) {
	for _, tc := range []struct {
		policy        string
		before, after []byte
	}{
		{"backup", h(hoCreated, 0), slices.Concat(h(hoTimeout, 1, htuple(0, 0, 0)), h(hoSubClosed, 0, htuple(0, 0, 0)))},
		{"ndiffports", h(hoCreated, 0), h(hoEstablished, 0)},
		// Refresh's tick puts a GetInfo in flight and arms the next; the
		// answer would replace the slower subflow, the timer poll again.
		{"refresh", slices.Concat(h(hoCreated, 0), h(hoEstablished, 0), h(hoSubUp, 0, htuple(0, 0, 0)),
			h(hoSubUp, 0, htuple(0, 0, 1)), h(hoTick, 9), h(hoFire, 0)),
			slices.Concat(h(hoAnswer, 0), h(hoFire, 0))},
		// Stream's probe puts a GetInfo in flight; too little progress would
		// open the second subflow, the timer probe the next block, the
		// timeout open the second or kill this one.
		{"stream", slices.Concat(h(hoCreated, 0), h(hoEstablished, 0), h(hoTick, 3), h(hoFire, 0)),
			slices.Concat(h(hoAnswer, 0), h(hoFire, 0), h(hoTimeout, 1, htuple(0, 0, 0)))},
	} {
		t.Run(tc.policy, func(t *testing.T) {
			i := slices.IndexFunc(historyControllers, func(c historyController) bool { return c.name == tc.policy })
			c, pending := historyControllers[i], len(historyOps(tc.before))
			log, broken := runHistory(c, slices.Concat(tc.before, tc.after))
			if broken != "" {
				t.Fatal(broken)
			}
			if len(slices.Concat(log[pending:]...)) == 0 {
				t.Fatal("the attached controller did nothing either: the case checks nothing")
			}
			if _, broken := runHistory(c, slices.Concat(tc.before, h(hoDetach, 0), tc.after)); broken != "" {
				t.Fatal(broken)
			}
		})
	}
}

// everyPolicyHistories are scripted histories every policy must keep
// every rule of checkHistory over. Their commands differ by policy, so
// the rules, not a command log, pin them; reaches is a command some policy
// must issue before the last op, or the row checks nothing.
var everyPolicyHistories = []struct {
	name, reaches string
	history       []byte
}{
	// A get-info asked for in one connection (stream's probe, refresh's
	// poll) and answered in the next: the reply finds another connection
	// and does nothing.
	{"stale-reply", "get-info", slices.Concat(h(hoCreated, 0), h(hoEstablished, 0), h(hoTick, 9), h(hoFire, 0),
		h(hoClosed, 0), h(hoCreated, 0), h(hoAnswer, 0))},
}

// TestEveryPolicyHistories runs everyPolicyHistories through every policy.
func TestEveryPolicyHistories(t *testing.T) {
	for _, row := range everyPolicyHistories {
		t.Run(row.name, func(t *testing.T) {
			reached := false
			for _, c := range historyControllers {
				log, broken := checkHistory(c, row.history)
				if broken != "" {
					t.Error(broken)
				}
				reached = reached || slices.Contains(slices.Concat(log[:len(log)-1]...), row.reaches)
			}
			if !reached {
				t.Errorf("no policy issued %q before the last op: the row checks nothing", row.reaches)
			}
		})
	}
}
