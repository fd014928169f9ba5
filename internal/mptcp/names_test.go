package mptcp

import (
	"strings"
	"testing"
)

// An endpoint prints its host and how many connections it holds; the two
// ends of one connection print apart.
func TestStringNames(t *testing.T) {
	p0, p1 := fastPaths()
	r := newRig(t, 1, p0, p1, Config{})
	r.net.Sim.Run()
	c, s := r.cep.String(), r.sep.String()
	for _, got := range []string{c, s} {
		if !strings.HasPrefix(got, "mptcp endpoint on ") || !strings.HasSuffix(got, " (1 conns)") {
			t.Errorf("endpoint prints %q", got)
		}
	}
	if c == s {
		t.Errorf("client and server endpoints both print %q", c)
	}
}
