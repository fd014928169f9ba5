package smapp

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"repro/internal/controller"
	"repro/internal/topo"
)

// TestControllerRegistryTable drives every registered factory through
// valid and invalid configs, mirroring the scheduler-registry tests in
// internal/mptcp/sched_test.go.
func TestControllerRegistryTable(t *testing.T) {
	two := []netip.Addr{topo.ClientAddr1, topo.ClientAddr2}
	cases := []struct {
		policy   string
		cfg      ControllerConfig
		wantErr  bool
		wantName string // Controller.Name() of the built instance
	}{
		{"fullmesh", ControllerConfig{Addrs: two}, false, "user-fullmesh"},
		{"fullmesh", ControllerConfig{Addrs: two[:1]}, false, "user-fullmesh"},
		{"fullmesh", ControllerConfig{}, true, ""},
		{"backup", ControllerConfig{Addrs: two}, false, "smart-backup"},
		{"backup", ControllerConfig{Addrs: two[:1]}, true, ""},
		{"backup", ControllerConfig{}, true, ""},
		{"stream", ControllerConfig{Addrs: two}, false, "smart-stream"},
		{"stream", ControllerConfig{Addrs: two[:1]}, true, ""},
		{"refresh", ControllerConfig{Subflows: 5}, false, "refresh"},
		{"refresh", ControllerConfig{}, false, "refresh"}, // defaults to the paper's 5
		{"refresh", ControllerConfig{Subflows: 1}, true, ""},
		{"ndiffports", ControllerConfig{Subflows: 3}, false, "user-ndiffports"},
		{"ndiffports", ControllerConfig{}, false, "user-ndiffports"}, // defaults to 2
		{"ndiffports", ControllerConfig{Subflows: -1}, true, ""},
	}
	for _, tc := range cases {
		t.Run(tc.policy, func(t *testing.T) {
			factory, err := LookupController(tc.policy)
			if err != nil {
				t.Fatal(err)
			}
			ctl, err := factory(tc.cfg)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("config %+v accepted, want error", tc.cfg)
				}
				return
			}
			if err != nil {
				t.Fatalf("config %+v rejected: %v", tc.cfg, err)
			}
			if ctl.Name() != tc.wantName {
				t.Fatalf("built %q, want %q", ctl.Name(), tc.wantName)
			}
		})
	}
}

func TestControllerConfigKnobsApply(t *testing.T) {
	two := []netip.Addr{topo.ClientAddr1, topo.ClientAddr2}
	factory, _ := LookupController("backup")
	ctl, err := factory(ControllerConfig{Addrs: two, Threshold: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if b := ctl.(*controller.Backup); b.Threshold != 2*time.Second || b.BackupAddr != two[1] {
		t.Fatalf("backup knobs not applied: %+v", b)
	}

	factory, _ = LookupController("stream")
	ctl, err = factory(ControllerConfig{
		Addrs: two, Period: 2 * time.Second, BlockSize: 32 << 10,
		Probe: 250 * time.Millisecond, Threshold: 3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := ctl.(*controller.Stream)
	if s.Period != 2*time.Second || s.BlockSize != 32<<10 || s.MinProgress != 16<<10 ||
		s.CheckAfter != 250*time.Millisecond || s.RTOLimit != 3*time.Second {
		t.Fatalf("stream knobs not applied: %+v", s)
	}
}

func TestLookupControllerUnknown(t *testing.T) {
	_, err := LookupController("no-such-policy")
	if err == nil {
		t.Fatal("unknown controller accepted")
	}
	// The error must list what IS registered, so typos are self-serving.
	for _, name := range Controllers.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list %q", err, name)
		}
	}
}

func TestLookupControllerNilPolicy(t *testing.T) {
	f, err := LookupController("")
	if err != nil || f != nil {
		t.Fatalf("the empty name must resolve to the nil policy, got (%v, %v)", f, err)
	}
}

func TestControllerNamesCoverThePaper(t *testing.T) {
	names := Controllers.Names()
	for _, want := range []string{"backup", "fullmesh", "ndiffports", "refresh", "stream"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("paper controller %q not registered (have %v)", want, names)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
}

func TestRegisterControllerPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	dummy := func(ControllerConfig) (controller.Controller, error) { return nil, nil }
	mustPanic("duplicate registration", func() { Controllers.Register("fullmesh", "", dummy) })
	mustPanic("empty name", func() { Controllers.Register("", "", dummy) })
	mustPanic("nil factory", func() { Controllers.Register("x", "", nil) })
}
