package smapp

import (
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/controller"
	"repro/internal/mptcp"
	"repro/internal/pm"
	"repro/internal/topo"
)

// TestControllerRegistryTable drives every registered factory through
// valid and invalid configs, mirroring the scheduler-registry tests in
// internal/mptcp/sched_test.go.
func TestControllerRegistryTable(t *testing.T) {
	two := []netip.Addr{topo.ClientAddr1, topo.ClientAddr2}
	cases := []struct {
		policy  string
		cfg     ControllerConfig
		wantErr bool
		want    controller.Controller // the type the factory builds
	}{
		{"fullmesh", ControllerConfig{Addrs: two}, false, &controller.FullMesh{}},
		{"fullmesh", ControllerConfig{Addrs: two[:1]}, false, &controller.FullMesh{}},
		{"fullmesh", ControllerConfig{}, true, nil},
		{"backup", ControllerConfig{Addrs: two}, false, &controller.Backup{}},
		{"backup", ControllerConfig{Addrs: two[:1]}, true, nil},
		{"backup", ControllerConfig{}, true, nil},
		{"stream", ControllerConfig{Addrs: two}, false, &controller.Stream{}},
		{"stream", ControllerConfig{Addrs: two[:1]}, true, nil},
		{"refresh", ControllerConfig{Subflows: 5}, false, &controller.Refresh{}},
		{"refresh", ControllerConfig{}, false, &controller.Refresh{}}, // defaults to the paper's 5
		{"refresh", ControllerConfig{Subflows: 1}, true, nil},
		{"ndiffports", ControllerConfig{Subflows: 3}, false, &controller.NDiffPorts{}},
		{"ndiffports", ControllerConfig{}, false, &controller.NDiffPorts{}}, // defaults to 2
		{"ndiffports", ControllerConfig{Subflows: -1}, true, nil},
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
			if reflect.TypeOf(ctl) != reflect.TypeOf(tc.want) {
				t.Fatalf("built a %T, want a %T", ctl, tc.want)
			}
		})
	}
}

// TestKernelPMRegistryTable drives every in-kernel path manager's factory
// as TestControllerRegistryTable does the controllers'.
func TestKernelPMRegistryTable(t *testing.T) {
	cases := []struct {
		policy string
		cfg    ControllerConfig
		want   mptcp.PathManager // nil: the config is refused
	}{
		{"kernel", ControllerConfig{}, pm.NewFullMesh()},
		{"kernel-ndiffports", ControllerConfig{Subflows: 5}, pm.NewNDiffPorts(5)},
		{"kernel-ndiffports", ControllerConfig{}, pm.NewNDiffPorts(2)}, // as ndiffports
		{"kernel-ndiffports", ControllerConfig{Subflows: -1}, nil},
		{"kernel-none", ControllerConfig{}, mptcp.NopPM{}},
	}
	for _, tc := range cases {
		t.Run(tc.policy, func(t *testing.T) {
			factory, err := LookupPolicy(tc.policy)
			if err != nil || factory == nil {
				t.Fatalf("resolved to (%v, %v), want an in-kernel path manager", factory, err)
			}
			got, err := factory(tc.cfg)
			if (err != nil) != (tc.want == nil) || !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("config %+v built %#v (%v), want %#v", tc.cfg, got, err, tc.want)
			}
		})
	}
}

// TestPoliciesAreOneNamespace: every name Policies lists is in exactly one
// table and LookupPolicy resolves it, to a factory for an in-kernel path
// manager and to nil for a controller; an unknown name's error lists every
// accepted one.
func TestPoliciesAreOneNamespace(t *testing.T) {
	for _, in := range Policies() {
		k, err := LookupPolicy(in.Name)
		_, inK := KernelPMs.Get(in.Name)
		_, inC := Controllers.Get(in.Name)
		if err != nil || (k != nil) != inK || inK == inC {
			t.Errorf("%s: resolves to (%v, %v); kernel table %v, controller table %v", in.Name, k, err, inK, inC)
		}
	}
	if k, err := LookupPolicy(""); k != nil || err != nil {
		t.Errorf("the empty name must resolve to the nil policy, got (%v, %v)", k, err)
	}
	_, err := LookupPolicy("no-such-policy")
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	for _, in := range Policies() {
		if !strings.Contains(err.Error(), in.Name) {
			t.Errorf("error %q does not list %q", err, in.Name)
		}
	}
	if n := len(Policies()); n != 8 {
		t.Errorf("%d policies, want the five controllers and three in-kernel managers", n)
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
