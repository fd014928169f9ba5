package controller_test

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/nlmsg"
	"repro/internal/seg"
	"repro/internal/smapp"
	"repro/internal/testutil"
)

// stubLib is a core.Lib that keeps the registered callbacks and answers
// nothing: Attach against it costs exactly what the controller allocates.
type stubLib struct{ cbs core.Callbacks }

func (l *stubLib) Register(cbs core.Callbacks, done func(uint32))          { l.cbs = cbs }
func (l *stubLib) CreateSubflow(uint32, seg.FourTuple, bool, func(uint32)) {}
func (l *stubLib) RemoveSubflow(uint32, seg.FourTuple, func(uint32))       {}
func (l *stubLib) SetBackup(uint32, seg.FourTuple, bool, func(uint32))     {}
func (l *stubLib) AnnounceAddr(uint32, netip.Addr, uint16, func(uint32))   {}
func (l *stubLib) GetInfo(uint32, func(*nlmsg.ConnInfo))                   {}
func (l *stubLib) After(time.Duration, func()) func()                      { return func() {} }
func (l *stubLib) Clock() core.Clock                                       { return nil }

// attachAllocs pins what Attach allocates on a fresh instance of each
// registered controller: one handler for every event kind, plus FullMesh's
// create-ack callback. A controller that registers a method value per
// event, or makes a map it may never fill, shows up here.
var attachAllocs = map[string]float64{
	"fullmesh":   2, // handle, createAcked
	"backup":     1,
	"stream":     1,
	"refresh":    1,
	"ndiffports": 1,
}

func TestAttachAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts differ under -race instrumentation")
	}
	cfg := smapp.ControllerConfig{Addrs: []netip.Addr{
		netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.1.0.1"),
	}}
	lib := &stubLib{}
	for _, name := range smapp.Controllers.Names() {
		want, ok := attachAllocs[name]
		if !ok {
			t.Errorf("%s: registered but its Attach is not pinned", name)
			continue
		}
		factory, _ := smapp.Controllers.Lookup(name)
		build := func() controller.Controller {
			ctl, err := factory(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return ctl
		}
		built := testing.AllocsPerRun(50, func() { build() })
		attached := testing.AllocsPerRun(50, func() { build().Attach(lib) })
		got := attached - built
		t.Logf("%s: Attach allocates %v objects", name, got)
		if got > want {
			t.Errorf("%s: Attach allocates %v objects, want <= %v", name, got, want)
		}
		if lib.cbs.Created == nil {
			t.Errorf("%s: Attach registered no created handler", name)
		}
		lib.cbs = core.Callbacks{}
	}
}
