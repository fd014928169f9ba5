package controller_test

import (
	"math"
	"net/netip"
	"reflect"
	"runtime"
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
// nothing, on a clock that stands still: Attach and events against it cost
// exactly what the controller allocates.
type stubLib struct {
	cbs core.Callbacks
}

func (l *stubLib) Register(cbs core.Callbacks, done func(uint32))          { l.cbs = cbs }
func (l *stubLib) CreateSubflow(uint32, seg.FourTuple, bool, func(uint32)) {}
func (l *stubLib) RemoveSubflow(uint32, seg.FourTuple, func(uint32))       {}
func (l *stubLib) SetBackup(uint32, seg.FourTuple, bool, func(uint32))     {}
func (l *stubLib) AnnounceAddr(uint32, netip.Addr, uint16, func(uint32))   {}
func (l *stubLib) GetInfo(uint32, func(*nlmsg.ConnInfo))                   {}
func (l *stubLib) Clock() core.Clock                                       { return stillClock{} }

type stillClock struct{}

func (stillClock) Now() time.Duration                 { return 0 }
func (stillClock) After(time.Duration, func()) func() { return func() {} }

var ctlConfig = smapp.ControllerConfig{Addrs: []netip.Addr{
	netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.1.0.1"),
}}

// build instantiates the registered controller name.
func build(t *testing.T, name string) controller.Controller {
	factory, _ := smapp.Controllers.Lookup(name)
	ctl, err := factory(ctlConfig)
	if err != nil {
		t.Fatal(err)
	}
	return ctl
}

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
	lib := &stubLib{}
	for _, name := range smapp.Controllers.Names() {
		want, ok := attachAllocs[name]
		if !ok {
			t.Errorf("%s: registered but its Attach is not pinned", name)
			continue
		}
		built := testing.AllocsPerRun(50, func() { build(t, name) })
		attached := testing.AllocsPerRun(50, func() { build(t, name).Attach(lib) })
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

// connectionCost pins what a connection costs each registered controller
// up to establishment — build, Attach, created and established through a
// library that does nothing — in objects and bytes, size classes included:
// the lifecycle every controller embeds must not grow a fleet's
// per-device memory. FullMesh's remotes besides the initial one stay nil
// until an announcement, which pays for its embedded lifecycle.
var connectionCost = map[string]struct{ allocs, bytes uint64 }{
	"fullmesh":   {5, 592}, // 448-byte struct, local set, handle, createAcked, one pending create
	"backup":     {2, 128},
	"stream":     {3, 216}, // the probe armed
	"refresh":    {4, 192}, // born map, the tick armed
	"ndiffports": {2, 112},
}

var (
	costCreated = nlmsg.Event{Kind: nlmsg.EvCreated, Token: 1, HasTuple: true, Tuple: seg.FourTuple{
		SrcIP: netip.MustParseAddr("10.0.0.1"), DstIP: netip.MustParseAddr("10.9.0.1"), SrcPort: 40000, DstPort: 80,
	}}
	costEstablished = nlmsg.Event{Kind: nlmsg.EvEstablished, Token: 1, HasTuple: true, Tuple: costCreated.Tuple}
)

func TestConnectionCost(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts differ under -race instrumentation")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun
	lib := &stubLib{}
	for _, name := range smapp.Controllers.Names() {
		want, ok := connectionCost[name]
		if !ok {
			t.Errorf("%s: registered but its connection cost is not pinned", name)
			continue
		}
		connect := func() {
			build(t, name).Attach(lib)
			lib.cbs.Dispatch(&costCreated)
			lib.cbs.Dispatch(&costEstablished)
		}
		// The least of a few rounds: an allocation of the runtime's own
		// inside one round's window moves its bytes, not the pin.
		const rounds, runs = 5, 200
		connect()
		allocs, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
		for range rounds {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				connect()
			}
			runtime.ReadMemStats(&after)
			allocs = min(allocs, (after.Mallocs-before.Mallocs)/runs)
			bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/runs)
		}
		t.Logf("%s: a connection costs %d objects, %d bytes", name, allocs, bytes)
		if allocs > want.allocs || bytes > want.bytes {
			t.Errorf("%s: a connection costs %d objects, %d bytes; want <= %d, %d",
				name, allocs, bytes, want.allocs, want.bytes)
		}
	}
}

// TestEveryControllerIsHistoryFuzzed is the rule that every registered
// policy runs under FuzzControllerHistory: its registry name must name a
// row of the fuzzer's controllers, and that row must build its type.
func TestEveryControllerIsHistoryFuzzed(t *testing.T) {
	fuzzed := controller.HistoryFuzzed()
	for _, name := range smapp.Controllers.Names() {
		ctl := build(t, name)
		switch h, ok := fuzzed[name]; {
		case !ok:
			t.Errorf("%s: registered, but FuzzControllerHistory does not drive it", name)
		case reflect.TypeOf(h) != reflect.TypeOf(ctl):
			t.Errorf("%s: FuzzControllerHistory drives a %T, the registry builds a %T", name, h, ctl)
		}
	}
}
