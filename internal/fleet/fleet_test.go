package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/testutil"
)

func TestDeviceStreamDeterministic(t *testing.T) {
	a, b := DeviceStream(42), DeviceStream(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("stream 42 diverged at draw %d", i)
		}
	}
	if DeviceStream(0).Uint64() == DeviceStream(1).Uint64() {
		t.Fatal("adjacent ordinals produced the same first draw")
	}
	for i := 0; i < 1000; i++ {
		if f := DeviceStream(i).Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestParseMix(t *testing.T) {
	mix, err := ParseMix("commuter:3, office:1,home")
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 3 || mix[0].Weight != 3 || mix[2].Weight != 1 {
		t.Fatalf("mix = %+v", mix)
	}
	for _, bad := range []string{"", "nope:1", "commuter:0", "commuter:-1", "commuter:x"} {
		if _, err := ParseMix(bad); err == nil {
			t.Fatalf("ParseMix(%q) did not fail", bad)
		}
	}
}

// genCfg is the test corpus configuration.
func genCfg(d time.Duration) GenConfig {
	mix, err := ParseMix(DefaultMix)
	if err != nil {
		panic(err)
	}
	return GenConfig{Mix: mix, Duration: d, HandoverRate: 1}
}

// TestOrdinalStableAcrossFleetSize is the corpus contract: device 7 is
// the SAME device — profile, link draws, full timeline — whether the
// fleet has 10 members or 1000. Without this, growing the fleet would
// silently re-randomise every existing device. The schedule lists devices
// in order, so the small fleet's must be the start of the big one's.
func TestOrdinalStableAcrossFleetSize(t *testing.T) {
	cfg := genCfg(12 * time.Second)
	small, err := Generate(10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Generate(1000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range small {
		a, b := small[i], big[i]
		if a.Profile.Name != b.Profile.Name || a.WiFi != b.WiFi || a.LTE != b.LTE {
			t.Fatalf("device %d draws changed with fleet size: %+v vs %+v", i, a, b)
		}
		if a.Handovers != b.Handovers || a.Offline != b.Offline {
			t.Fatalf("device %d timeline changed with fleet size", i)
		}
	}
	se, be := Schedule(small, cfg), Schedule(big, cfg)
	if len(se) == 0 || len(se) >= len(be) {
		t.Fatalf("%d events for 10 devices, %d for 1000", len(se), len(be))
	}
	for k := range se {
		if se[k].At != be[k].At || se[k].Name != be[k].Name || se[k].Arg != be[k].Arg {
			t.Fatalf("event %d: (%v,%s,%+v) vs (%v,%s,%+v)",
				k, se[k].At, se[k].Name, se[k].Arg, be[k].At, be[k].Name, be[k].Arg)
		}
	}
}

func TestDrawsWithinProfileRanges(t *testing.T) {
	devs, err := Generate(500, genCfg(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range devs {
		p := d.Profile
		seen[p.Name] = true
		if d.WiFi.RateBps < p.WiFi.RateBps[0] || d.WiFi.RateBps >= p.WiFi.RateBps[1] {
			t.Fatalf("device %d wifi rate %v outside %v", d.Ordinal, d.WiFi.RateBps, p.WiFi.RateBps)
		}
		if d.LTE.Delay < p.LTE.Delay[0] || d.LTE.Delay >= p.LTE.Delay[1] {
			t.Fatalf("device %d lte delay %v outside %v", d.Ordinal, d.LTE.Delay, p.LTE.Delay)
		}
		if d.WiFi.Loss < p.WiFi.Loss[0] || d.WiFi.Loss >= p.WiFi.Loss[1] {
			t.Fatalf("device %d wifi loss %v outside %v", d.Ordinal, d.WiFi.Loss, p.WiFi.Loss)
		}
	}
	for _, name := range ProfileNames() {
		if !seen[name] {
			t.Errorf("500 devices from the default mix never drew profile %s", name)
		}
	}
}

func TestHandoverRateScalesMobility(t *testing.T) {
	count := func(rate float64) int {
		cfg := genCfg(20 * time.Second)
		cfg.HandoverRate = rate
		devs, err := Generate(200, cfg)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, d := range devs {
			total += d.Handovers
		}
		return total
	}
	slow, fast := count(0.5), count(2)
	if fast <= slow {
		t.Fatalf("handover_rate=2 scheduled %d handovers, rate=0.5 %d; want more", fast, slow)
	}
	cfg := genCfg(time.Second)
	cfg.HandoverRate = 0
	if _, err := Generate(4, cfg); err == nil {
		t.Fatal("HandoverRate=0 did not fail")
	}
}

// TestTimelineRespectsFloorAndDuration: no event comes before the dial
// floor or after the window, and the schedule is the fleet's one copy of
// its events: one allocation of exactly the size it holds.
func TestTimelineRespectsFloorAndDuration(t *testing.T) {
	cfg := genCfg(15 * time.Second)
	devs, err := Generate(300, cfg)
	if err != nil {
		t.Fatal(err)
	}
	evs := Schedule(devs, cfg)
	if len(evs) == 0 {
		t.Fatal("no events scheduled")
	}
	for _, ev := range evs {
		if ev.At < firstHandoverFloor {
			t.Fatalf("%s at %v, before the dial floor", ev.Name, ev.At)
		}
		if ev.At > cfg.Duration {
			t.Fatalf("%s at %v, past the %v window", ev.Name, ev.At, cfg.Duration)
		}
	}
	if len(evs) != cap(evs) {
		t.Fatalf("schedule holds %d events in room for %d", len(evs), cap(evs))
	}
	if testutil.RaceEnabled {
		return // alloc counts differ under -race instrumentation
	}
	if n := testing.AllocsPerRun(5, func() { Schedule(devs, cfg) }); n != 1 {
		t.Fatalf("Schedule made %v allocations, want its one list", n)
	}
}

// scheduleHash digests every event's (At, Name, Fn symbol, Arg), in list
// order, as hex sha256.
func scheduleHash(evs []scenario.Event) string {
	h := sha256.New()
	for _, ev := range evs {
		fn := runtime.FuncForPC(reflect.ValueOf(ev.Fn).Pointer()).Name()
		fmt.Fprintf(h, "%d %s %s %q %d %d %x\n", ev.At, ev.Name, fn,
			ev.Arg.Name, ev.Arg.Client, ev.Arg.Addr, math.Float64bits(ev.Arg.Loss))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestScheduleHash pins the compiled schedule of 64 devices over a 20 s
// window, event by event and in order: a faster way of building it must
// build the same list.
func TestScheduleHash(t *testing.T) {
	const want = "a1080899d81a3869ddbade385434e59c5ff6f201502dc7ba55eca4fadcc4a365"
	cfg := genCfg(20 * time.Second)
	devs, err := Generate(64, cfg)
	if err != nil {
		t.Fatal(err)
	}
	evs := Schedule(devs, cfg)
	if got := scheduleHash(evs); got != want {
		t.Fatalf("schedule of %d events hashes to %s, want %s", len(evs), got, want)
	}
}
