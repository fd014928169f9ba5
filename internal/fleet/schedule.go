package fleet

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/netem"
	"repro/internal/scenario"
)

// firstHandoverFloor is the earliest a device may start fading its WiFi:
// late enough that every staggered dial (1 ms + 10 µs per device) has
// completed its MP_CAPABLE handshake on the still-up primary interface.
const firstHandoverFloor = 300 * time.Millisecond

// Device is one generated fleet member: its drawn link qualities and what
// it takes to replay its mobility timeline. Everything here is a pure
// function of (ordinal, mix, handover rate, duration) — see the package
// doc.
type Device struct {
	Ordinal int
	Profile *Profile
	WiFi    netem.LinkConfig // drawn access-link quality, primary
	LTE     netem.LinkConfig // drawn access-link quality, fallback

	// Handovers is how many WiFi→LTE switches the timeline schedules
	// within the corpus duration; Offline is the summed WiFi downtime.
	Handovers int
	Offline   time.Duration

	wifiLink, lteLink string
	// timeline is the device's stream where the timeline draws begin. A
	// walk draws from a copy, so every walk makes the same events and the
	// device keeps none of them: Schedule compiles them straight into the
	// run's list.
	timeline Stream
	events   int // how many of them fall inside the corpus window
}

// WiFiLink and LTELink name the device's two access links in the built
// topology ("wifi<ordinal>", "lte<ordinal>"). genDevice formats them once:
// every timeline event names one.
func (d *Device) WiFiLink() string { return d.wifiLink }
func (d *Device) LTELink() string  { return d.lteLink }

// GenConfig are the corpus-generation knobs shared by every device.
type GenConfig struct {
	Mix      []MixEntry
	Duration time.Duration // corpus window; events past it are dropped
	// HandoverRate scales mobility: dwell times divide by it, so 2.0
	// hands over twice as often and 0.5 half as often. Must be > 0.
	HandoverRate float64
}

// Generate draws the whole fleet: device i's profile, link qualities,
// and mobility timeline all come from DeviceStream(i), so the corpus is
// identical for any shard count, any seed, and any total device count
// (device 17 is the same device in a 20-device and a 10 000-device run).
// Each device's timeline is walked once here, to count its events and
// handovers; Schedule walks it again to compile the events.
func Generate(n int, cfg GenConfig) ([]*Device, error) {
	if cfg.HandoverRate <= 0 {
		return nil, fmt.Errorf("fleet: handover_rate %v: must be positive", cfg.HandoverRate)
	}
	if len(cfg.Mix) == 0 {
		return nil, fmt.Errorf("fleet: empty profile mix")
	}
	devs := make([]*Device, n)
	for i := range devs {
		devs[i] = genDevice(i, cfg)
	}
	return devs, nil
}

// genDevice draws one device. The draw order is part of the format:
// profile, WiFi link, LTE link, then the handover timeline, then the
// cross-traffic timeline — changing it changes every corpus.
func genDevice(i int, cfg GenConfig) *Device {
	s := DeviceStream(i)
	p := pick(cfg.Mix, s)
	d := &Device{Ordinal: i, Profile: p, WiFi: p.WiFi.draw(s), LTE: p.LTE.draw(s), timeline: *s}
	d.wifiLink, d.lteLink = "wifi"+strconv.Itoa(i), "lte"+strconv.Itoa(i)
	d.Handovers, d.Offline = d.walk(cfg, func(scenario.Event) { d.events++ })
	return d
}

// Schedule compiles the fleet's timelines into one event list for a
// RunSpec, in device order, leaving out events past the corpus window (the
// stop horizon would never fire them). The list is allocated once at its
// exact size, from the counts Generate took, and is the only copy of the
// events: the run takes it as it is. cfg must be the one the devices were
// generated with.
func Schedule(devs []*Device, cfg GenConfig) []scenario.Event {
	n := 0
	for _, d := range devs {
		n += d.events
	}
	evs := make([]scenario.Event, 0, n)
	for _, d := range devs {
		d.walk(cfg, func(ev scenario.Event) { evs = append(evs, ev) })
	}
	return evs
}

// walk replays d's timeline from a copy of its stream and hands emit
// every event at or before the corpus window's end, in draw order. It
// returns the handovers the timeline schedules and the WiFi downtime they
// sum to.
func (d *Device) walk(cfg GenConfig, emit func(scenario.Event)) (handovers int, offline time.Duration) {
	s, p, rate := d.timeline, d.Profile, cfg.HandoverRate
	dwell := func(r Ranged) time.Duration {
		return time.Duration(float64(s.Between(r[0], r[1])) / rate)
	}
	add := func(ev scenario.Event) {
		if ev.At <= cfg.Duration {
			emit(ev)
		}
	}
	// setLoss sets both directions of the named link to the given loss
	// ratio — a radio fade degrades uplink and downlink alike, unlike the
	// egress-qdisc loss steps of the paper figures.
	setLoss := func(at time.Duration, name, link string, loss float64) {
		add(scenario.Event{At: at, Name: name, Fn: setLinkLoss, Arg: scenario.EventArg{Name: link, Loss: loss}})
	}
	fadeLead := time.Duration(p.FadeSteps) * p.FadeStep

	// Handover timeline: dwell on WiFi, fade, drop WiFi for an LTE
	// dwell, then come back with the residual loss restored.
	t := firstHandoverFloor + fadeLead + dwell(p.WiFiDwell)
	for t < cfg.Duration {
		for k := 1; k <= p.FadeSteps; k++ {
			frac := float64(k) / float64(p.FadeSteps)
			loss := d.WiFi.Loss + frac*(p.FadeLoss-d.WiFi.Loss)
			setLoss(t-fadeLead+time.Duration(k-1)*p.FadeStep, "fleet.fade", d.wifiLink, loss)
		}
		out := dwell(p.LTEDwell)
		for _, ev := range scenario.FlapClientIface(t, out, d.Ordinal, 0) {
			add(ev)
		}
		setLoss(t+out, "fleet.recover", d.wifiLink, d.WiFi.Loss)
		handovers++
		offline += out
		t += out + fadeLead + dwell(p.WiFiDwell)
	}

	// Cross-traffic bursts on the LTE path, independent cadence.
	if p.CrossEvery[1] > 0 {
		ct := s.Between(p.CrossEvery[0], p.CrossEvery[1])
		for ct < cfg.Duration {
			loss := s.Range(p.CrossLoss[0], p.CrossLoss[1])
			dur := s.Between(p.CrossDur[0], p.CrossDur[1])
			setLoss(ct, "fleet.cross", d.lteLink, loss)
			setLoss(ct+dur, "fleet.calm", d.lteLink, d.LTE.Loss)
			ct += dur + s.Between(p.CrossEvery[0], p.CrossEvery[1])
		}
	}
	return handovers, offline
}

func setLinkLoss(rt *scenario.Run, a scenario.EventArg) { rt.Net.Link(a.Name).SetLoss(a.Loss) }
