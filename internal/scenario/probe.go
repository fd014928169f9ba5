package scenario

import (
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcp"
)

// Probe declaratively selects what a run collects into the Result: Arm
// installs hooks right after the workload dialed (trace callbacks,
// counters); Collect runs once the simulation stopped and writes samples,
// series, or scalars. Either hook may be nil.
type Probe struct {
	Name    string
	Arm     func(rt *Run)
	Collect func(rt *Run)
}

// Scalar is a probe recording one headline number after the run.
func Scalar(key string, fn func(rt *Run) float64) Probe {
	return Probe{Name: key, Collect: func(rt *Run) {
		rt.Result.Scalars[key] = fn(rt)
	}}
}

// SampleInto is a probe filling the named distribution after the run.
// The sample is shared across runs of the spec, so per-trial runs can
// accumulate into one curve.
func SampleInto(curve string, fn func(rt *Run, s *stats.Sample)) Probe {
	return Probe{Name: curve, Collect: func(rt *Run) {
		fn(rt, rt.Result.Sample(curve))
	}}
}

// PushTrace records the per-subflow data-sequence trace of Fig. 2a:
// every push through a subflow sourced at the client's BackupAddrIdx-th
// address lands in the Backup series, everything else in Primary, and the
// first backup push is remembered — the moment the smart controller's
// switch became effective (a natural Stop.Until condition).
type PushTrace struct {
	Primary, Backup *stats.Series
	// FirstBackup is when the backup subflow first carried data (-1 =
	// never).
	FirstBackup sim.Time
	// BackupAddrIdx selects which client address marks the backup path.
	BackupAddrIdx int
}

// NewPushTrace builds the trace with the conventional series names.
func NewPushTrace(backupAddrIdx int) *PushTrace {
	return &PushTrace{
		Primary:       &stats.Series{Name: "primary"},
		Backup:        &stats.Series{Name: "backup"},
		FirstBackup:   -1,
		BackupAddrIdx: backupAddrIdx,
	}
}

// Probe wires the trace into a run: Arm installs the connection's
// TracePush hook, Collect appends both series to the result.
func (p *PushTrace) Probe() Probe {
	return Probe{
		Name: "push-trace",
		Arm: func(rt *Run) {
			split := rt.Net.ClientAt(0).Addrs[p.BackupAddrIdx]
			cclk := rt.ClientClock(0) // TracePush fires on the client's loop
			rt.Conn.TracePush = func(sf *tcp.Subflow, rel uint64, ln int, re bool) {
				t := cclk.Now()
				tr := p.Primary
				if sf.Tuple().SrcIP == split {
					tr = p.Backup
					if p.FirstBackup < 0 {
						p.FirstBackup = t
					}
				}
				label := ""
				if re {
					label = "reinject"
				}
				tr.Append(t.Seconds(), float64(rel+uint64(ln)), label)
			}
		},
		Collect: func(rt *Run) {
			rt.Result.Series = append(rt.Result.Series, p.Primary, p.Backup)
		},
	}
}
