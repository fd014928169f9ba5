// Package trace is the observability subsystem of the reproduction: a
// zero-allocation event recorder plus an mptcptrace-style analysis layer.
//
// The paper justifies every SMAPP policy by analysing packet traces of
// MPTCP behaviour — subflow byte split, reinjections, handover gaps —
// so the simulator records the same raw material. Recording is designed
// to observe without perturbing:
//
//   - records are fixed-size binary values (no pointers, no strings)
//     written into per-host ring buffers ("shards") preallocated at
//     trace start, so the steady-state data path stays 0 allocs/op;
//   - a full ring drops the oldest record (the ring keeps the tail of
//     the run) and counts the drop;
//   - every API is nil-safe: a nil *Tracer or *Shard compiles the whole
//     instrumentation to a cheap branch, so untraced runs pay nothing;
//   - recording never consumes simulation randomness and never
//     schedules events, which is what keeps traced runs byte-identical
//     to untraced ones.
//
// Variable-size context (connection names, subflow tuples, link names)
// lives in an entity table populated at registration time — connection
// setup, not the per-segment path — and records refer to entities by
// integer id.
//
// A Tracer belongs to one simulation and, like the simulator itself, is
// not safe for concurrent use; the multi-seed runner gives every seed
// its own Tracer.
package trace

import (
	"sort"

	"repro/internal/sim"
)

// Kind discriminates trace records.
type Kind uint8

// Record kinds, grouped by the layer that emits them.
const (
	// KSend: tcp data segment transmitted. Ent=flow, Seq=subflow seq,
	// Len=payload bytes, Aux=absolute DSN, Flag&FRetrans set on
	// retransmission.
	KSend Kind = 1 + iota
	// KRecv: tcp segment received. Ent=flow, Seq=subflow seq,
	// Len=payload bytes, Aux=ack.
	KRecv
	// KCC: congestion state after an update. Ent=flow, Seq=SRTT in ns,
	// Len=bytes in flight, Aux=cwnd in bytes.
	KCC
	// KPick: the mptcp scheduler placed a chunk. Ent=flow, Seq=relative
	// data sequence, Len=chunk bytes, Flag: FReinject (queued again
	// after timeout/death), FDup (redundant copy).
	KPick
	// KReassm: DSS mapping processed by the receiver. Ent=conn,
	// Seq=relative data sequence, Len=mapping bytes, Aux=in-order
	// frontier (rcv.nxt) after processing, Flag&FAdvance when the
	// frontier moved.
	KReassm
	// KSubAdd: subflow established. Ent=flow, Flag&FBackup for backup
	// priority.
	KSubAdd
	// KSubDel: subflow closed. Ent=flow, Aux=errno.
	KSubDel
	// KLinkEnq: packet accepted into a link queue. Ent=link, Len=wire
	// bytes.
	KLinkEnq
	// KLinkDrop: packet dropped by the fabric. Ent=link, Len=wire
	// bytes, Flag=DropQueue/DropLoss/DropDown.
	KLinkDrop
	// KLinkDlv: packet delivered to the far end. Ent=link, Len=wire
	// bytes.
	KLinkDlv
	// KPolicyAttach: a smapp controller bound to a connection.
	// Ent=policy, Seq=connection token.
	KPolicyAttach
	// KPolicyDetach: the controller unbound (switch or close).
	// Ent=policy, Seq=connection token.
	KPolicyDetach
	// KPolicyCmd: the controller issued a path-manager command.
	// Ent=policy, Seq=connection token, Flag=Cmd*.
	KPolicyCmd
)

// String names the kind in reports and CSV output.
func (k Kind) String() string {
	switch k {
	case KSend:
		return "send"
	case KRecv:
		return "recv"
	case KCC:
		return "cc"
	case KPick:
		return "pick"
	case KReassm:
		return "reassm"
	case KSubAdd:
		return "sub-add"
	case KSubDel:
		return "sub-del"
	case KLinkEnq:
		return "enq"
	case KLinkDrop:
		return "drop"
	case KLinkDlv:
		return "deliver"
	case KPolicyAttach:
		return "attach"
	case KPolicyDetach:
		return "detach"
	case KPolicyCmd:
		return "command"
	}
	return "?"
}

// Flag bits (per kind; see the Kind constants).
const (
	FRetrans  uint8 = 1 << iota // KSend: retransmission
	FReinject                   // KPick: reinjected range
	FDup                        // KPick: redundant duplicate copy
	FAdvance                    // KReassm: in-order frontier moved
	FBackup                     // KSubAdd: backup priority
)

// KLinkDrop reasons.
const (
	DropQueue uint8 = 1 + iota // drop-tail queue overflow
	DropLoss                   // Bernoulli random loss
	DropDown                   // link administratively down
)

// KPolicyCmd commands.
const (
	CmdCreateSubflow uint8 = 1 + iota
	CmdRemoveSubflow
	CmdSetBackup
	CmdAnnounceAddr
)

// EntKind classifies entities.
type EntKind uint8

// Entity kinds.
const (
	EntConn EntKind = 1 + iota
	EntFlow
	EntLink
	EntPolicy
)

// String names the entity kind.
func (k EntKind) String() string {
	switch k {
	case EntConn:
		return "conn"
	case EntFlow:
		return "flow"
	case EntLink:
		return "link"
	case EntPolicy:
		return "policy"
	}
	return "?"
}

// Entity is one registered trace subject: a connection, a subflow, a
// link, or a policy binding. IDs start at 1; 0 means "none".
type Entity struct {
	ID     uint32
	Kind   EntKind
	Parent uint32 // owning entity (flow → conn); 0 = none
	Name   string
}

// Record is one fixed-size trace event. It contains no pointers, so a
// ring of records is a flat allocation the garbage collector never
// scans, and recording is a plain store.
type Record struct {
	At   sim.Time
	Seq  uint64
	Aux  uint64
	Ent  uint32
	Len  uint32
	Kind Kind
	Flag uint8
}

// DefaultShardCap is the per-shard ring capacity (records) when the
// Tracer is built with cap <= 0: 64Ki records × 40 B ≈ 2.6 MB per host.
const DefaultShardCap = 1 << 16

// Tracer owns the entity table and the per-host shards of one
// simulation run.
type Tracer struct {
	cap    int
	shards []*Shard
	byName map[string]*Shard
	ents   []Entity
}

// New builds a tracer whose shards hold perShardCap records each
// (<= 0 selects DefaultShardCap).
func New(perShardCap int) *Tracer {
	if perShardCap <= 0 {
		perShardCap = DefaultShardCap
	}
	return &Tracer{cap: perShardCap, byName: make(map[string]*Shard)}
}

// Shard returns the named shard, creating (and preallocating) it on
// first use. By convention each host records into its own shard and the
// fabric shares one ("net"). Nil-safe: a nil tracer returns nil, which
// every recording call treats as "tracing off".
func (t *Tracer) Shard(name string) *Shard {
	if t == nil {
		return nil
	}
	if sh, ok := t.byName[name]; ok {
		return sh
	}
	sh := &Shard{tr: t, name: name, ring: make([]Record, t.cap)}
	t.shards = append(t.shards, sh)
	t.byName[name] = sh
	return sh
}

// Register adds an entity and returns its id. parent links a flow to
// its connection (0 = none). Nil-safe: a nil tracer returns 0.
// Registration happens at connection/link setup time, never on the
// per-segment path, so it may allocate.
func (t *Tracer) Register(kind EntKind, parent uint32, name string) uint32 {
	if t == nil {
		return 0
	}
	id := uint32(len(t.ents) + 1)
	t.ents = append(t.ents, Entity{ID: id, Kind: kind, Parent: parent, Name: name})
	return id
}

// Shard is one preallocated ring of records. Records within a shard are
// naturally time-ordered (the simulation clock is monotonic); a full
// ring overwrites the oldest record and counts it as dropped.
type Shard struct {
	tr   *Tracer
	name string
	ring []Record
	n    uint64 // total records ever appended
}

// Name identifies the shard (by convention, the owning host).
func (sh *Shard) Name() string {
	if sh == nil {
		return ""
	}
	return sh.name
}

// Tracer returns the owning tracer (nil for a nil shard), so wiring
// code can register entities through the shard handle it was given.
func (sh *Shard) Tracer() *Tracer {
	if sh == nil {
		return nil
	}
	return sh.tr
}

// Rec appends one record. This is THE hot call: a nil receiver returns
// immediately (tracing off), and the enabled path is an index and a
// struct store into the preallocated ring — no allocation either way.
func (sh *Shard) Rec(at sim.Time, kind Kind, ent uint32, seq uint64, ln uint32, aux uint64, flag uint8) {
	if sh == nil {
		return
	}
	sh.ring[int(sh.n)%len(sh.ring)] = Record{
		At: at, Seq: seq, Aux: aux, Ent: ent, Len: ln, Kind: kind, Flag: flag,
	}
	sh.n++
}

// Len reports the records currently held (≤ cap).
func (sh *Shard) Len() int {
	if sh == nil {
		return 0
	}
	if sh.n < uint64(len(sh.ring)) {
		return int(sh.n)
	}
	return len(sh.ring)
}

// Dropped reports how many records the ring overwrote.
func (sh *Shard) Dropped() uint64 {
	if sh == nil {
		return 0
	}
	if sh.n <= uint64(len(sh.ring)) {
		return 0
	}
	return sh.n - uint64(len(sh.ring))
}

// records appends the shard's held records, oldest first, to dst.
func (sh *Shard) records(dst []Record) []Record {
	held := sh.Len()
	if held == 0 {
		return dst
	}
	start := int(sh.n) % len(sh.ring)
	if sh.n <= uint64(len(sh.ring)) {
		return append(dst, sh.ring[:held]...)
	}
	dst = append(dst, sh.ring[start:]...)
	return append(dst, sh.ring[:start]...)
}

// ShardInfo summarises one shard in a snapshot.
type ShardInfo struct {
	Name    string
	Records uint64 // total appended (including dropped)
	Dropped uint64
}

// Data is an immutable snapshot of a trace: the entity table plus every
// held record merged across shards in time order (ties resolved by
// shard creation order, which is deterministic). It is what the binary
// trace file stores and what the analyzer consumes.
type Data struct {
	Entities []Entity
	Records  []Record
	Dropped  uint64
	Shards   []ShardInfo
}

// Snapshot merges the shards into a Data. The tracer remains usable
// afterwards (snapshotting copies).
func (t *Tracer) Snapshot() *Data {
	if t == nil {
		return &Data{}
	}
	total := 0
	d := &Data{Entities: append([]Entity(nil), t.ents...)}
	for _, sh := range t.shards {
		total += sh.Len()
		d.Shards = append(d.Shards, ShardInfo{Name: sh.name, Records: sh.n, Dropped: sh.Dropped()})
		d.Dropped += sh.Dropped()
	}
	d.Records = make([]Record, 0, total)
	for _, sh := range t.shards {
		d.Records = sh.records(d.Records)
	}
	// Stable sort: within one timestamp, records keep shard order then
	// ring order, so the merged stream is deterministic per seed.
	sort.SliceStable(d.Records, func(i, j int) bool {
		return d.Records[i].At < d.Records[j].At
	})
	return d
}

// Entity resolves an id (nil for 0 or out of range).
func (d *Data) Entity(id uint32) *Entity {
	if id == 0 || int(id) > len(d.Entities) {
		return nil
	}
	return &d.Entities[id-1]
}

// EntityName resolves an id to its name ("?" when unknown).
func (d *Data) EntityName(id uint32) string {
	if e := d.Entity(id); e != nil {
		return e.Name
	}
	return "?"
}
