package tcp

import (
	"net/netip"
	"reflect"
	"testing"
	"time"

	"repro/internal/seg"
)

// scratchFields are the Subflow fields whose capacity a reused subflow
// keeps; their contents are compared separately (empty, no stale chunk).
var scratchFields = map[string]bool{"rcv": true, "sq": true}

// TestRecycledSubflowMatchesFresh drives a subflow through the handshake,
// data, a SACK recovery episode, retransmission timeouts, the peer's FIN
// and finally the peer's RST, then reuses it for another 4-tuple. Field
// for field it must equal what NewSubflow returns for the same arguments,
// bar the capacity of its scratch buffers, which must hold nothing.
func TestRecycledSubflowMatchesFresh(t *testing.T) {
	p := newPair(t, 31, 10*time.Millisecond, Config{MSS: 1000, MaxBackoffs: 8})
	p.a.Connect()
	p.s.Run()

	dropped, arm := 0, false
	p.dropAtoB = func(s *seg.Segment) bool {
		if arm && s.PayloadLen > 0 && dropped < 6 {
			dropped++
			return true
		}
		return false
	}
	push(p.a, 0, 60_000)
	p.s.RunFor(25 * time.Millisecond)
	arm = true
	p.s.Run()

	p.b.Close() // the peer's FIN: a has received it (finRcvd)
	p.s.RunFor(50 * time.Millisecond)
	p.dropAtoB = func(*seg.Segment) bool { return true }
	push(p.a, 60_000, 5000)
	p.a.Close()
	p.s.RunFor(3 * time.Second) // several backed-off RTOs
	p.b.Abort(ECONNABORTED)     // its RST reaches a
	p.s.RunFor(50 * time.Millisecond)

	a := p.a
	if st := a.Info().Stats; a.State() != StateDead || p.oa.closeReason != ECONNRESET ||
		st.FastRetrans == 0 || st.Timeouts == 0 || a.backoffs == 0 || !a.finRcvd || !a.closing ||
		cap(a.sq.buf) == 0 || cap(a.sh.sack) == 0 {
		t.Fatalf("subflow did not go through the whole life: state %v, reason %v, stats %+v, backoffs %d, finRcvd %v, closing %v",
			a.State(), p.oa.closeReason, st, a.backoffs, a.finRcvd, a.closing)
	}

	tup := seg.FourTuple{
		SrcIP: netip.MustParseAddr("10.0.2.1"), DstIP: netip.MustParseAddr("10.0.1.1"),
		SrcPort: 40001, DstPort: 80,
	}
	out := func(*seg.Segment) {}
	owner := &mockOwner{}
	var sh Shared
	sh.Init(Config{MSS: 1200}, out)
	a.Reuse(p.s, &sh, tup, owner)
	fresh := sh.NewSubflow(p.s, tup, owner)

	if diff := diffSubflows(a, fresh); len(diff) > 0 {
		t.Fatalf("reused subflow differs from a fresh one in %v", diff)
	}
	for _, c := range a.sq.buf[:cap(a.sq.buf)] {
		if c != nil {
			t.Fatal("reused send queue still points at a chunk")
		}
	}
	if len(a.sq.buf) != 0 || len(a.rcv.ooo) != 0 ||
		a.rcv.nxt != 0 || a.sq.head != 0 || a.sq.inFlight != 0 ||
		a.sq.unsent != 0 || a.sq.nLost != 0 || a.sq.firstUnsent != 0 {
		t.Fatal("reused queues are not empty")
	}
}

// diffSubflows names the fields of x and y that differ, scratch fields
// aside. It compares like reflect.DeepEqual, with two exceptions that a
// subflow needs: funcs are equal when they are the same function, and a
// pointer back to x's own subflow matches one back to y's.
func diffSubflows(x, y *Subflow) []string {
	self := [2]uintptr{reflect.ValueOf(x).Pointer(), reflect.ValueOf(y).Pointer()}
	vx, vy := reflect.ValueOf(x).Elem(), reflect.ValueOf(y).Elem()
	var diff []string
	for i := 0; i < vx.NumField(); i++ {
		name := vx.Type().Field(i).Name
		if !scratchFields[name] && !sameValue(vx.Field(i), vy.Field(i), self, 0) {
			diff = append(diff, name)
		}
	}
	return diff
}

func sameValue(x, y reflect.Value, self [2]uintptr, depth int) bool {
	if depth > 16 {
		return true
	}
	switch x.Kind() {
	case reflect.Func:
		return x.IsNil() == y.IsNil() && x.Pointer() == y.Pointer()
	case reflect.Pointer:
		if x.IsNil() || y.IsNil() {
			return x.IsNil() == y.IsNil()
		}
		px, py := x.Pointer(), y.Pointer()
		if px == py || px == self[0] && py == self[1] {
			return true
		}
		return sameValue(x.Elem(), y.Elem(), self, depth+1)
	case reflect.Interface:
		if x.IsNil() || y.IsNil() {
			return x.IsNil() == y.IsNil()
		}
		return x.Elem().Type() == y.Elem().Type() && sameValue(x.Elem(), y.Elem(), self, depth+1)
	case reflect.Struct:
		for i := 0; i < x.NumField(); i++ {
			if !sameValue(x.Field(i), y.Field(i), self, depth+1) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if x.IsNil() != y.IsNil() || x.Len() != y.Len() {
			return false
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < x.Len(); i++ {
			if !sameValue(x.Index(i), y.Index(i), self, depth+1) {
				return false
			}
		}
		return true
	case reflect.Bool:
		return x.Bool() == y.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return x.Int() == y.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return x.Uint() == y.Uint()
	case reflect.Float32, reflect.Float64:
		return x.Float() == y.Float()
	case reflect.String:
		return x.String() == y.String()
	}
	panic("diffSubflows: no rule for " + x.Type().String())
}
