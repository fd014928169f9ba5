// Command smappd demonstrates the paper's architecture across a real
// process boundary: it runs the simulated Multipath TCP "kernel" (a
// two-path topology with a bulk transfer, paced against the wall clock)
// and exposes the Netlink path manager on a Unix socket. A subflow
// controller — cmd/smappctl — connects from another process and manages
// the subflows with exactly the messages internal/nlmsg defines.
//
// Usage:
//
//	smappd -sock /tmp/smapp.sock -run 15s
//
// then, in another terminal:
//
//	smappctl -sock /tmp/smapp.sock
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"time"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/mptcp"
	"repro/internal/netem"
	"repro/internal/nlmsg"
	"repro/internal/sim"
	"repro/internal/smapp"
	"repro/internal/topo"
)

// chanPipe is the command-ingress half of the transport: the socket reader
// goroutine deposits messages, the simulation loop drains them, so all
// protocol work stays on the single simulation thread.
type chanPipe struct {
	ch   chan []byte
	recv func([]byte)
	err  error // why the socket closed; set before ch is closed
}

func (p *chanPipe) Send(b []byte)               { p.ch <- b }
func (p *chanPipe) SetReceiver(fn func([]byte)) { p.recv = fn }

// ingest pumps command frames from the controller's socket into the
// channel until the socket closes, then records why and closes the
// channel. ReadMessages recycles each frame the moment the callback
// returns, and the simulation loop only gets to the channel at its next
// pacing step, so every frame is copied into a buffer the channel's
// receiver owns.
func (p *chanPipe) ingest(r io.Reader) {
	p.err = core.ReadMessages(r, func(b []byte) { p.ch <- append(nlmsg.Wire.Get(), b...) })
	close(p.ch)
}

// drain executes every queued command on the calling (simulation) thread
// and recycles its frame. It reports false once the controller is gone.
func (p *chanPipe) drain() bool {
	for {
		select {
		case b, ok := <-p.ch:
			if !ok {
				return false
			}
			if p.recv != nil {
				p.recv(b)
			}
			nlmsg.Wire.Put(b)
		default:
			return true
		}
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one smappd command line and returns its exit status: 0
// once the run's time is up or the controller has gone, 1 when a socket
// cannot be opened, 2 on a bad flag. The "done" line goes to stdout.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("smappd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sock := fs.String("sock", "/tmp/smapp.sock", "unix socket to expose the Netlink PM on")
	runFor := fs.Duration("run", 15*time.Second, "how long to run the scenario")
	metricsAddr := fs.String("metrics-addr", "", "serve live metrics/expvar/pprof on this address (e.g. :6060)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	lg := log.New(stderr, "", log.LstdFlags)

	if *metricsAddr != "" {
		addr, err := metrics.Serve(*metricsAddr)
		if err != nil {
			lg.Printf("metrics: %v", err)
			return 1
		}
		lg.Printf("smappd: live metrics on http://%s/metrics (pprof under /debug/pprof/)", addr)
	}

	os.Remove(*sock)
	l, err := net.Listen("unix", *sock)
	if err != nil {
		lg.Printf("listen: %v", err)
		return 1
	}
	defer l.Close()
	lg.Printf("smappd: waiting for a subflow controller on %s", *sock)
	conn, err := l.Accept()
	if err != nil {
		lg.Printf("accept: %v", err)
		return 1
	}
	lg.Printf("smappd: controller attached; starting the emulated world")

	// The world: two 10 Mbps paths; a bulk transfer starts at t=1s; the
	// first path degrades badly at t=4s. Whether anything survives is the
	// controller's problem — exactly the paper's division of labour.
	world := sim.New(time.Now().UnixNano())
	p := netem.LinkConfig{RateBps: 10e6, Delay: 10 * time.Millisecond}
	n := topo.NewTwoPath(world, p, p)

	inject := &chanPipe{ch: make(chan []byte, 128)}
	tr := &core.Transport{
		ToUser:   core.NewSocketPipe(conn),
		ToKernel: inject,
	}
	// The kernel half of the facade: Netlink PM + endpoint. The library —
	// and every policy decision — lives in the controller process.
	k := smapp.NewKernel(n.Client, tr, mptcp.Config{})
	sep := mptcp.NewEndpoint(n.Server, mptcp.Config{}, nil)
	sink := app.NewSink(world, 1<<40, nil)
	sep.Listen(80, func(c *mptcp.Connection) { c.SetCallbacks(sink.Callbacks()) })

	world.Schedule(sim.Second, "start-transfer", func() {
		src := app.NewSource(world, 512<<20, false)
		if _, err := k.Dial(n.ClientAddrs[0], n.ServerAddr, 80, "", smapp.ControllerConfig{}, src.Callbacks()); err != nil {
			panic(fmt.Sprintf("smappd: connect: %v", err)) // the canned world always has the route and the port
		}
		lg.Printf("smappd: transfer started on %s", n.ClientAddrs[0])
	})
	world.Schedule(4*sim.Second, "degrade", func() {
		n.Path[0].AB.SetLoss(0.5)
		lg.Printf("smappd: path0 degraded to 50%% loss — over to the controller")
	})

	// Socket reader: commands go through the channel into the sim thread.
	// When the run ends, the controller's connection is closed and the
	// reader drained to its end, so nothing outlives run.
	go inject.ingest(conn)
	defer func() {
		conn.Close()
		for b := range inject.ch {
			nlmsg.Wire.Put(b)
		}
	}()

	// Real-time pacing loop: drain pending commands, advance virtual time
	// one step, sleep the same step of wall time. The live endpoint gets a
	// fresh harvest of the Netlink counters once per virtual second.
	const step = 5 * time.Millisecond
	deadline := sim.Time(*runFor)
	for world.Now() < deadline {
		if !inject.drain() {
			lg.Printf("smappd: controller disconnected (%v)", inject.err)
			lg.Printf("smappd: shutting down")
			return 0
		}
		if *metricsAddr != "" && world.Now()%sim.Second == 0 {
			reg := metrics.New(1)
			k.PM.HarvestInto(reg, 0)
			metrics.SetLive(reg)
		}
		world.RunFor(step)
		time.Sleep(step)
	}
	fmt.Fprintf(stdout, "smappd: done; receiver got %.2f MB in %v of virtual time\n",
		float64(sink.Received)/1e6, *runFor)
	return 0
}
