package faultinject

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// NetChaos is the network-level counterpart of Injector: a seeded,
// deterministic fault-injection proxy for net.Conn traffic. Wrapped
// connections count their writes; armed NetRules fire on exact write
// ordinals (optionally thinned by a seeded per-connection probability),
// so a given seed and rule set produces the same faults on the same
// connection every run. The broker and worker thread their listeners
// and dialers through a NetChaos in chaos tests, which then exercise:
//
//   - NetDrop: the frame is delivered, then the connection dies — the
//     sender cannot tell whether the peer processed it (the classic
//     duplicate-result window);
//   - NetTruncate: the connection dies mid-frame, leaving the peer a
//     torn line (protocol-error handling);
//   - NetDuplicate: the frame arrives twice (idempotency);
//   - NetDelay: the write stalls (slow links, heartbeat pressure).
//
// Partition/Heal additionally model a network partition: every live
// connection is cut and new dials fail until the partition heals.
type NetChaos struct {
	mu          sync.Mutex
	seed        int64
	rules       []NetRule
	conns       map[*ChaosConn]struct{}
	ordinal     int
	partitioned bool
	events      []NetEvent
}

// NetKind enumerates the injectable network fault modes.
type NetKind string

// Network fault kinds.
const (
	NetDrop      NetKind = "drop"      // write delivered, then the connection is closed
	NetTruncate  NetKind = "truncate"  // half the frame written, then the connection is closed
	NetDuplicate NetKind = "duplicate" // frame written twice
	NetDelay     NetKind = "delay"     // write stalls for Delay first
)

// NetRule arms one fault against every wrapped connection. Write
// ordinals are counted per connection, so the schedule is deterministic
// for each connection regardless of how goroutines interleave across
// connections.
type NetRule struct {
	Kind       NetKind
	After      int           // skip the first After writes of each connection
	Every      int           // then fire on every Every-th write; 0 fires once, at write After+1
	Count      int           // max firings per connection (0 = once for Every==0, unlimited otherwise)
	FirstConns int           // arm only on the first N wrapped connections (0 = all)
	P          float64       // optional per-write probability, drawn from a per-connection seeded RNG
	Delay      time.Duration // NetDelay stall (default 5ms)
}

// NetEvent records one fired network fault, for test assertions.
type NetEvent struct {
	Conn  int // connection ordinal, in wrap order
	Write int // which write on that connection fired (1-based)
	Kind  NetKind
}

// NewNetChaos builds a chaos proxy. The seed drives probabilistic
// rules; counter-based rules are deterministic regardless of seed.
func NewNetChaos(seed int64, rules ...NetRule) *NetChaos {
	return &NetChaos{seed: seed, rules: rules, conns: map[*ChaosConn]struct{}{}}
}

// Wrap interposes the chaos proxy on an established connection. While
// partitioned, the connection is cut immediately.
func (c *NetChaos) Wrap(conn net.Conn) net.Conn {
	c.mu.Lock()
	cc := &ChaosConn{
		Conn:  conn,
		chaos: c,
		id:    c.ordinal,
		rng:   rand.New(rand.NewSource(c.seed ^ (int64(c.ordinal)+1)*0x5851f42d4c957f2d)),
		fired: make([]int, len(c.rules)),
	}
	c.ordinal++
	cut := c.partitioned
	if !cut {
		c.conns[cc] = struct{}{}
	}
	c.mu.Unlock()
	if cut {
		_ = conn.Close()
	}
	return cc
}

// Dial opens a connection through the chaos proxy. It fails while a
// partition is in effect — the machine is unreachable.
func (c *NetChaos) Dial(network, addr string) (net.Conn, error) {
	c.mu.Lock()
	cut := c.partitioned
	c.mu.Unlock()
	if cut {
		return nil, fmt.Errorf("faultinject: netchaos: partitioned, cannot dial %s", addr)
	}
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return c.Wrap(conn), nil
}

// Dialer adapts Dial to the single-argument signature
// tasks.WorkerOptions.Dial expects.
func (c *NetChaos) Dialer() func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) { return c.Dial("tcp", addr) }
}

// Listener wraps ln so every accepted connection passes through the
// chaos proxy.
func (c *NetChaos) Listener(ln net.Listener) net.Listener {
	return &chaosListener{ln: ln, chaos: c}
}

type chaosListener struct {
	ln    net.Listener
	chaos *NetChaos
}

func (l *chaosListener) Accept() (net.Conn, error) {
	conn, err := l.ln.Accept()
	if err != nil {
		return nil, err
	}
	return l.chaos.Wrap(conn), nil
}

func (l *chaosListener) Close() error   { return l.ln.Close() }
func (l *chaosListener) Addr() net.Addr { return l.ln.Addr() }

// Partition cuts every live wrapped connection and makes new dials fail
// until Heal. It returns how many connections were cut.
func (c *NetChaos) Partition() int {
	c.mu.Lock()
	c.partitioned = true
	cut := c.takeConns()
	c.mu.Unlock()
	for _, cc := range cut {
		_ = cc.Conn.Close()
	}
	return len(cut)
}

// Heal ends a partition: new dials succeed again.
func (c *NetChaos) Heal() {
	c.mu.Lock()
	c.partitioned = false
	c.mu.Unlock()
}

// Flap closes every live wrapped connection once without blocking new
// dials — a transient connection loss both sides may recover from.
func (c *NetChaos) Flap() int {
	c.mu.Lock()
	cut := c.takeConns()
	c.mu.Unlock()
	for _, cc := range cut {
		_ = cc.Conn.Close()
	}
	return len(cut)
}

// takeConns removes and returns all live connections; the caller closes
// them outside the lock.
func (c *NetChaos) takeConns() []*ChaosConn {
	out := make([]*ChaosConn, 0, len(c.conns))
	for cc := range c.conns {
		out = append(out, cc)
	}
	c.conns = map[*ChaosConn]struct{}{}
	return out
}

// Events returns the network faults fired so far, in firing order.
func (c *NetChaos) Events() []NetEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]NetEvent(nil), c.events...)
}

// Fired reports how many faults of the given kind have fired.
func (c *NetChaos) Fired(kind NetKind) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, ev := range c.events {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

func (c *NetChaos) record(ev NetEvent) {
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

func (c *NetChaos) forget(cc *ChaosConn) {
	c.mu.Lock()
	delete(c.conns, cc)
	c.mu.Unlock()
}

// ChaosConn is a net.Conn that injects the proxy's armed faults on its
// write path. Reads pass through until a fault kills the connection.
type ChaosConn struct {
	net.Conn
	chaos  *NetChaos
	id     int
	rng    *rand.Rand
	mu     sync.Mutex
	writes int
	fired  []int
	killed atomic.Bool // a NetDrop or NetTruncate closed the connection
}

// Read fails once a fault has killed the connection, even for bytes
// already received: on loopback the peer's reply to the fatal frame can
// arrive before the close does, and reading it would undo the fault.
func (cc *ChaosConn) Read(p []byte) (int, error) {
	n, err := cc.Conn.Read(p)
	if cc.killed.Load() {
		return 0, net.ErrClosed
	}
	return n, err
}

// Write counts the frame, consults the armed rules, and applies at most
// one fault. Newline-delimited JSON encoders issue exactly one Write
// per frame, so write ordinals correspond to protocol messages.
func (cc *ChaosConn) Write(p []byte) (int, error) {
	cc.mu.Lock()
	cc.writes++
	n := cc.writes
	var rule *NetRule
	for i := range cc.chaos.rules {
		r := &cc.chaos.rules[i]
		if r.FirstConns > 0 && cc.id >= r.FirstConns {
			continue
		}
		if n <= r.After {
			continue
		}
		if r.Every > 0 {
			if (n-r.After)%r.Every != 0 {
				continue
			}
		} else if n != r.After+1 {
			continue
		}
		limit := r.Count
		if limit == 0 && r.Every == 0 {
			limit = 1
		}
		if limit > 0 && cc.fired[i] >= limit {
			continue
		}
		if r.P > 0 && cc.rng.Float64() >= r.P {
			continue
		}
		cc.fired[i]++
		rule = r
		break
	}
	cc.mu.Unlock()
	if rule == nil {
		return cc.Conn.Write(p)
	}
	cc.chaos.record(NetEvent{Conn: cc.id, Write: n, Kind: rule.Kind})
	switch rule.Kind {
	case NetDelay:
		delay := rule.Delay
		if delay <= 0 {
			delay = 5 * time.Millisecond
		}
		time.Sleep(delay)
		return cc.Conn.Write(p)
	case NetDuplicate:
		if wn, err := cc.Conn.Write(p); err != nil {
			return wn, err
		}
		_, _ = cc.Conn.Write(p)
		return len(p), nil
	case NetDrop:
		// Deliver the frame, then kill the connection: the sender sees
		// success and cannot know whether the peer acted on it.
		cc.killed.Store(true)
		wn, err := cc.Conn.Write(p)
		_ = cc.Conn.Close()
		cc.chaos.forget(cc)
		return wn, err
	case NetTruncate:
		cc.killed.Store(true)
		wn, _ := cc.Conn.Write(p[:len(p)/2])
		_ = cc.Conn.Close()
		cc.chaos.forget(cc)
		return wn, fmt.Errorf("faultinject: netchaos: frame truncated after %d/%d bytes", wn, len(p))
	}
	return cc.Conn.Write(p)
}

// Close closes the underlying connection and drops it from the proxy's
// live set.
func (cc *ChaosConn) Close() error {
	cc.chaos.forget(cc)
	return cc.Conn.Close()
}
