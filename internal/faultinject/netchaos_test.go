package faultinject

import (
	"bufio"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// pipeServer accepts connections on an ephemeral listener and returns
// every line it reads, interleaved across connections.
func pipeServer(t *testing.T) (addr string, lines func() []string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	var mu sync.Mutex
	var got []string
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				sc := bufio.NewScanner(conn)
				for sc.Scan() {
					mu.Lock()
					got = append(got, sc.Text())
					mu.Unlock()
				}
				_ = conn.Close()
			}()
		}
	}()
	return ln.Addr().String(), func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), got...)
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestNetChaosDuplicateAndDrop(t *testing.T) {
	addr, lines := pipeServer(t)
	chaos := NewNetChaos(1,
		NetRule{Kind: NetDuplicate, After: 1}, // second write arrives twice
		NetRule{Kind: NetDrop, After: 3},      // fourth write delivered, then cut
	)
	conn, err := chaos.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range []string{"a", "b", "c", "d"} {
		if _, err := conn.Write([]byte(msg + "\n")); err != nil {
			t.Fatalf("write %q: %v", msg, err)
		}
	}
	// The connection died after "d": the next write must fail.
	if _, err := conn.Write([]byte("e\n")); err == nil {
		t.Fatal("write after NetDrop succeeded")
	}
	waitFor(t, func() bool { return len(lines()) >= 5 }, "duplicated+delivered lines")
	if got := strings.Join(lines(), ","); got != "a,b,b,c,d" {
		t.Fatalf("received %q, want a,b,b,c,d", got)
	}
	if chaos.Fired(NetDuplicate) != 1 || chaos.Fired(NetDrop) != 1 {
		t.Fatalf("events: %+v", chaos.Events())
	}
}

func TestNetChaosTruncateTearsFrame(t *testing.T) {
	addr, lines := pipeServer(t)
	chaos := NewNetChaos(1, NetRule{Kind: NetTruncate, After: 1})
	conn, err := chaos.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("intact\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte(`{"type":"result","id":"j1"}` + "\n")); err == nil {
		t.Fatal("truncated write reported success")
	}
	waitFor(t, func() bool { return len(lines()) >= 1 }, "first line")
	// Give the torn bytes time to land; the peer must never see a full
	// second frame.
	time.Sleep(20 * time.Millisecond)
	got := lines()
	if got[0] != "intact" {
		t.Fatalf("first line = %q", got[0])
	}
	for _, l := range got[1:] {
		if strings.Contains(l, `"j1"}`) {
			t.Fatalf("torn frame arrived whole: %q", l)
		}
	}
}

func TestNetChaosDeterministicSchedule(t *testing.T) {
	run := func() []NetEvent {
		addr, _ := pipeServer(t)
		chaos := NewNetChaos(42,
			NetRule{Kind: NetDuplicate, After: 2, Every: 3, Count: 2},
			NetRule{Kind: NetDelay, After: 0, Every: 4, Delay: time.Microsecond})
		conn, err := chaos.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		for i := 0; i < 12; i++ {
			if _, err := conn.Write([]byte("x\n")); err != nil {
				t.Fatal(err)
			}
		}
		return chaos.Events()
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("schedules differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestNetChaosPartitionAndHeal(t *testing.T) {
	addr, _ := pipeServer(t)
	chaos := NewNetChaos(7)
	conn, err := chaos.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if n := chaos.Partition(); n != 1 {
		t.Fatalf("partition cut %d conns, want 1", n)
	}
	if _, err := conn.Write([]byte("x\n")); err == nil {
		t.Fatal("write across partition succeeded")
	}
	if _, err := chaos.Dial("tcp", addr); err == nil {
		t.Fatal("dial across partition succeeded")
	}
	chaos.Heal()
	conn2, err := chaos.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	if _, err := conn2.Write([]byte("back\n")); err != nil {
		t.Fatalf("write after heal: %v", err)
	}
	chaos.mu.Lock()
	active := len(chaos.conns)
	chaos.mu.Unlock()
	if active != 1 {
		t.Fatalf("active conns = %d, want 1", active)
	}
}

func TestNetChaosListenerWrapsAccepted(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	chaos := NewNetChaos(3, NetRule{Kind: NetDrop, After: 0})
	cln := chaos.Listener(ln)
	defer cln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := cln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	client, err := net.Dial("tcp", cln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	srv := <-accepted
	// First server-side write is delivered then drops the connection.
	if _, err := srv.Write([]byte("hello\n")); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(client)
	if !sc.Scan() || sc.Text() != "hello" {
		t.Fatalf("client read %q", sc.Text())
	}
	if sc.Scan() {
		t.Fatal("connection survived NetDrop")
	}
	if _, err := srv.Write([]byte("again\n")); err == nil {
		t.Fatal("server write after drop succeeded")
	}
}
