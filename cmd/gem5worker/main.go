// Command gem5worker is the Celery-worker analogue: it connects to a
// gem5art broker, executes the simulation jobs it is handed, and reports
// structured results back. Several workers — on several machines — may
// serve the same broker.
//
// Usage:
//
//	gem5worker -broker 127.0.0.1:7733 -capacity 4
//	gem5worker -broker 127.0.0.1:7733 -worker-id rack3-w1 -reconnect
//
// Every worker owns a session under a stable ID (-worker-id, or one
// generated at start). With -reconnect the worker survives broker
// restarts and network partitions: the connection is re-dialed with
// exponential backoff, in-flight jobs are resumed through the session
// protocol, and finished-but-unacknowledged results are resent (the
// broker deduplicates them).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"time"

	"gem5art/internal/core/run"
	"gem5art/internal/core/tasks"
	"gem5art/internal/core/tasks/shard"
	"gem5art/internal/statusd"
	"gem5art/internal/version"
)

func main() {
	broker := flag.String("broker", "127.0.0.1:7733", "broker address")
	capacity := flag.Int("capacity", runtime.NumCPU(), "parallel jobs")
	heartbeat := flag.Duration("heartbeat", 500*time.Millisecond,
		"interval between liveness heartbeats (negative disables)")
	metricsAddr := flag.String("metrics-addr", "",
		"serve /metrics and /healthz on this address (e.g. 127.0.0.1:7789)")
	workerID := flag.String("worker-id", "",
		"stable session identity for resume and duplicate suppression (default: generated)")
	reconnect := flag.Bool("reconnect", false,
		"re-dial the broker with backoff after a connection loss instead of exiting")
	resolve := flag.String("resolve", "",
		"status daemon base URL (e.g. http://127.0.0.1:7788) to resolve a sharded broker map from; starts one worker session per shard and re-resolves the shard's primary on every (re)connect")
	showVersion := flag.Bool("version", false, "print build version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println("gem5worker", version.String())
		return
	}

	id := *workerID
	if id == "" {
		id = tasks.NewWorkerID()
	}

	if *metricsAddr != "" {
		bound, _, err := statusd.ListenAndServe(*metricsAddr, statusd.New(nil))
		if err != nil {
			fmt.Fprintln(os.Stderr, "gem5worker:", err)
			os.Exit(1)
		}
		fmt.Printf("gem5worker: metrics on http://%s\n", bound)
	}

	handlers := map[string]tasks.JobHandler{
		"boot":     run.ExecuteBootJob,
		"gpu":      run.ExecuteGPUJob,
		"hackback": run.ExecuteHackbackJob,
	}

	if *resolve != "" {
		if err := serveSharded(*resolve, id, *capacity, *heartbeat, handlers); err != nil {
			fmt.Fprintln(os.Stderr, "gem5worker:", err)
			os.Exit(1)
		}
		return
	}

	w, err := tasks.NewWorkerWithOptions(*broker, tasks.WorkerOptions{
		Capacity:          *capacity,
		Handlers:          handlers,
		HeartbeatInterval: *heartbeat,
		ID:                id,
		Reconnect:         *reconnect,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "gem5worker:", err)
		os.Exit(1)
	}
	fmt.Printf("gem5worker: connected to %s with capacity %d as %s\n", *broker, *capacity, id)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	select {
	case <-sig:
		w.Close()
	case <-w.Done():
		// Without -reconnect a lost broker ends the worker; with it, Done
		// only fires after Close or when the reconnect budget is spent.
		fmt.Fprintln(os.Stderr, "gem5worker: broker session ended")
		os.Exit(1)
	}
}

// shardMapClient bounds shard-map resolution: fetchShardMap runs inside
// each session's reconnect Dial hook, so a hung status daemon must fail
// the dial (and let backoff retry) rather than wedge the shard's
// reconnect loop forever.
var shardMapClient = &http.Client{Timeout: 5 * time.Second}

// fetchShardMap pulls the epoch-numbered routing map from a status
// daemon fronting a sharded fleet.
func fetchShardMap(base string) (shard.Map, error) {
	var m shard.Map
	resp, err := shardMapClient.Get(base + "/api/shards")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("resolve %s/api/shards: status %d", base, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return m, err
	}
	if len(m.Shards) == 0 {
		return m, fmt.Errorf("resolve %s/api/shards: empty shard map", base)
	}
	return m, nil
}

// serveSharded runs one worker session per shard of a sharded broker
// fleet. Every dial — initial or a reconnect after the shard's primary
// died — re-fetches the shard map and connects to the shard's *current*
// primary, so failovers route workers to the promoted broker without
// any operator action. Sessions always reconnect in this mode: losing a
// connection is the expected signal that a failover is underway.
func serveSharded(base, id string, capacity int, heartbeat time.Duration, handlers map[string]tasks.JobHandler) error {
	m, err := fetchShardMap(base)
	if err != nil {
		return err
	}
	fmt.Printf("gem5worker: resolved %d shards (epoch %d) from %s\n", len(m.Shards), m.Epoch, base)

	workers := make([]*tasks.Worker, 0, len(m.Shards))
	for _, info := range m.Shards {
		idx := info.Index
		w, err := tasks.NewWorkerWithOptions(info.Addr, tasks.WorkerOptions{
			Capacity:          capacity,
			Handlers:          handlers,
			HeartbeatInterval: heartbeat,
			ID:                fmt.Sprintf("%s-s%d", id, idx),
			Reconnect:         true,
			Dial: func(string) (net.Conn, error) {
				cur, err := fetchShardMap(base)
				if err != nil {
					return nil, err
				}
				for _, s := range cur.Shards {
					if s.Index == idx {
						return net.Dial("tcp", s.Addr)
					}
				}
				return nil, fmt.Errorf("shard %d missing from map epoch %d", idx, cur.Epoch)
			},
		})
		if err != nil {
			for _, prev := range workers {
				prev.Close()
			}
			return err
		}
		workers = append(workers, w)
		fmt.Printf("gem5worker: session %s-s%d serving shard %d at %s\n", id, idx, idx, info.Addr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	ended := make(chan int, len(workers))
	for i, w := range workers {
		i, w := i, w
		go func() {
			<-w.Done()
			ended <- i
		}()
	}
	alive := len(workers)
	for {
		select {
		case <-sig:
			for _, w := range workers {
				w.Close()
			}
			return nil
		case i := <-ended:
			// With Reconnect set, Done fires only once the reconnect
			// budget is spent — the shard is genuinely gone.
			fmt.Fprintf(os.Stderr, "gem5worker: shard %d session ended\n", i)
			alive--
			if alive == 0 {
				return fmt.Errorf("all shard sessions ended")
			}
		}
	}
}
