// Command gem5artd serves the gem5art status/metrics daemon standalone:
// Prometheus metrics at /metrics, run status from an experiment database
// at /api/runs, and a live SSE stream of run-lifecycle events at
// /api/events. Point it at the same -db directory a sweep writes to.
//
// With -shards it instead runs as an aggregating front tier over other
// statusd instances (one per shard broker): /api/runs and /api/broker
// fan out across the backends and degrade — with the failures named in
// the response — when one is unreachable.
//
// With -gateway it becomes a multi-tenant experiment service: it hosts
// a broker (or, with -fleet N, a sharded fleet) for gem5worker
// processes, and serves the authenticated submit API under /api/launches
// with per-tenant namespaces, quotas, and rate limits. Tenants come
// from the -tenants JSON file and/or GEM5ART_GATEWAY_TOKEN_<ID>
// environment variables; SIGHUP re-reads the file without dropping
// sessions, and SIGTERM/SIGINT drain gracefully within -drain.
//
// Usage:
//
//	gem5artd [-addr HOST:PORT] [-db DIR]
//	gem5artd [-addr HOST:PORT] -shards http://h1:7788,http://h2:7788
//	gem5artd [-addr HOST:PORT] -gateway -tenants tenants.json [-fleet 3] -db DIR
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"gem5art/internal/core/tasks"
	"gem5art/internal/core/tasks/shard"
	"gem5art/internal/database"
	"gem5art/internal/gateway"
	"gem5art/internal/statusd"
	"gem5art/internal/version"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7788", "HTTP listen address (use :0 for a random port)")
	dbDir := flag.String("db", "", "experiment database directory (default: in-memory, empty)")
	shardURLs := flag.String("shards", "",
		"comma-separated statusd base URLs to aggregate over as a front tier (disables -db)")
	gatewayMode := flag.Bool("gateway", false,
		"serve the authenticated multi-tenant submit API and host a broker/fleet")
	tenantsPath := flag.String("tenants", "",
		"tenant/quota JSON config for -gateway (env GEM5ART_GATEWAY_TOKEN_<ID> overlays it)")
	quotaFlag := flag.String("quota", "",
		"default tenant quota for -gateway, e.g. in-flight=8,queued=32,weight=1")
	rateFlag := flag.String("rate", "",
		"default tenant edge rate for -gateway, e.g. rps=20,burst=40")
	fleetN := flag.Int("fleet", 1, "shard count for the hosted control plane in -gateway mode")
	listen := flag.String("listen", "127.0.0.1:0", "broker listen address in unsharded -gateway mode")
	scrub := flag.Duration("scrub", 0,
		"background integrity-scrub interval for the -db store (0 disables; reports at /api/scrub)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline")
	showVersion := flag.Bool("version", false, "print build version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println("gem5artd", version.String())
		return
	}

	if err := run(*addr, *dbDir, *shardURLs, *gatewayMode, *tenantsPath,
		*quotaFlag, *rateFlag, *fleetN, *listen, *scrub, *drain); err != nil {
		fmt.Fprintln(os.Stderr, "gem5artd:", err)
		os.Exit(1)
	}
}

func run(addr, dbDir, shardURLs string, gatewayMode bool, tenantsPath,
	quotaFlag, rateFlag string, fleetN int, listen string, scrub, drain time.Duration) error {
	if gatewayMode {
		return runGateway(addr, dbDir, tenantsPath, quotaFlag, rateFlag, fleetN, listen, scrub, drain)
	}

	var s *statusd.Server
	if shardURLs != "" {
		s = statusd.New(nil)
		for _, u := range strings.Split(shardURLs, ",") {
			if u = strings.TrimSpace(strings.TrimSuffix(u, "/")); u != "" {
				s.ShardURLs = append(s.ShardURLs, u)
			}
		}
		if len(s.ShardURLs) == 0 {
			return fmt.Errorf("-shards given but no URLs parsed")
		}
	} else {
		db, err := database.Open(dbDir)
		if err != nil {
			return err
		}
		defer db.Close()
		s = statusd.New(db)
		if sc := startScrubber(db, scrub); sc != nil {
			defer sc.Close()
			s.Scrubber = sc
		}
	}

	d, err := statusd.StartDaemon(addr, s, nil)
	if err != nil {
		return err
	}
	if len(s.ShardURLs) > 0 {
		fmt.Printf("gem5artd front tier on http://%s aggregating %d shard daemons\n", d.Addr, len(s.ShardURLs))
	} else {
		fmt.Printf("gem5artd listening on http://%s (metrics: /metrics, runs: /api/runs, events: /api/events)\n", d.Addr)
	}
	return waitAndDrain(d, nil, drain)
}

// startScrubber launches the background integrity scrubber when an
// interval was asked for and the store is a real on-disk database.
func startScrubber(db database.Store, interval time.Duration) *database.Scrubber {
	if interval <= 0 {
		return nil
	}
	real, ok := db.(*database.DB)
	if !ok {
		return nil
	}
	return database.StartScrubber(real, interval)
}

// runGateway hosts the multi-tenant service: broker or fleet, statusd
// routes, and the authenticated gateway API on one address.
func runGateway(addr, dbDir, tenantsPath, quotaFlag, rateFlag string,
	fleetN int, listen string, scrub, drain time.Duration) error {
	cfg, err := loadGatewayConfig(tenantsPath, quotaFlag, rateFlag)
	if err != nil {
		return err
	}
	if len(cfg.Tenants) == 0 {
		return fmt.Errorf("-gateway needs at least one tenant (-tenants file or GEM5ART_GATEWAY_TOKEN_<ID> env)")
	}

	db, err := database.Open(dbDir)
	if err != nil {
		return err
	}
	defer db.Close()

	// The hosted executor: one TCP broker, or a sharded fleet with
	// journal-replicated standbys when -fleet asks for it.
	var ex tasks.Executor
	if fleetN > 1 {
		if dbDir == "" {
			return fmt.Errorf("-fleet %d requires -db: shard queues and their replicas are durable stores", fleetN)
		}
		ex, err = shard.NewFleet(shard.Options{Shards: fleetN, Dir: filepath.Join(dbDir, "shards")})
	} else {
		var bopts tasks.BrokerOptions
		if dbDir != "" {
			bopts.DB = db
		}
		ex, err = tasks.NewBrokerWithOptions(listen, bopts)
	}
	if err != nil {
		return err
	}

	s := statusd.New(db)
	s.Broker, _ = ex.(*tasks.Broker)
	s.Fleet, _ = ex.(*shard.Fleet)
	if sc := startScrubber(db, scrub); sc != nil {
		defer sc.Close()
		s.Scrubber = sc
	}
	g := gateway.New(cfg, nil, ex, db, s.Handler())

	d, err := statusd.StartDaemon(addr, s, g.Handler())
	if err != nil {
		ex.Close()
		return err
	}

	fmt.Printf("gem5artd gateway on http://%s (%d tenants; submit: /api/launches)\n",
		d.Addr, len(cfg.Tenants))
	switch ex := ex.(type) {
	case *shard.Fleet:
		m := ex.Map()
		for _, info := range m.Shards {
			fmt.Printf("shard %d primary on %s\n", info.Index, info.Addr)
		}
		fmt.Printf("sharded fleet up (epoch %d); start gem5worker -resolve http://%s\n", m.Epoch, d.Addr)
	case *tasks.Broker:
		fmt.Printf("broker listening on %s; start gem5worker -broker %s\n", ex.Addr(), ex.Addr())
	}

	// SIGHUP reloads the tenant file in place: new snapshot for auth and
	// quotas, live sessions and parked queues untouched.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			ncfg, err := loadGatewayConfig(tenantsPath, quotaFlag, rateFlag)
			if err != nil {
				fmt.Fprintln(os.Stderr, "gem5artd: reload skipped:", err)
				continue
			}
			g.Reload(ncfg)
			fmt.Printf("gem5artd: tenant config reloaded (%d tenants)\n", len(ncfg.Tenants))
		}
	}()

	closeExecutor := func() {
		ex.Close()
		g.Wait() // the result pump drains once the executor's channel closes
	}
	return waitAndDrain(d, closeExecutor, drain)
}

// loadGatewayConfig reads the tenant file (plus env overlay) and applies
// the CLI's default-quota/rate overrides.
func loadGatewayConfig(path, quotaFlag, rateFlag string) (*gateway.Config, error) {
	cfg, err := gateway.LoadConfig(path)
	if err != nil {
		return nil, err
	}
	if quotaFlag != "" {
		q, err := gateway.ParseQuota(quotaFlag)
		if err != nil {
			return nil, err
		}
		cfg.DefaultQuota = q
	}
	if rateFlag != "" {
		r, err := gateway.ParseRate(rateFlag)
		if err != nil {
			return nil, err
		}
		cfg.DefaultRate = r
	}
	return cfg, nil
}

// waitAndDrain blocks until the serve loop fails or a termination
// signal arrives, then shuts down gracefully: stop accepting, release
// SSE streams, drain in-flight HTTP within the deadline, and finally
// close the hosted control plane.
func waitAndDrain(d *statusd.Daemon, closeExecutor func(), drain time.Duration) error {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-d.Err():
		if closeExecutor != nil {
			closeExecutor()
		}
		return err
	case got := <-sig:
		fmt.Printf("gem5artd: %s, draining (deadline %s)\n", got, drain)
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		err := d.Shutdown(ctx)
		if closeExecutor != nil {
			closeExecutor()
		}
		if err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		fmt.Println("gem5artd: drained cleanly")
		return nil
	}
}
