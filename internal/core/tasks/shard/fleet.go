package shard

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gem5art/internal/core/tasks"
	"gem5art/internal/database"
)

// QueueCollection is the durable-queue collection each shard broker
// journals into — the collection the shipper replicates.
const QueueCollection = "broker_queue"

// Options configures a Fleet.
type Options struct {
	// Shards is the number of shard brokers (default 1).
	Shards int
	// Dir is the root directory for per-shard durable stores; required.
	// Layout: <dir>/shard-<i>/store-gen<N>.
	Dir string
	// VNodes is the ring's virtual-node count (default DefaultVNodes).
	VNodes int
	// Broker is the per-shard broker template (heartbeat, lease, retry).
	// Its DB, QueueCollection, and Listener fields are overwritten by the
	// fleet.
	Broker tasks.BrokerOptions
	// LeaseTTL is the primary lease: a shard whose primary has not
	// renewed for this long gets its standby promoted (default 250ms —
	// tuned for in-process fleets; a networked deployment wants seconds).
	LeaseTTL time.Duration
	// ShipInterval is the journal-shipping cadence (default 25ms).
	ShipInterval time.Duration
	// SyncOnCommit fsyncs shard journals on every mutation. Off by
	// default: shipping cadence, not fsync, bounds the failover window
	// for in-process fleets, and chaos runs push tens of thousands of
	// journal records.
	SyncOnCommit bool
	// Listener, when non-nil, supplies each shard primary's listener —
	// the hook chaos tests use to interpose faultinject.NetChaos per
	// shard. Called again for the promoted broker on every failover.
	Listener func(shard int) (net.Listener, error)
	// Admission, when non-nil, gates TrySubmit at the fleet edge and is
	// released exactly once per job when its result is delivered.
	// Per-shard brokers never see it: failover resubmission must not
	// re-run admission for jobs the fleet already accepted.
	Admission tasks.Admission
}

// shardState is one shard's mutable control-plane state, guarded by the
// fleet mutex.
type shardState struct {
	index       int
	epoch       uint64
	gen         int // store generation; gen N is primary, gen N+1 standby
	broker      *tasks.Broker
	primaryDB   *database.DB
	standbyDB   *database.DB
	shipper     *Shipper
	shipStop    chan struct{}
	lastBeat    time.Time
	failingOver bool
	// fenced marks a failover that killed the old primary and drained
	// its journal but could not start the replacement broker: the fence
	// steps are done and must not be repeated — shipStop has already
	// been swapped for a fresh unclosed channel — so the monitor's retry
	// (and Close) skip straight to promotion.
	fenced bool
}

// Fleet runs N shard brokers behind a consistent-hash router with
// journal-replicated standbys and lease-based failover. Submit routes
// by job ID; Results delivers each job's result exactly once across the
// whole fleet, regardless of how many primaries died along the way —
// execution is at-least-once (bounded by replication lag), delivery is
// deduplicated at this edge.
type Fleet struct {
	opts    Options
	ring    *Ring
	results chan tasks.JobResult
	stop    chan struct{}
	wg      sync.WaitGroup
	// failMu serializes failovers against each other and against Close,
	// so a promotion never swaps state under a teardown (or vice versa).
	failMu sync.Mutex

	mu          sync.Mutex
	shards      []*shardState
	epoch       uint64
	delivered   map[string]bool
	outstanding map[string]tasks.Job
	closed      bool
}

// NewFleet starts the shard brokers, their standbys, the journal
// shippers, and the failover monitor.
func NewFleet(opts Options) (*Fleet, error) {
	if opts.Shards < 1 {
		opts.Shards = 1
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("shard: fleet requires a store directory")
	}
	if opts.VNodes <= 0 {
		opts.VNodes = DefaultVNodes
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 250 * time.Millisecond
	}
	if opts.ShipInterval <= 0 {
		opts.ShipInterval = 25 * time.Millisecond
	}
	f := &Fleet{
		opts:        opts,
		ring:        NewRing(opts.Shards, opts.VNodes),
		results:     make(chan tasks.JobResult, 1024),
		stop:        make(chan struct{}),
		delivered:   make(map[string]bool),
		outstanding: make(map[string]tasks.Job),
	}
	for i := 0; i < opts.Shards; i++ {
		s := &shardState{index: i, lastBeat: time.Now()}
		primary, err := f.openStore(i, 0)
		if err != nil {
			f.Close()
			return nil, err
		}
		standby, err := f.openStore(i, 1)
		if err != nil {
			primary.Close()
			f.Close()
			return nil, err
		}
		broker, err := f.startBroker(i, primary)
		if err != nil {
			primary.Close()
			standby.Close()
			f.Close()
			return nil, err
		}
		s.gen = 0
		s.primaryDB, s.standbyDB = primary, standby
		s.broker = broker
		s.shipper = NewShipper(i, primary, standby, QueueCollection)
		s.shipStop = make(chan struct{})
		f.shards = append(f.shards, s)
		f.startShardGoroutines(s, broker, s.shipper, s.shipStop)
	}
	shardEpoch.Set(0)
	f.wg.Add(1)
	go f.monitor()
	return f, nil
}

func (f *Fleet) openStore(shard, gen int) (*database.DB, error) {
	dir := filepath.Join(f.opts.Dir, fmt.Sprintf("shard-%d", shard), fmt.Sprintf("store-gen%d", gen))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shard %d: %w", shard, err)
	}
	// Huge CompactAfter keeps shipping offsets stable: compaction resets
	// the journal, forcing the standby through a full snapshot resync.
	store, err := database.OpenWith(dir, database.Options{
		Journal:      true,
		SyncOnCommit: f.opts.SyncOnCommit,
		CompactAfter: 1 << 30,
	})
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", shard, err)
	}
	db, ok := store.(*database.DB)
	if !ok {
		store.Close()
		return nil, fmt.Errorf("shard %d: store engine lacks replication hooks", shard)
	}
	return db, nil
}

func (f *Fleet) startBroker(shard int, db *database.DB) (*tasks.Broker, error) {
	bo := f.opts.Broker
	bo.DB = db
	bo.QueueCollection = QueueCollection
	bo.Listener = nil
	bo.Admission = nil // admission lives at the fleet edge, not per shard
	if f.opts.Listener != nil {
		ln, err := f.opts.Listener(shard)
		if err != nil {
			return nil, fmt.Errorf("shard %d: listener: %w", shard, err)
		}
		bo.Listener = ln
	}
	return tasks.NewBrokerWithOptions("127.0.0.1:0", bo)
}

// startShardGoroutines launches the per-primary result pump, lease
// renewal, and journal shipper for one broker generation.
func (f *Fleet) startShardGoroutines(s *shardState, b *tasks.Broker, sh *Shipper, shipStop chan struct{}) {
	f.wg.Add(3)
	go f.pump(b)
	go f.renewLease(s, b)
	go func() {
		defer f.wg.Done()
		sh.Run(f.opts.ShipInterval, shipStop)
	}()
}

// pump forwards one broker generation's results into the fleet's
// deduplicated channel. A broker that dies closes its channel behind
// whatever is buffered, so the pump drains that and exits; results that
// never reached the channel are recovered through the durable queue on
// promotion.
func (f *Fleet) pump(b *tasks.Broker) {
	defer f.wg.Done()
	for {
		select {
		case res, ok := <-b.Results():
			if !ok {
				return // broker stopped and its buffer is drained
			}
			f.deliverResult(res)
		case <-f.stop:
			return
		}
	}
}

// renewLease advances the shard's lease while its broker generation is
// alive. It exits — and the lease starts expiring — the moment the
// broker's done channel closes, whether by Close or by Kill.
func (f *Fleet) renewLease(s *shardState, b *tasks.Broker) {
	defer f.wg.Done()
	interval := f.opts.LeaseTTL / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-b.Done():
			return
		case <-t.C:
			f.mu.Lock()
			if s.broker == b {
				s.lastBeat = time.Now()
			}
			f.mu.Unlock()
		}
	}
}

// monitor watches shard leases and promotes standbys when they expire.
func (f *Fleet) monitor() {
	defer f.wg.Done()
	interval := f.opts.LeaseTTL / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
		}
		var expired []int
		f.mu.Lock()
		for i, s := range f.shards {
			if !s.failingOver && time.Since(s.lastBeat) > f.opts.LeaseTTL {
				s.failingOver = true
				expired = append(expired, i)
			}
		}
		f.mu.Unlock()
		for _, i := range expired {
			f.failover(i)
		}
	}
}

// failover promotes shard i's standby: fence the deposed primary, drain
// its journal tail into the standby, start a broker over the standby's
// store (recovering pending jobs and recorded results), spin up a fresh
// standby behind it, bump the epochs, and resubmit the fleet's
// outstanding jobs for this shard — completed ones replay their
// recorded results, unfinished ones re-execute.
func (f *Fleet) failover(i int) {
	f.failMu.Lock()
	defer f.failMu.Unlock()
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	s := f.shards[i]
	old := s.broker
	oldShipper := s.shipper
	oldShipStop := s.shipStop
	oldPrimary := s.primaryDB
	promoted := s.standbyDB
	gen := s.gen
	fenced := s.fenced
	f.mu.Unlock()

	if !fenced {
		// Fence: even a primary that is merely wedged (lease expired
		// without crashing) stops serving before the standby takes over,
		// so two brokers never own the shard at once.
		old.Kill()
		close(oldShipStop)
		// Final drain: the deposed primary's store is still readable
		// in-process, so everything it journaled reaches the standby
		// before promotion. Across machines this drain can fail, and the
		// loss bound is the replication lag — see DESIGN.md's
		// failure-semantics matrix.
		_, _ = oldShipper.ShipOnce()
		oldPrimary.Close()
	}

	// abort records a failed promotion attempt: the fence is done (and
	// must never be redone — re-closing shipStop would panic), the lease
	// is reset so the monitor retries on the next expiry instead of
	// looping hot, and shipStop becomes a fresh channel no goroutine
	// listens on, safe for Close to close exactly once.
	abort := func() {
		f.mu.Lock()
		s.fenced = true
		s.shipStop = make(chan struct{})
		s.lastBeat = time.Now()
		s.failingOver = false
		f.mu.Unlock()
	}

	broker, err := f.startBroker(i, promoted)
	if err != nil {
		// Could not bring the shard back (listener hook failed?).
		abort()
		return
	}
	standby, err := f.openStore(i, gen+2)
	if err != nil {
		broker.Kill()
		abort()
		return
	}
	shipper := NewShipper(i, promoted, standby, QueueCollection)
	shipStop := make(chan struct{})

	f.mu.Lock()
	s.gen = gen + 1
	s.broker = broker
	s.primaryDB = promoted
	s.standbyDB = standby
	s.shipper = shipper
	s.shipStop = shipStop
	s.fenced = false
	s.epoch++
	f.epoch++
	s.lastBeat = time.Now()
	s.failingOver = false
	epoch := f.epoch
	var resubmit []tasks.Job
	for id, j := range f.outstanding {
		if f.ring.Owner(id) == i {
			resubmit = append(resubmit, j)
		}
	}
	f.mu.Unlock()

	shardFailovers.Inc()
	shardEpoch.Set(float64(epoch))
	f.startShardGoroutines(s, broker, shipper, shipStop)
	for _, j := range resubmit {
		broker.Submit(j)
	}
}

// deliverResult forwards a result to the fleet channel exactly once,
// releasing the job's admission reservation before the (possibly slow)
// channel send so freed capacity dispatches parked work promptly.
func (f *Fleet) deliverResult(res tasks.JobResult) {
	f.mu.Lock()
	if f.delivered[res.ID] {
		f.mu.Unlock()
		return
	}
	f.delivered[res.ID] = true
	j, tracked := f.outstanding[res.ID]
	delete(f.outstanding, res.ID)
	f.mu.Unlock()
	if tracked && f.opts.Admission != nil {
		f.opts.Admission.Release(j)
	}
	select {
	case f.results <- res:
	case <-f.stop:
	}
}

// Submit routes a job to its owning shard. The job is tracked as
// outstanding until its result is delivered, so a failover mid-flight
// resubmits it to the promoted broker.
func (f *Fleet) Submit(j tasks.Job) { f.route(j) }

// TrySubmit is the admission-controlled submit path: with
// Options.Admission set, the job is offered to the controller before it
// is routed, and a *QuotaExceededError propagates to the caller instead
// of queueing. The reservation is released when the job's result is
// delivered — or immediately, if the fleet turns out to be closed.
func (f *Fleet) TrySubmit(j tasks.Job) error {
	adm := f.opts.Admission
	if adm != nil {
		if err := adm.Admit(j); err != nil {
			return err
		}
	}
	if !f.route(j) {
		if adm != nil {
			adm.Release(j)
		}
		return fmt.Errorf("shard: fleet closed")
	}
	return nil
}

// route tracks j as outstanding and submits it to its owning shard's
// current primary. It reports false, dropping the job, when the fleet
// is closed.
func (f *Fleet) route(j tasks.Job) bool {
	shard := f.ring.Owner(j.ID)
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return false
	}
	f.outstanding[j.ID] = j
	b := f.shards[shard].broker
	f.mu.Unlock()
	b.Submit(j)
	return true
}

// Results is the fleet-wide result stream: exactly one delivery per job
// ID across all shards and all failovers. Closed by Close.
func (f *Fleet) Results() <-chan tasks.JobResult { return f.results }

// Owner returns the shard index owning a key.
func (f *Fleet) Owner(key string) int { return f.ring.Owner(key) }

// Map returns the current epoch-numbered routing map.
func (f *Fleet) Map() Map {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := Map{Epoch: f.epoch, VNodes: f.opts.VNodes}
	for _, s := range f.shards {
		m.Shards = append(m.Shards, Info{Index: s.index, Addr: s.broker.Addr(), Epoch: s.epoch})
	}
	return m
}

// ShardAddr returns shard i's current primary address — the resolver
// workers dial through, so a reconnect after a failover lands on the
// promoted broker.
func (f *Fleet) ShardAddr(i int) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.shards[i].broker.Addr()
}

// Broker returns shard i's current primary — the status daemon
// aggregates State() across these.
func (f *Fleet) Broker(i int) *tasks.Broker {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.shards[i].broker
}

// Shards returns the shard count.
func (f *Fleet) Shards() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.shards)
}

// Epoch returns the fleet-wide routing epoch.
func (f *Fleet) Epoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

// Lag reports shard i's replication lag in journal bytes.
func (f *Fleet) Lag(i int) int64 {
	f.mu.Lock()
	sh := f.shards[i].shipper
	f.mu.Unlock()
	return sh.Lag()
}

// KillShard kills shard i's current primary broker without warning —
// the chaos test's rolling-kill hook. The lease expires, the monitor
// promotes the standby, and routing recovers on its own.
func (f *Fleet) KillShard(i int) {
	f.mu.Lock()
	b := f.shards[i].broker
	f.mu.Unlock()
	b.Kill()
}

// Outstanding reports how many submitted jobs have not yet delivered a
// result.
func (f *Fleet) Outstanding() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.outstanding)
}

// Health reports nil while every shard primary is serving.
func (f *Fleet) Health() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return fmt.Errorf("shard: fleet closed")
	}
	for _, s := range f.shards {
		if s.broker.Closed() {
			return fmt.Errorf("shard %d: primary down, failover in progress", s.index)
		}
	}
	return nil
}

// Scrub runs one integrity-scrub pass over every shard primary, using
// that shard's standby file store as the repair source: a blob the
// primary quarantines is restored from the replicated copy when the
// standby still verifies it. Returns one report per shard, indexed by
// shard number.
func (f *Fleet) Scrub() []*database.ScrubReport {
	f.mu.Lock()
	type pair struct{ primary, standby *database.DB }
	pairs := make([]pair, 0, len(f.shards))
	for _, s := range f.shards {
		pairs = append(pairs, pair{s.primaryDB, s.standbyDB})
	}
	f.mu.Unlock()
	reports := make([]*database.ScrubReport, len(pairs))
	for i, p := range pairs {
		var source database.RepairSource
		if p.standby != nil {
			source = database.FileRepair(p.standby.Files())
		}
		reports[i] = p.primary.Scrub(source)
	}
	return reports
}

// Close stops every broker, shipper, and monitor goroutine, closes the
// stores, and closes the Results channel. Unfinished jobs are parked in
// the shard stores' durable queues.
func (f *Fleet) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	f.mu.Unlock()
	// Wait out any in-flight failover: after this, shard state is final
	// and new failovers bail on the closed flag.
	f.failMu.Lock()
	defer f.failMu.Unlock()
	f.mu.Lock()
	shards := append([]*shardState(nil), f.shards...)
	f.mu.Unlock()
	close(f.stop)
	for _, s := range shards {
		s.broker.Close()
		close(s.shipStop)
	}
	f.wg.Wait()
	for _, s := range shards {
		s.primaryDB.Close()
		s.standbyDB.Close()
	}
	close(f.results)
}
