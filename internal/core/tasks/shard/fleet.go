package shard

import (
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"gem5art/internal/core/tasks"
	"gem5art/internal/database"
)

// Options configures a Fleet.
type Options struct {
	// Shards is the number of shard brokers (default 1).
	Shards int
	// Dir is the root directory for per-shard durable stores; required.
	// Layout: <dir>/shard-<i>/store-gen<N>; a failover renames the store
	// it deposes store-gen<N>.deposed, so a fleet reopened over the same
	// Dir resumes each shard from the primary it last had.
	Dir string
	// Broker is the per-shard broker template (heartbeat, lease, retry).
	// Its DB and Listener fields are overwritten by the fleet.
	Broker tasks.BrokerOptions
	// LeaseTTL is the primary lease: a shard whose primary broker has
	// been down this long gets its standby promoted (default 250ms —
	// tuned for in-process fleets; a networked deployment wants seconds).
	LeaseTTL time.Duration
	// ShipInterval is the journal-shipping cadence (default 25ms).
	ShipInterval time.Duration
	// Listener, when non-nil, supplies each shard primary's listener —
	// the hook chaos tests use to interpose faultinject.NetChaos per
	// shard. Called again for the promoted broker on every failover.
	Listener func(shard int) (net.Listener, error)
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
	// fenced marks a failover that drained the old primary's journal but
	// could not promote: the monitor's retry skips the fence, whose
	// shipStop is already closed (and swapped for a fresh one for Close).
	fenced bool
}

// Fleet runs N shard brokers behind a consistent-hash router with
// journal-replicated standbys and lease-based failover. Submit routes
// by job ID; Results delivers each submitted job's result exactly once,
// regardless of how many primaries died along the way — execution is
// at-least-once (bounded by replication lag), delivery is deduplicated
// at this edge.
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
	outstanding map[string]tasks.Job // submitted, or recovered when the fleet started; by ID
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
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 250 * time.Millisecond
	}
	if opts.ShipInterval <= 0 {
		opts.ShipInterval = 25 * time.Millisecond
	}
	f := &Fleet{
		opts:        opts,
		ring:        NewRing(opts.Shards, DefaultVNodes),
		results:     make(chan tasks.JobResult, 1024),
		stop:        make(chan struct{}),
		outstanding: make(map[string]tasks.Job),
	}
	for i := 0; i < opts.Shards; i++ {
		s := &shardState{index: i}
		gen := f.liveGen(i)
		primary, err := f.openStore(i, gen)
		if err == nil {
			// The jobs the shard's broker is about to recover were
			// submitted before a restart; their results are still owed.
			for _, j := range tasks.Unfinished(primary) {
				f.outstanding[j.ID] = j
			}
			if err = f.startGen(s, gen, primary); err != nil {
				primary.Close()
			}
		}
		if err != nil {
			f.Close()
			return nil, err
		}
		f.shards = append(f.shards, s)
	}
	shardEpoch.Set(0)
	f.wg.Add(1)
	go f.monitor()
	return f, nil
}

func (f *Fleet) storeDir(shard, gen int) string {
	return filepath.Join(f.opts.Dir, fmt.Sprintf("shard-%d", shard), fmt.Sprintf("store-gen%d", gen))
}

// liveGen returns the lowest generation of shard's stores that no
// failover has deposed — its primary when the fleet last stopped — or
// 0 for a new shard.
func (f *Fleet) liveGen(shard int) int {
	gen := -1
	entries, _ := os.ReadDir(filepath.Dir(f.storeDir(shard, 0)))
	for _, e := range entries {
		num, ok := strings.CutPrefix(e.Name(), "store-gen")
		if n, err := strconv.Atoi(num); ok && err == nil && (gen < 0 || n < gen) {
			gen = n
		}
	}
	return max(gen, 0)
}

func (f *Fleet) openStore(shard, gen int) (*database.DB, error) {
	dir := f.storeDir(shard, gen)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shard %d: %w", shard, err)
	}
	// Huge CompactAfter keeps shipping offsets stable: compaction resets
	// the journal, forcing the standby through a full snapshot resync.
	// No fsync per commit: shipping cadence, not fsync, bounds the
	// failover window for in-process fleets, and chaos runs push tens of
	// thousands of journal records.
	store, err := database.OpenWith(dir, database.Options{CompactAfter: 1 << 30})
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

// startGen brings up generation gen of shard s over its primary store
// — a broker, a standby store at gen+1, the journal shipper between
// them, and the generation's result pump — and installs it in s. On
// error nothing is left running.
func (f *Fleet) startGen(s *shardState, gen int, primary *database.DB) error {
	bo := f.opts.Broker
	bo.DB, bo.Listener = primary, nil
	if f.opts.Listener != nil {
		ln, err := f.opts.Listener(s.index)
		if err != nil {
			return fmt.Errorf("shard %d: listener: %w", s.index, err)
		}
		bo.Listener = ln
	}
	broker, err := tasks.NewBrokerWithOptions("127.0.0.1:0", bo)
	if err != nil {
		return err
	}
	standby, err := f.openStore(s.index, gen+1)
	if err != nil {
		broker.Kill()
		return err
	}
	shipper := NewShipper(s.index, primary, standby, tasks.QueueCollection)
	shipStop := make(chan struct{})
	f.mu.Lock()
	s.gen, s.broker, s.primaryDB, s.standbyDB = gen, broker, primary, standby
	s.shipper, s.shipStop = shipper, shipStop
	s.fenced, s.failingOver, s.lastBeat = false, false, time.Now()
	f.mu.Unlock()
	f.wg.Add(2)
	go f.pump(broker)
	go func() {
		defer f.wg.Done()
		shipper.Run(f.opts.ShipInterval, shipStop)
	}()
	return nil
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

// monitor renews the lease of every shard whose primary serves, and
// promotes the standby of one whose primary stopped — by Close or by
// Kill — more than a lease ago.
func (f *Fleet) monitor() {
	defer f.wg.Done()
	t := time.NewTicker(max(f.opts.LeaseTTL/4, time.Millisecond))
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
			switch {
			case s.failingOver:
			case !s.broker.Closed():
				s.lastBeat = time.Now()
			case time.Since(s.lastBeat) > f.opts.LeaseTTL:
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
	oldShipper, oldShipStop, oldPrimary := s.shipper, s.shipStop, s.primaryDB
	promoted, gen, fenced := s.standbyDB, s.gen, s.fenced
	f.mu.Unlock()

	// The monitor fails over only a shard whose primary broker has
	// stopped, so two brokers never own the shard at once.
	if !fenced {
		// Fence the deposed store: stop shipping from it.
		close(oldShipStop)
		// Final drain: the deposed primary's store is still readable
		// in-process, so everything it journaled reaches the standby
		// before promotion. Across machines this drain can fail, and the
		// loss bound is the replication lag — see DESIGN.md's
		// failure-semantics matrix.
		_, _ = oldShipper.ShipOnce()
		oldPrimary.Close()
	}

	// abort records a failed promotion: the fence is done and must not be
	// redone (re-closing shipStop would panic), the lease resets so the
	// monitor retries on the next expiry, and shipStop becomes a fresh
	// channel no goroutine listens on, for Close to close once.
	abort := func() {
		f.mu.Lock()
		s.fenced = true
		s.shipStop = make(chan struct{})
		s.lastBeat = time.Now()
		s.failingOver = false
		f.mu.Unlock()
	}

	// The deposed store leaves the live generations, so a fleet reopened
	// over this Dir resumes from the promoted one. Until it has left,
	// promotion waits: a restart would resync the promoted store from it.
	deposed := f.storeDir(i, gen)
	if err := os.Rename(deposed, deposed+".deposed"); err != nil && !errors.Is(err, fs.ErrNotExist) {
		abort()
		return
	}
	if err := f.startGen(s, gen+1, promoted); err != nil {
		// Could not bring the shard back (listener hook failed?).
		abort()
		return
	}

	f.mu.Lock()
	s.epoch++
	f.epoch++
	epoch := f.epoch
	broker := s.broker
	var resubmit []tasks.Job
	for id, j := range f.outstanding {
		if f.ring.Owner(id) == i {
			resubmit = append(resubmit, j)
		}
	}
	f.mu.Unlock()

	shardFailovers.Inc()
	shardEpoch.Set(float64(epoch))
	for _, j := range resubmit {
		_ = broker.Submit(j) // refused only if it stopped already: the next failover resubmits
	}
}

// deliverResult forwards a result to the fleet channel if its job is
// outstanding, and ends that: a copy a failover replays, or one a
// deposed primary still buffered, finds the job delivered already.
func (f *Fleet) deliverResult(res tasks.JobResult) {
	f.mu.Lock()
	_, outstanding := f.outstanding[res.ID]
	delete(f.outstanding, res.ID)
	f.mu.Unlock()
	if !outstanding {
		return
	}
	select {
	case f.results <- res:
	case <-f.stop:
	}
}

// Submit routes a job to its owning shard's current primary. The job
// is tracked as outstanding until its result is delivered, so a
// failover mid-flight resubmits it to the promoted broker. It fails
// only when the fleet is closed, dropping the job.
func (f *Fleet) Submit(j tasks.Job) error {
	shard := f.ring.Owner(j.ID)
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return fmt.Errorf("shard: fleet closed")
	}
	f.outstanding[j.ID] = j
	b := f.shards[shard].broker
	f.mu.Unlock()
	// A primary that stopped since refuses the job, which stays
	// outstanding: the failover that replaces it resubmits the job.
	_ = b.Submit(j)
	return nil
}

// Results is the fleet-wide result stream: exactly one delivery per job
// ID across all shards and all failovers. Closed by Close.
func (f *Fleet) Results() <-chan tasks.JobResult { return f.results }

// Map returns the current epoch-numbered routing map.
func (f *Fleet) Map() Map {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := Map{Epoch: f.epoch}
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

// Outstanding reports how many jobs — submitted, or recovered
// unfinished when the fleet started — have not yet delivered a result.
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
