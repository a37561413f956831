package shard

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"gem5art/internal/database"
)

// ReplicationSource is the primary side of journal shipping —
// *database.DB satisfies it.
type ReplicationSource interface {
	JournalSegment(collection string, gen uint64, from int64, max int) (data []byte, next int64, err error)
	JournalSize(collection string) int64
	CollectionSnapshot(collection string) (docs []database.Doc, journalSize int64, gen uint64)
}

// ReplicationTarget is the standby side — *database.DB satisfies it.
type ReplicationTarget interface {
	ApplyJournalSegment(collection string, data []byte) (applied int, consumed int64, err error)
	RestoreCollection(collection string, docs []database.Doc) error
}

// Shipper streams one collection's journal from a primary store to a
// standby store. It is offset-based and torn-tail tolerant: a shipment
// the standby only partially consumes resumes from the consumed offset,
// and a primary journal reset (compaction) falls back to a full
// snapshot resync. One shipper serves one shard; the fleet runs one per
// primary and rebuilds it after every promotion.
type Shipper struct {
	src   ReplicationSource
	dst   ReplicationTarget
	col   string
	shard int

	mu     sync.Mutex
	offset int64
	gen    uint64 // journal generation the offset is relative to
	synced bool   // snapshot basis established
}

// NewShipper builds a shipper for one shard's queue collection. The
// first ShipOnce performs a snapshot resync to establish the offset
// basis.
func NewShipper(shardIndex int, src ReplicationSource, dst ReplicationTarget, collection string) *Shipper {
	return &Shipper{src: src, dst: dst, col: collection, shard: shardIndex}
}

// Resync replaces the standby's collection with a primary snapshot and
// rebases the shipping position on the snapshot's journal generation
// and extent.
func (s *Shipper) Resync() error {
	docs, off, gen := s.src.CollectionSnapshot(s.col)
	if err := s.dst.RestoreCollection(s.col, docs); err != nil {
		return fmt.Errorf("shard %d resync: %w", s.shard, err)
	}
	s.mu.Lock()
	s.offset = off
	s.gen = gen
	s.synced = true
	s.mu.Unlock()
	return nil
}

// ShipOnce drains everything currently in the primary's journal beyond
// the standby's offset, resyncing first if no basis exists or the
// journal was reset. It returns the number of records replayed.
func (s *Shipper) ShipOnce() (int, error) {
	s.mu.Lock()
	synced := s.synced
	s.mu.Unlock()
	if !synced {
		if err := s.Resync(); err != nil {
			return 0, err
		}
	}
	total := 0
	for {
		s.mu.Lock()
		from, gen := s.offset, s.gen
		s.mu.Unlock()
		data, next, err := s.src.JournalSegment(s.col, gen, from, 0)
		if errors.Is(err, database.ErrJournalReset) {
			if err := s.Resync(); err != nil {
				return total, err
			}
			continue
		}
		if err != nil {
			return total, err
		}
		if len(data) == 0 {
			s.updateLag()
			return total, nil
		}
		applied, consumed, err := s.dst.ApplyJournalSegment(s.col, data)
		if err != nil {
			return total, err
		}
		total += applied
		s.mu.Lock()
		if consumed < int64(len(data)) {
			// Torn tail mid-shipment: resume exactly where the valid
			// prefix ended, not at the segment's nominal end.
			s.offset = from + consumed
		} else {
			s.offset = next
		}
		s.mu.Unlock()
		if consumed < int64(len(data)) {
			s.updateLag()
			return total, nil
		}
	}
}

// Run ships on the given interval until stop is closed. Errors are
// retried on the next tick; replication is eventually consistent by
// design and the promotion path calls ShipOnce for a final drain.
func (s *Shipper) Run(interval time.Duration, stop <-chan struct{}) {
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			_, _ = s.ShipOnce()
		}
	}
}

// Lag reports how many journal bytes the primary holds beyond the
// standby's applied offset.
func (s *Shipper) Lag() int64 {
	s.mu.Lock()
	off := s.offset
	s.mu.Unlock()
	lag := s.src.JournalSize(s.col) - off
	if lag < 0 {
		lag = 0
	}
	return lag
}

func (s *Shipper) updateLag() {
	shardReplicationLag.With(strconv.Itoa(s.shard)).Set(float64(s.Lag()))
}
