package mem

import "gem5art/internal/sim"

// DRAM models a single-channel DDR3_1600_8x8 device — the memory
// configuration used in all three of the paper's use cases (Tables II and
// III). It models open-row banks (row hits are cheap, row conflicts pay
// precharge + activate) and channel occupancy (back-to-back requests
// queue behind one another).
type DRAM struct {
	banks     [8]dramBank
	busFreeAt sim.Tick

	// Timing parameters in ticks (1 tick = 1 ps). DDR3-1600 values:
	// tCK = 1.25 ns, CL = tRCD = tRP = 11 cycles ≈ 13.75 ns.
	tCAS   sim.Tick // column access (row already open)
	tRCD   sim.Tick // activate to column
	tRP    sim.Tick // precharge
	tBurst sim.Tick // data burst occupancy of the channel

	rowHits   uint64
	rowMisses uint64
	requests  uint64
}

type dramBank struct {
	openRow int64 // -1 when closed
	freeAt  sim.Tick
}

// NewDDR3 returns a DDR3_1600_8x8-style single-channel DRAM.
func NewDDR3() *DRAM {
	d := &DRAM{
		tCAS:   13750,
		tRCD:   13750,
		tRP:    13750,
		tBurst: 5000, // 64B burst at ~12.8 GB/s
	}
	for i := range d.banks {
		d.banks[i].openRow = -1
	}
	return d
}

// rowBytes is the row-buffer size: 8 KiB (8x8 device, 1 KiB page × 8).
const rowBytes int64 = 8 * 1024

// Access performs one line fill or writeback beginning no earlier than
// `now` and returns the tick at which data is available.
func (d *DRAM) Access(now sim.Tick, addr int64) (doneAt sim.Tick) {
	d.requests++
	bankIdx := (addr / rowBytes) % int64(len(d.banks))
	row := addr / (rowBytes * int64(len(d.banks)))
	bank := &d.banks[bankIdx]

	start := now
	if bank.freeAt > start {
		start = bank.freeAt
	}

	var latency sim.Tick
	if bank.openRow == row {
		d.rowHits++
		latency = d.tCAS
	} else if bank.openRow == -1 {
		d.rowMisses++
		latency = d.tRCD + d.tCAS
	} else {
		d.rowMisses++
		latency = d.tRP + d.tRCD + d.tCAS
	}
	bank.openRow = row
	// Banks work in parallel; only the data burst occupies the shared
	// channel, so throughput is one line per tBurst while latency is the
	// full bank access.
	dataAt := start + latency
	if dataAt < d.busFreeAt {
		dataAt = d.busFreeAt
	}
	doneAt = dataAt + d.tBurst
	d.busFreeAt = doneAt
	bank.freeAt = doneAt
	return doneAt
}

// RowHitRate returns the fraction of accesses that hit an open row.
func (d *DRAM) RowHitRate() float64 {
	if d.requests == 0 {
		return 0
	}
	return float64(d.rowHits) / float64(d.requests)
}
