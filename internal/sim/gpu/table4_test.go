package gpu_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"

	"gem5art/internal/sim/gpu"
	"gem5art/internal/workloads"
)

// table4Golden is the SHA-256 of every Table IV result (table4Cells)
// under each of goldenConfigs in turn: 3 x 58 = 174 results. Any change
// to it changes Figure 9 and every recorded GPU run, so it may move only
// with a deliberate model change.
const table4Golden = "ef153618f0b08661e46565ca1fa2fc6040bc41f5233375c8dc143701a3d5d3dd"

var goldenConfigs = []gpu.Config{
	{},
	{PreciseDeps: true},
	{CUs: 2, MaxWavesPerSIMD: 4},
}

// runTable4 runs the 58 Table IV cells (29 kernels x both allocators)
// under cfg, in the order Figure 9 lists them.
func runTable4(cfg gpu.Config) ([]gpu.Result, error) {
	var out []gpu.Result
	for _, w := range workloads.GPUWorkloads() {
		for _, a := range []gpu.Allocator{gpu.Simple, gpu.Dynamic} {
			r, err := gpu.Run(cfg, w.Kernel, a)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

func table4Cells(tb testing.TB, cfg gpu.Config) []gpu.Result {
	tb.Helper()
	out, err := runTable4(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

func TestTable4GoldenHash(t *testing.T) {
	h := sha256.New()
	n := 0
	for _, cfg := range goldenConfigs {
		for _, r := range table4Cells(t, cfg) {
			fmt.Fprintf(h, "%+v\n", r)
			n++
		}
	}
	if n != 174 {
		t.Fatalf("%d results, want 174", n)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != table4Golden {
		t.Fatalf("GPU results changed: hash %s, want %s", got, table4Golden)
	}
}

func TestConcurrentRunsMatchSequential(t *testing.T) {
	want := table4Cells(t, gpu.Config{})
	got := make([][]gpu.Result, 4)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = runTable4(gpu.Config{})
		}(i)
	}
	wg.Wait()
	for i, rs := range got {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		for j := range want {
			if rs[j] != want[j] {
				t.Fatalf("goroutine %d cell %d: %+v, want %+v", i, j, rs[j], want[j])
			}
		}
	}
}

// TestAllocsIndependentOfWaveCount pins a run's allocations to the
// device and dispatch bookkeeping: wave state and wave generators must
// not cost one allocation per wave.
func TestAllocsIndependentOfWaveCount(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	big, err := workloads.FindGPUWorkload("inline_asm")
	if err != nil {
		t.Fatal(err)
	}
	small, err := workloads.FindGPUWorkload("2dshfl")
	if err != nil {
		t.Fatal(err)
	}
	waves := func(w workloads.GPUWorkload) int { return w.Kernel.WGs * w.Kernel.WavesPerWG }
	if waves(big) < 100*waves(small) {
		t.Fatalf("%s has %d waves, %s %d: want a wide spread",
			big.Kernel.Name, waves(big), small.Kernel.Name, waves(small))
	}
	for _, a := range []gpu.Allocator{gpu.Simple, gpu.Dynamic} {
		var per [2]float64
		for i, w := range []workloads.GPUWorkload{big, small} {
			per[i] = testing.AllocsPerRun(20, func() {
				if _, err := gpu.Run(gpu.Config{}, w.Kernel, a); err != nil {
					t.Fatal(err)
				}
			})
			if per[i] > 32 {
				t.Errorf("%s/%s (%d waves): %.0f allocs per run, want <= 32",
					w.Kernel.Name, a, waves(w), per[i])
			}
		}
		if per[0] > per[1]+4 {
			t.Errorf("%s: %.0f allocs for %d waves vs %.0f for %d: grows with wave count",
				a, per[0], waves(big), per[1], waves(small))
		}
	}
}

// BenchmarkRunTable4 simulates all 58 Table IV cells per iteration and
// reports the model's issue rate.
func BenchmarkRunTable4(b *testing.B) {
	b.ReportAllocs()
	var ops uint64
	for i := 0; i < b.N; i++ {
		for _, r := range table4Cells(b, gpu.Config{}) {
			ops += r.Ops
		}
	}
	b.ReportMetric(float64(ops)/b.Elapsed().Seconds()/1e6, "Mops/s")
}
