package run

import "testing"

// TestCacheKeysPinned pins the cache keys of fixed runs built from
// newEnv's fixed artifact bytes. A key that moves orphans every result a store
// already holds under it, so any change to these literals is a change
// to the key format and must bump simcache.SimVersionSalt instead.
func TestCacheKeysPinned(t *testing.T) {
	e := newEnv(t)
	for _, tc := range []struct {
		name string
		spec FSSpec
		want string
	}{
		{"boot-exit", e.fsSpec("boot", "configs/run_exit.py", e.bootDisk,
			"cpu=TimingSimpleCPU", "num_cpus=2", "mem_sys=classic", "boot_type=init"),
			"c41274625125c70730d918bc90cbbaa6"},
		{"hack-back", e.fsSpec("hack", "configs/run_hackback.py", e.bootDisk,
			"benchmark=boot-exit", "suite=boot-exit", "cpu=TimingSimpleCPU", "num_cpus=1"),
			"c838bd03b45e6de0398911259ecd9a4d"},
		{"parsec-energy", func() FSSpec {
			s := e.fsSpec("parsec", "configs/run_parsec.py", e.parsecDisk,
				"benchmark=blackscholes", "size=simsmall", "cpu=TimingSimpleCPU", "num_cpus=1", "mem_sys=classic")
			s.Energy = "auto"
			return s
		}(), "90fe32d28e525b6e64f29e830f921f92"},
	} {
		r, err := CreateFSRun(e.reg, tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := r.CacheKey(); got != tc.want {
			t.Errorf("%s: cache key = %s, want %s", tc.name, got, tc.want)
		}
	}
}
