package serve

import (
	"runtime"
	"testing"
)

// TestRefitClusterLeavesOnePToServing pins the refit scheduling budget: a
// default-built refit cluster runs GOMAXPROCS-1 engine goroutines while a
// generation serves, full width on a cold start, and never fewer than one.
func TestRefitClusterLeavesOnePToServing(t *testing.T) {
	boot := testModel(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	parallelism := func(t *testing.T, cfg RefitConfig) int {
		t.Helper()
		r, err := NewRefitter(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		cl, cleanup, err := r.cluster()
		if err != nil {
			t.Fatal(err)
		}
		defer cleanup()
		return cl.Parallelism
	}
	for _, tc := range []struct {
		procs      int
		boot, cold int
	}{
		{procs: 4, boot: 3, cold: 4},
		{procs: 2, boot: 1, cold: 2},
		{procs: 1, boot: 1, cold: 1},
	} {
		runtime.GOMAXPROCS(tc.procs)
		served := parallelism(t, RefitConfig{Watermark: 100, Eps: 0.3, MinPts: 4, Workers: 8, Boot: boot})
		cold := parallelism(t, RefitConfig{Watermark: 100, Eps: 0.3, MinPts: 4, Workers: 8})
		if served != tc.boot || cold != tc.cold {
			t.Errorf("GOMAXPROCS=%d: Parallelism %d serving, %d cold; want %d and %d",
				tc.procs, served, cold, tc.boot, tc.cold)
		}
	}
}
