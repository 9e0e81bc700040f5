package serve

// End-to-end tests for the /work/mlalloc allocating kernel: concurrent
// requests share one gcsync world, exhaust its nursery, and collect in
// parallel at clean-point barriers — on the live serving path.

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gcsync"
	"repro/internal/mlheap"
)

func mlWorldForTest(procs int) *gcsync.World {
	return gcsync.NewWorld(mlheap.Config{
		NurseryWords: 1 << 14,
		SemiWords:    1 << 18,
		ChunkWords:   512,
		RegionWords:  256,
		Procs:        procs,
	})
}

func TestMLAllocEndToEnd(t *testing.T) {
	world := mlWorldForTest(8)
	ts := startServer(t, 4, Options{MLWorld: world}, nil)

	const clients, reqs = 6, 5
	var wg sync.WaitGroup
	errs := make(chan error, clients*reqs)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < reqs; r++ {
				seed := int64(c*100 + r)
				path := fmt.Sprintf("/work/mlalloc?n=3000&seed=%d", seed)
				st, _, body, err := doReq(ts.addr(), "GET", path, nil, 30*time.Second)
				if err != nil {
					errs <- fmt.Errorf("client %d: %v", c, err)
					return
				}
				if st != 200 {
					errs <- fmt.Errorf("client %d: status %d: %s", c, st, body)
					return
				}
				// The fold walks the list across clean points, so a cursor
				// left behind by a collection shows up as a wrong count or sum.
				fold := fmt.Sprintf("fold=%d ", 3000*seed+3000*2999/2)
				if !strings.Contains(string(body), "cells=3000 ") || !strings.Contains(string(body), fold) {
					errs <- fmt.Errorf("client %d: unexpected body %q", c, body)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if world.GCs() == 0 {
		t.Fatal("serving load performed no collections")
	}
	st, _, body, err := doReq(ts.addr(), "GET", "/metrics", nil, 10*time.Second)
	if err != nil || st != 200 {
		t.Fatalf("/metrics: %d %v", st, err)
	}
	for _, name := range []string{"mlheap.gc_pause_ticks", "mlheap.minor_gcs", "gcsync.section_entries"} {
		if !strings.Contains(string(body), name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	snap := world.Heap().Metrics().Snapshot()
	if snap.Histograms["mlheap.gc_pause_ticks"].Count == 0 {
		t.Error("no pauses recorded in mlheap.gc_pause_ticks")
	}
}
