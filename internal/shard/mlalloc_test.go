package shard

// Fabric end-to-end tests for the allocating /work/mlalloc kernel: the
// tentpole's serving-path measurement must hold on the sharded fabric
// too — every member owns an ML world, requests collect in parallel at
// clean-point barriers behind the forward ring, and /fabricz reports
// each member's GC state.

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// mlOpts sizes member heaps small enough that the test load collects.
func mlOpts(base Options) Options {
	base.MLAlloc = true
	base.MLNursery = 1 << 14
	base.MLSemi = 1 << 18
	base.MLChunk = 512
	base.MLRegion = 256
	return base
}

func fabricGCs(tf *testFabric) (gcs int) {
	for _, b := range tf.fab.mem.Load().shards {
		gcs += b.world.GCs()
	}
	return gcs
}

func runMLAllocLoad(t *testing.T, tf *testFabric, clients, reqs, cells int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			kc := dialKA(t, tf.addr())
			for r := 0; r < reqs; r++ {
				seed := c*1000 + r
				path := fmt.Sprintf("/work/mlalloc?n=%d&seed=%d", cells, seed)
				want := fmt.Sprintf("cells=%d sum=", cells)
				fold := fmt.Sprintf("fold=%d ", cells*seed+cells*(cells-1)/2)
				if err := kc.send(path); err != nil {
					errs <- fmt.Errorf("client %d send: %v", c, err)
					return
				}
				st, body, err := kc.recv(30 * time.Second)
				if err != nil {
					errs <- fmt.Errorf("client %d recv: %v", c, err)
					return
				}
				if st != 200 || !strings.Contains(string(body), want) || !strings.Contains(string(body), fold) {
					errs <- fmt.Errorf("client %d: status %d body %q", c, st, body)
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
}

func TestFabricMLAllocEndToEnd(t *testing.T) {
	tf := startFabric(t, mlOpts(Options{Shards: 2, BackendProcs: 2}), nil)
	runMLAllocLoad(t, tf, 6, 4, 3000)

	if fabricGCs(tf) == 0 {
		t.Fatal("fabric load performed no collections on any member")
	}
	kc := dialKA(t, tf.addr())
	if err := kc.send("/fabricz"); err != nil {
		t.Fatal(err)
	}
	st, body, err := kc.recv(10 * time.Second)
	if err != nil || st != 200 {
		t.Fatalf("/fabricz: %d %v", st, err)
	}
	if !strings.Contains(string(body), "gc: gcs=") {
		t.Fatalf("/fabricz missing per-member gc line:\n%s", body)
	}
}

// TestFabricMLAllocMux drives the same allocating kernel through the
// event-multiplexed front: the poller pool forwards into members whose
// procs are collecting, which is exactly where a non-GC-aware ring
// lock would convoy.
func TestFabricMLAllocMux(t *testing.T) {
	tf := startFabric(t, mlOpts(Options{Shards: 2, BackendProcs: 2, Mux: true}), nil)
	runMLAllocLoad(t, tf, 6, 4, 3000)
	if fabricGCs(tf) == 0 {
		t.Fatal("mux fabric load performed no collections on any member")
	}
}
