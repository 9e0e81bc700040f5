package shard

// End-to-end coverage for the fabric's FIFO claim/release locks: the
// fabric serving correctly with every hot-path lock a syncx.FairLock, on
// both fronts, and the wait instruments surfacing on /fabricz.

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestFabricFairLocksEndToEnd drives concurrent keep-alive clients
// through a default fabric: every ring push/pop, steal claim, and reply
// wait goes through the claim/release path, and every request must
// still be answered correctly.
func TestFabricFairLocksEndToEnd(t *testing.T) {
	tf := startFabric(t, Options{Shards: 2}, nil)
	const clients, reqs = 4, 8
	var wg sync.WaitGroup
	errs := make(chan error, clients*reqs)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			kc := dialKA(t, tf.addr())
			for i := 0; i < reqs; i++ {
				msg := fmt.Sprintf("c%dm%d", c, i)
				if err := kc.send("/echo?msg=" + msg); err != nil {
					errs <- err
					return
				}
				st, body, err := kc.recv(10 * time.Second)
				if err != nil {
					errs <- fmt.Errorf("client %d request %d: %w", c, i, err)
					return
				}
				if st != 200 || string(body) != msg {
					errs <- fmt.Errorf("client %d request %d: status %d body %q", c, i, st, body)
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

	// /fabricz must surface the wait instruments: the claim-wait line
	// always, the reply-wait histogram once any reply was awaited.
	body := fetchFabricz(t, tf)
	for _, want := range []string{"ring_waits ", "reply_wait_hist "} {
		if !strings.Contains(body, want) {
			t.Errorf("/fabricz does not report %q:\n%s", want, body)
		}
	}
}

func fetchFabricz(t *testing.T, tf *testFabric) string {
	t.Helper()
	kc := dialKA(t, tf.addr())
	if err := kc.send("/fabricz", "Connection: close"); err != nil {
		t.Fatal(err)
	}
	st, body, err := kc.recv(10 * time.Second)
	if err != nil || st != 200 {
		t.Fatalf("/fabricz: status %d err %v", st, err)
	}
	return string(body)
}

// TestFabricFairLocksMux covers the mux front's fair inbox: the
// acceptor→poller handoff lock is a FairLock, and the poller pool must
// still adopt and serve connections.  Pollers sweep reply groups rather
// than wait on them, so only the claim-wait line is asserted.
func TestFabricFairLocksMux(t *testing.T) {
	tf := startFabric(t, Options{Shards: 2, Mux: true, Pollers: 2}, nil)
	for i := 0; i < 3; i++ {
		kc := dialKA(t, tf.addr())
		msg := fmt.Sprintf("mux%d", i)
		if err := kc.send("/echo?msg=" + msg); err != nil {
			t.Fatal(err)
		}
		st, body, err := kc.recv(10 * time.Second)
		if err != nil || st != 200 || string(body) != msg {
			t.Fatalf("request %d: status %d body %q err %v", i, st, body, err)
		}
		kc.nc.Close()
	}
	if body := fetchFabricz(t, tf); !strings.Contains(body, "ring_waits ") {
		t.Errorf("/fabricz does not report ring_waits:\n%s", body)
	}
}
