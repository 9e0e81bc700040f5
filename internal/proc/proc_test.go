package proc

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cont"
)

func TestRunRootReturns(t *testing.T) {
	pl := New(4)
	ran := false
	pl.Run(func() { ran = true }, nil)
	if !ran {
		t.Fatal("root did not run")
	}
	st := pl.Stats()
	if st.Released != 1 {
		t.Fatalf("root not released implicitly: %+v", st)
	}
}

func TestInitialDatum(t *testing.T) {
	pl := New(2)
	var got any
	pl.Run(func() { got = GetDatum() }, 17)
	if got != 17 {
		t.Fatalf("initial datum = %v, want 17", got)
	}
}

func TestSetGetDatum(t *testing.T) {
	pl := New(2)
	var got any
	pl.Run(func() {
		SetDatum("x")
		got = GetDatum()
	}, nil)
	if got != "x" {
		t.Fatalf("datum = %v, want x", got)
	}
}

func TestAcquireRunsInParallel(t *testing.T) {
	pl := New(4)
	var count atomic.Int32
	pl.Run(func() {
		for i := 0; i < 3; i++ {
			cont.Callcc(func(k *cont.Cont[cont.Unit]) cont.Unit {
				// Start a new proc running the rest of *this* thread;
				// the body continues as a separate activity that bumps
				// the counter and releases its proc.
				if err := pl.Acquire(PS{K: k, Datum: 100 + i}); err != nil {
					t.Errorf("Acquire: %v", err)
					cont.Throw(k, cont.Unit{})
				}
				count.Add(1)
				pl.Release()
				return cont.Unit{}
			})
		}
	}, 0)
	if count.Load() != 3 {
		t.Fatalf("count = %d, want 3", count.Load())
	}
}

func TestNoMoreProcs(t *testing.T) {
	pl := New(1) // root takes the only proc
	var err error
	pl.Run(func() {
		err = pl.Acquire(PS{K: newParkedCont(), Datum: nil})
	}, nil)
	if err != ErrNoMoreProcs {
		t.Fatalf("err = %v, want ErrNoMoreProcs", err)
	}
	if pl.Stats().Refused != 1 {
		t.Fatalf("refused = %d, want 1", pl.Stats().Refused)
	}
}

// newParkedCont builds a continuation that is never resumed; only valid
// for Acquire calls that are expected to fail.
func newParkedCont() *cont.Cont[cont.Unit] {
	ch := make(chan *cont.Cont[cont.Unit], 1)
	pl := New(1)
	go pl.Run(func() {
		cont.Callcc(func(k *cont.Cont[cont.Unit]) cont.Unit {
			ch <- k
			pl.Release()
			return cont.Unit{}
		})
	}, nil)
	return <-ch
}

func TestReleaseReuse(t *testing.T) {
	pl := New(2)
	var reused int
	pl.Run(func() {
		for i := 0; i < 5; i++ {
			done := make(chan struct{})
			err := pl.Acquire(PS{K: releaseImmediately(pl, done), Datum: nil})
			if err != nil {
				t.Errorf("Acquire %d: %v", i, err)
				return
			}
			<-done
		}
		reused = pl.Stats().Reused
	}, nil)
	if reused < 4 {
		t.Fatalf("reused = %d, want >= 4 (released procs must be re-used)", reused)
	}
	if pl.Stats().Created > 2 {
		t.Fatalf("created = %d procs, limit 2", pl.Stats().Created)
	}
}

// releaseImmediately returns a continuation that, when started on a fresh
// proc, signals done and releases the proc.
func releaseImmediately(pl *Platform, done chan struct{}) *cont.Cont[cont.Unit] {
	ch := make(chan *cont.Cont[cont.Unit], 1)
	boot := New(1)
	go boot.Run(func() {
		cont.Callcc(func(k *cont.Cont[cont.Unit]) cont.Unit {
			ch <- k
			boot.Release()
			return cont.Unit{}
		})
		// Resumed on a proc of pl.
		close(done)
		pl.Release()
	}, nil)
	return <-ch
}

func TestDatumFollowsProcNotThread(t *testing.T) {
	// A thread that hops procs must observe the datum of the proc it is
	// currently on (paper §3.2: each processor requires a private copy).
	pl := New(2)
	var seen []any
	pl.Run(func() {
		SetDatum("root-datum")
		seen = append(seen, GetDatum())
		cont.Callcc(func(k *cont.Cont[cont.Unit]) cont.Unit {
			if err := pl.Acquire(PS{K: k, Datum: "new-proc-datum"}); err != nil {
				t.Errorf("Acquire: %v", err)
				cont.Throw(k, cont.Unit{})
			}
			// This body still runs on the root proc.
			if GetDatum() != "root-datum" {
				t.Errorf("body datum = %v, want root-datum", GetDatum())
			}
			pl.Release()
			return cont.Unit{}
		})
		// Resumed on the newly acquired proc.
		seen = append(seen, GetDatum())
	}, nil)
	if len(seen) != 2 || seen[0] != "root-datum" || seen[1] != "new-proc-datum" {
		t.Fatalf("seen = %v", seen)
	}
}

func TestQuiescenceWaitsForAllProcs(t *testing.T) {
	pl := New(8)
	var done atomic.Int32
	pl.Run(func() {
		for i := 0; i < 3; i++ {
			cont.Callcc(func(k *cont.Cont[cont.Unit]) cont.Unit {
				if err := pl.Acquire(PS{K: k, Datum: nil}); err != nil {
					cont.Throw(k, cont.Unit{})
				}
				// Busy work on the extra proc before releasing.
				for j := 0; j < 100; j++ {
					runtime.Gosched()
				}
				done.Add(1)
				pl.Release()
				return cont.Unit{}
			})
		}
	}, nil)
	if done.Load() != 3 {
		t.Fatalf("Run returned before procs quiesced: done = %d", done.Load())
	}
}

func TestRunNotReentrant(t *testing.T) {
	pl := New(1)
	pl.Run(func() {
		defer func() {
			if recover() == nil {
				t.Error("nested Run did not panic")
			}
		}()
		pl.Run(func() {}, nil)
	}, nil)
}

func TestMaxProcsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}

func TestSelfIDs(t *testing.T) {
	pl := New(3)
	ids := make(chan int, 3)
	pl.Run(func() {
		ids <- Self()
		for i := 0; i < 2; i++ {
			cont.Callcc(func(k *cont.Cont[cont.Unit]) cont.Unit {
				if err := pl.Acquire(PS{K: k, Datum: nil}); err != nil {
					cont.Throw(k, cont.Unit{})
				}
				ids <- Self()
				pl.Release()
				return cont.Unit{}
			})
		}
	}, nil)
	close(ids)
	seen := map[int]bool{}
	for id := range ids {
		seen[id] = true
	}
	if len(seen) == 0 || !seen[0] {
		t.Fatalf("ids = %v, want to include root id 0", seen)
	}
}

// TestPoolInvariantsUnderChurn: thirty acquire/release cycles on a
// three-proc pool must never mint more than three tokens and must re-use
// released ones.
func TestPoolInvariantsUnderChurn(t *testing.T) {
	pl := New(3)
	pl.Run(func() {
		for i := 0; i < 30; i++ {
			done := make(chan struct{})
			err := pl.Acquire(PS{K: releaseImmediately(pl, done), Datum: nil})
			if err != nil {
				t.Errorf("iteration %d: %v", i, err)
				return
			}
			<-done
		}
	}, nil)
	st := pl.Stats()
	if st.Created > 3 {
		t.Fatalf("created %d proc tokens with limit 3", st.Created)
	}
	if st.Reused < 25 {
		t.Fatalf("reused only %d of 30 acquisitions", st.Reused)
	}
}

func TestDynamicLimitRefusesAcquire(t *testing.T) {
	pl := New(4)
	pl.SetLimit(1) // OS grants only one processor
	var err error
	pl.Run(func() {
		err = pl.Acquire(PS{K: newParkedCont(), Datum: nil})
	}, nil)
	if err != ErrNoMoreProcs {
		t.Fatalf("err = %v, want ErrNoMoreProcs under a shrunken limit", err)
	}
}

func TestSetLimitClamps(t *testing.T) {
	pl := New(4)
	pl.SetLimit(0)
	if pl.Limit() != 1 {
		t.Fatalf("limit = %d, want clamp to 1", pl.Limit())
	}
	pl.SetLimit(99)
	if pl.Limit() != 4 {
		t.Fatalf("limit = %d, want clamp to max 4", pl.Limit())
	}
}

func TestRevokedSignal(t *testing.T) {
	pl := New(2)
	pl.Run(func() {
		if pl.Revoked() {
			t.Error("revoked with live <= limit")
		}
		pl.SetLimit(1)
		// Only the root proc is live (1 <= 1): no revocation yet.
		if pl.Revoked() {
			t.Error("revoked with live == limit")
		}
		pl.SetLimit(2)
		done := make(chan struct{})
		if err := pl.Acquire(PS{K: releaseOnSignal(pl, done)}); err != nil {
			t.Errorf("acquire: %v", err)
			return
		}
		pl.SetLimit(1) // now two live against a limit of one
		if !pl.Revoked() {
			t.Error("not revoked with live > limit")
		}
		close(done) // let the second proc release
	}, nil)
}

// releaseOnSignal returns a continuation that waits on done and then
// releases its proc.
func releaseOnSignal(pl *Platform, done chan struct{}) *cont.Cont[cont.Unit] {
	ch := make(chan *cont.Cont[cont.Unit], 1)
	boot := New(1)
	go boot.Run(func() {
		cont.Callcc(func(k *cont.Cont[cont.Unit]) cont.Unit {
			ch <- k
			boot.Release()
			return cont.Unit{}
		})
		<-done
		pl.Release()
	}, nil)
	return <-ch
}

// TestReleaseIfRevokedReleasesOnlySurplus: when every proc answers the
// same revocation at once, exactly the surplus leaves — the check and the
// release are one step, so two procs can never both see live > limit and
// both go.
func TestReleaseIfRevokedReleasesOnlySurplus(t *testing.T) {
	const n = 4
	for round := 0; round < 50; round++ {
		pl := New(n)
		var arrived, survivors atomic.Int32
		worker := func() {
			arrived.Add(1)
			for arrived.Load() < n {
				runtime.Gosched()
			}
			pl.SetLimit(1)
			pl.ReleaseIfRevoked()
			survivors.Add(1)
			// Hold the proc until the surplus has gone, so a second
			// survivor cannot be an artifact of this one leaving early.
			for deadline := time.Now().Add(5 * time.Second); pl.Live() > 1 && time.Now().Before(deadline); {
				runtime.Gosched()
			}
		}
		pl.Run(func() {
			for i := 0; i < n-1; i++ {
				cont.Callcc(func(k *cont.Cont[cont.Unit]) cont.Unit {
					if err := pl.Acquire(PS{K: k}); err != nil {
						t.Errorf("Acquire: %v", err)
						cont.Throw(k, cont.Unit{})
					}
					worker()
					pl.Release()
					return cont.Unit{}
				})
			}
			worker()
		}, nil)
		if got := survivors.Load(); got != 1 {
			t.Fatalf("round %d: %d procs survived a revocation to limit 1, want 1", round, got)
		}
	}
}
