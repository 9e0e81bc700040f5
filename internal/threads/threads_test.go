package threads

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/proc"
	"repro/internal/queue"
	"repro/internal/spinlock"
	"repro/internal/trace"
)

func newSys(maxProcs int, opts Options) *System {
	return New(proc.New(maxProcs), opts)
}

func TestForkRunsChildExactlyOnce(t *testing.T) {
	for _, dist := range []bool{false, true} {
		s := newSys(4, Options{Distributed: dist})
		var ran atomic.Int32
		s.Run(func() {
			for i := 0; i < 50; i++ {
				s.Fork(func() { ran.Add(1) })
			}
		})
		if ran.Load() != 50 {
			t.Fatalf("distributed=%v: ran = %d, want 50", dist, ran.Load())
		}
	}
}

func TestThreadIDsUnique(t *testing.T) {
	s := newSys(4, Options{})
	var mu spinlock.Lock = spinlock.NewTTAS()
	seen := map[int]int{}
	s.Run(func() {
		for i := 0; i < 40; i++ {
			s.Fork(func() {
				id := s.ID()
				mu.Lock()
				seen[id]++
				mu.Unlock()
			})
		}
	})
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("thread id %d observed %d times", id, n)
		}
	}
	if len(seen) != 40 {
		t.Fatalf("saw %d distinct ids, want 40", len(seen))
	}
}

func TestYieldInterleaves(t *testing.T) {
	// On a single proc, two threads alternating yields must interleave.
	s := newSys(1, Options{})
	var trace []int
	s.Run(func() {
		s.Fork(func() {
			for i := 0; i < 3; i++ {
				trace = append(trace, 1)
				s.Yield()
			}
		})
		// Fork with a full platform (1 proc) queues the parent, so the
		// child runs first; when the child yields, the parent resumes.
		for i := 0; i < 3; i++ {
			trace = append(trace, 2)
			s.Yield()
		}
	})
	ones, twos := 0, 0
	for _, v := range trace {
		if v == 1 {
			ones++
		} else {
			twos++
		}
	}
	if ones != 3 || twos != 3 {
		t.Fatalf("trace = %v", trace)
	}
	// Strict alternation is not required by the spec, but FIFO scheduling
	// on one proc gives it; check no thread ran twice in a row.
	for i := 1; i < len(trace); i++ {
		if trace[i] == trace[i-1] {
			t.Fatalf("no interleaving: trace = %v", trace)
		}
	}
}

func TestManyThreadsFewProcs(t *testing.T) {
	// Hundreds of threads on a handful of procs — the paper's
	// "hundreds or even thousands of continuation-based threads".
	s := newSys(4, Options{})
	const n = 500
	var sum atomic.Int64
	s.Run(func() {
		for i := 0; i < n; i++ {
			i := i
			s.Fork(func() {
				s.Yield()
				sum.Add(int64(i))
			})
		}
	})
	want := int64(n * (n - 1) / 2)
	if sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
}

func TestForkUsesIdleProcs(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs >= 2 CPUs")
	}
	s := newSys(2, Options{})
	var peak atomic.Int32
	var cur atomic.Int32
	s.Run(func() {
		done := make(chan struct{})
		s.Fork(func() {
			n := cur.Add(1)
			for peak.Load() < n {
				peak.Store(n)
			}
			<-done
			cur.Add(-1)
		})
		n := cur.Add(1)
		for peak.Load() < n {
			peak.Store(n)
		}
		close(done)
		cur.Add(-1)
	})
	if peak.Load() != 2 {
		t.Fatalf("peak concurrency = %d, want 2 (fork should acquire the idle proc)", peak.Load())
	}
}

func TestSchedulingPolicyIsPluggable(t *testing.T) {
	// A chain of nested forks parks each ancestor on the ready queue; the
	// order ancestors resume in is exactly the queue discipline, so FIFO
	// and LIFO must produce different, fully deterministic traces.
	order := func(mk queue.Factory[Entry]) []int {
		s := New(proc.New(1), Options{NewQueue: mk})
		var got []int
		var chain func(i int)
		chain = func(i int) {
			if i < 3 {
				s.Fork(func() { chain(i + 1) })
			}
			got = append(got, i)
		}
		s.Run(func() { chain(0) })
		return got
	}
	fifo := order(queue.NewFifo[Entry])
	lifo := order(queue.NewLifo[Entry])
	wantFifo := []int{3, 0, 1, 2}
	wantLifo := []int{3, 2, 1, 0}
	for i := range wantFifo {
		if fifo[i] != wantFifo[i] {
			t.Fatalf("fifo trace = %v, want %v", fifo, wantFifo)
		}
		if lifo[i] != wantLifo[i] {
			t.Fatalf("lifo trace = %v, want %v", lifo, wantLifo)
		}
	}
}

func TestDistributedStealing(t *testing.T) {
	s := newSys(4, Options{Distributed: true})
	var ran atomic.Int32
	s.Run(func() {
		for i := 0; i < 200; i++ {
			s.Fork(func() {
				s.Yield()
				ran.Add(1)
			})
		}
	})
	if ran.Load() != 200 {
		t.Fatalf("ran = %d, want 200", ran.Load())
	}
}

func TestPreemption(t *testing.T) {
	s := newSys(2, Options{Quantum: time.Millisecond})
	var spun atomic.Int64
	s.Run(func() {
		for i := 0; i < 4; i++ {
			s.Fork(func() {
				deadline := time.Now().Add(50 * time.Millisecond)
				for time.Now().Before(deadline) {
					spun.Add(1)
					s.CheckPreempt()
				}
			})
		}
	})
	if got := s.Stats().Preempts; got == 0 {
		t.Fatalf("no preemptions after %d iterations", spun.Load())
	}
}

func TestStatsCount(t *testing.T) {
	s := newSys(2, Options{})
	s.Run(func() {
		for i := 0; i < 10; i++ {
			s.Fork(func() { s.Yield() })
		}
	})
	st := s.Stats()
	if st.Forks != 10 {
		t.Errorf("forks = %d, want 10", st.Forks)
	}
	if st.Yields < 10 {
		t.Errorf("yields = %d, want >= 10", st.Yields)
	}
	if st.Dispatches == 0 {
		t.Error("no dispatches recorded")
	}
}

func TestUniFidelity(t *testing.T) {
	u := NewUni(nil)
	var trace []string
	u.Run(func() {
		if u.ID() != 0 {
			t.Errorf("root id = %d, want 0", u.ID())
		}
		u.Fork(func() {
			trace = append(trace, "child")
			if u.ID() != 1 {
				t.Errorf("child id = %d, want 1", u.ID())
			}
			u.Yield()
			trace = append(trace, "child2")
		})
		trace = append(trace, "parent")
		u.Yield()
		trace = append(trace, "parent2")
	})
	// Fig. 1 semantics: fork queues the parent and runs the child now.
	want := []string{"child", "parent", "child2", "parent2"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestUniManyThreads(t *testing.T) {
	u := NewUni(nil)
	count := 0
	u.Run(func() {
		for i := 0; i < 1000; i++ {
			u.Fork(func() { count++ })
		}
	})
	if count != 1000 {
		t.Fatalf("count = %d, want 1000", count)
	}
}

func TestUniRandomPolicy(t *testing.T) {
	u := NewUni(queue.NewRandom[Entry])
	var ids []int
	u.Run(func() {
		for i := 0; i < 20; i++ {
			u.Fork(func() {
				u.Yield()
				ids = append(ids, u.ID())
			})
		}
	})
	if len(ids) != 20 {
		t.Fatalf("got %d completions, want 20", len(ids))
	}
}

func TestRevocationShrinksRunningProcs(t *testing.T) {
	// §3.1: the OS withdraws processors mid-computation; threads keep
	// making progress on the survivors and every thread still completes.
	pl := proc.New(4)
	s := New(pl, Options{})
	var completed atomic.Int32
	s.Run(func() {
		for i := 0; i < 40; i++ {
			s.Fork(func() {
				for j := 0; j < 20; j++ {
					s.CheckPreempt() // safe point: honors revocation
					s.Yield()
				}
				completed.Add(1)
			})
		}
		// Withdraw processors while the storm is in flight.
		pl.SetLimit(1)
	})
	if completed.Load() != 40 {
		t.Fatalf("completed = %d, want 40 despite revocation", completed.Load())
	}
	if live := pl.Live(); live != 0 {
		t.Fatalf("live procs after quiescence = %d", live)
	}
}

// TestSetLimitShrinkWhileBusyReleasesAtSafePoints sharpens the
// revocation test above: it observes the shrink actually *happen*
// mid-run.  After SetLimit(1) lands under a fork storm, the live proc
// count must fall to the new allowance at Dispatch safe points while
// most of the work is still outstanding — processors leave with work
// queued, they do not linger until the queue empties — and every thread
// must still complete on the survivor.
func TestSetLimitShrinkWhileBusyReleasesAtSafePoints(t *testing.T) {
	const nThreads = 32
	pl := proc.New(4)
	s := New(pl, Options{})
	var completed atomic.Int32
	var peakBefore atomic.Int32
	var leftBehind atomic.Int32 // threads unfinished when Live() first hit the new limit
	var shrunk atomic.Bool      // monitor observed Live() at the new limit
	s.Run(func() {
		for i := 0; i < nThreads; i++ {
			s.Fork(func() {
				// Keep yielding until the monitor has observed the shrink, so
				// the observation window cannot close early on a slow or
				// heavily-loaded host; the generous bound turns a broken
				// revocation into a test failure instead of a hang.
				for j := 0; j < 300 || (!shrunk.Load() && j < 1_000_000); j++ {
					s.CheckPreempt()
					s.Yield()
				}
				completed.Add(1)
			})
		}
		s.Fork(func() {
			// Let the storm spread across the full allowance first.
			for pl.Live() < 4 && completed.Load() < nThreads/4 {
				s.Yield()
			}
			peakBefore.Store(int32(pl.Live()))
			pl.SetLimit(1)
			for completed.Load() < nThreads {
				if pl.Live() <= 1 {
					leftBehind.Store(nThreads - completed.Load())
					shrunk.Store(true)
					return
				}
				s.Yield()
			}
			shrunk.Store(true)
		})
	})
	if completed.Load() != nThreads {
		t.Fatalf("completed = %d, want %d", completed.Load(), nThreads)
	}
	if peakBefore.Load() < 2 {
		t.Errorf("peak live before shrink = %d; storm never spread, shrink not exercised", peakBefore.Load())
	}
	if leftBehind.Load() == 0 {
		t.Error("live procs never dropped to the shrunken allowance while work remained: revocation did not release at safe points")
	} else {
		t.Logf("shrink 4→1 observed with %d/%d threads still outstanding", leftBehind.Load(), nThreads)
	}
	if live := pl.Live(); live != 0 {
		t.Fatalf("live procs after quiescence = %d", live)
	}
}

func TestRevocationThenRegrow(t *testing.T) {
	pl := proc.New(4)
	s := New(pl, Options{})
	var peakAfterRegrow atomic.Int32
	s.Run(func() {
		pl.SetLimit(1)
		for i := 0; i < 10; i++ {
			s.Fork(func() { s.Yield() })
		}
		pl.SetLimit(4) // processors come back
		var cur atomic.Int32
		for i := 0; i < 10; i++ {
			s.Fork(func() {
				n := cur.Add(1)
				for {
					p := peakAfterRegrow.Load()
					if n <= p || peakAfterRegrow.CompareAndSwap(p, n) {
						break
					}
				}
				s.Yield()
				cur.Add(-1)
			})
		}
	})
	// With the limit restored, forks should have spread across procs
	// again (at least able to: on a 1-CPU host concurrency may be 1).
	if pl.Stats().Refused == 0 {
		t.Log("note: no refusals observed; limit mechanics exercised via SetLimit")
	}
}

// TestTracedSystemNoRace runs a saturating fork/yield workload with a
// tracer attached, exercising every platform emit path concurrently:
// acquire on recycled tokens, release, and refused acquires.  Its job is
// to fail under `go test -race` if any trace ring ever has two writers
// (the rings are single-writer by contract; see package trace).
func TestTracedSystemNoRace(t *testing.T) {
	const maxProcs = 4
	tr := trace.New(maxProcs, 512)
	tr.Enable()
	pl := proc.New(maxProcs)
	s := New(pl, Options{Distributed: true, Tracer: tr})
	var ran atomic.Int32
	s.Run(func() {
		for i := 0; i < 200; i++ {
			s.Fork(func() {
				ran.Add(1)
				s.Yield()
			})
		}
	})
	if ran.Load() != 200 {
		t.Fatalf("ran = %d, want 200", ran.Load())
	}
	evs := tr.Events()
	if len(evs) == 0 {
		t.Fatal("no events recorded with tracing enabled")
	}
	for _, e := range evs {
		if e.Proc < 0 || e.Proc >= maxProcs {
			t.Fatalf("event %q on ring %d, want [0,%d)", e.Name, e.Proc, maxProcs)
		}
	}
}

// TestIdleYieldsToReadyThread: Idle with a thread ready runs that
// thread instead of blocking the proc, however long d is.
func TestIdleYieldsToReadyThread(t *testing.T) {
	s := newSys(1, Options{})
	var parentRan atomic.Bool
	var elapsed time.Duration
	s.Run(func() {
		// One proc: the child runs here and the parent waits queued.
		s.Fork(func() {
			t0 := time.Now()
			s.Idle(10 * time.Second)
			elapsed = time.Since(t0)
		})
		parentRan.Store(true)
	})
	if !parentRan.Load() {
		t.Fatal("the ready parent never ran")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("Idle blocked %v with a thread ready", elapsed)
	}
}

// TestIdleWaitsOutDeadline: with nothing ready and nobody waking it,
// Idle holds the proc for d, and a second call reuses the timer.
func TestIdleWaitsOutDeadline(t *testing.T) {
	s := newSys(1, Options{})
	var elapsed [2]time.Duration
	s.Run(func() {
		for i := range elapsed {
			t0 := time.Now()
			s.Idle(20 * time.Millisecond)
			elapsed[i] = time.Since(t0)
		}
	})
	for i, e := range elapsed {
		if e < 15*time.Millisecond {
			t.Errorf("Idle #%d returned after %v, want about 20ms", i, e)
		}
	}
}

// TestIdleWakesOnRescheduleAndKick: an idle proc wakes promptly when
// another goroutine reschedules a thread onto the system or kicks it.
func TestIdleWakesOnRescheduleAndKick(t *testing.T) {
	for _, viaKick := range []bool{false, true} {
		s := newSys(1, Options{})
		var ran atomic.Bool
		var elapsed time.Duration
		go func() {
			for deadline := time.Now().Add(10 * time.Second); s.idlers.Load() == 0 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if viaKick {
				s.Kick()
				return
			}
			s.Reschedule(func() {
				ran.Store(true)
				s.Exit()
			}, 99)
		}()
		s.Run(func() {
			t0 := time.Now()
			s.Idle(10 * time.Second)
			elapsed = time.Since(t0)
		})
		if elapsed > 2*time.Second {
			t.Fatalf("kick=%v: Idle took %v to wake", viaKick, elapsed)
		}
		if !viaKick && !ran.Load() {
			t.Fatal("rescheduled thread never ran")
		}
	}
}
