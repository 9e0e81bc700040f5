// Package proc implements the Proc half of the MP platform (paper §3.1,
// §3.2): a language-level view of a kernel thread executing on a physical
// processor.
//
// A proc here is a *token* drawn from a bounded pool.  At any instant
// exactly one goroutine holds each live token; holding the token is what
// it means to "be" that proc, and the Go scheduler supplies the actual
// parallelism (up to GOMAXPROCS) just as Irix/Dynix/Mach supplied it to
// SML/NJ.  The pool reproduces the paper's semantics precisely:
//
//   - a compile-time-style constant (MaxProcs) bounds the procs the
//     runtime will provide; Acquire past the limit returns ErrNoMoreProcs
//     (the exception No_More_Procs);
//   - Release returns the token and may later be re-used by a subsequent
//     Acquire, mirroring "the runtime system may choose to re-use a
//     previously released kernel thread";
//   - each proc carries a single client-defined datum, read and written by
//     GetDatum/SetDatum; the datum follows the proc, not the thread, and
//     is conveyed across continuation throws by the baton protocol in
//     package cont.
//
// Initially a single root proc executes the client's root function; the
// platform's Run returns when every proc has been released (quiescence),
// which is how client programs join.
package proc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cont"
	"repro/internal/gls"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// ErrNoMoreProcs is the paper's exception No_More_Procs: the proc limit
// has been reached and no released proc is available for re-use.
var ErrNoMoreProcs = errors.New("mp: no more procs")

// Proc is a processor token.  Its fields are accessed only by the single
// goroutine currently holding it; hand-off between goroutines happens via
// channel sends, which establish the necessary happens-before edges.
type Proc struct {
	id       int
	datum    any
	released atomic.Bool
	pl       *Platform
}

// ID returns the proc's small dense identifier (0 is the root proc).
func (p *Proc) ID() int { return p.id }

// Datum returns the proc's private datum.  Like GetDatum it is only
// safe on the goroutine currently holding the proc; clients that
// already hold a Current() result use it to avoid a second
// goroutine-local lookup.
func (p *Proc) Datum() any { return p.datum }

// SetDatum overwrites the proc's private datum; same holder-only
// contract as Datum.
func (p *Proc) SetDatum(d any) { p.datum = d }

// PS is the paper's proc_state: the continuation a newly acquired proc
// starts executing, plus the initial per-proc datum.
type PS struct {
	K     *cont.Cont[cont.Unit]
	Datum any
}

// Stats counts platform activity; useful for tests and the evaluation
// harness.  It is a merged view of the platform's metrics registry.
type Stats struct {
	Created  int // distinct proc tokens ever created
	Acquired int // successful Acquire calls (including re-use)
	Reused   int // Acquires satisfied from the free list
	Refused  int // Acquires that returned ErrNoMoreProcs
	Released int // Release calls
}

// platformMetrics caches the platform's counter handles so the
// registry's name lookup never appears on the acquire/release path.
type platformMetrics struct {
	created  *metrics.Counter
	acquired *metrics.Counter
	reused   *metrics.Counter
	refused  *metrics.Counter
	released *metrics.Counter
}

// Platform is the MP processor manager.
type Platform struct {
	max     int
	mu      sync.Mutex
	free    []*Proc
	created int
	limit   int // current physical-processor allowance (≤ max)
	live    sync.WaitGroup
	running atomic.Bool

	reg *metrics.Registry
	m   platformMetrics

	tracer    *trace.Tracer
	evAcquire trace.EventID
	evRelease trace.EventID
	evRefuse  trace.EventID
}

// New returns a platform that will provide at most maxProcs procs, the
// analogue of the runtime's compile-time proc limit.  Typical clients set
// maxProcs to the number of physical processors (runtime.GOMAXPROCS(0)).
func New(maxProcs int) *Platform {
	if maxProcs < 1 {
		panic("proc: platform needs at least one proc")
	}
	pl := &Platform{max: maxProcs, limit: maxProcs, reg: metrics.NewRegistry(maxProcs)}
	pl.m = platformMetrics{
		created:  pl.reg.Counter("proc.created"),
		acquired: pl.reg.Counter("proc.acquired"),
		reused:   pl.reg.Counter("proc.reused"),
		refused:  pl.reg.Counter("proc.refused"),
		released: pl.reg.Counter("proc.released"),
	}
	return pl
}

// MaxProcs reports the platform's proc limit.
func (pl *Platform) MaxProcs() int { return pl.max }

// SetLimit changes the number of physical processors the platform may
// use, clamped to [1, MaxProcs].  The paper's §3.1: "the number of
// physical processors available to an SML/NJ image can change without
// warning during a computation, as a result of activity by other users
// and by the operating system itself."  Shrinking the limit does not
// preempt anyone — procs discover the revocation at their next safe
// point via Revoked and release themselves, the cooperative model the
// paper's clients use for everything.
func (pl *Platform) SetLimit(n int) {
	if n < 1 {
		n = 1
	}
	if n > pl.max {
		n = pl.max
	}
	pl.mu.Lock()
	pl.limit = n
	pl.mu.Unlock()
}

// Limit reports the current physical-processor allowance.
func (pl *Platform) Limit() int {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.limit
}

// Live reports how many procs are currently held by clients.
func (pl *Platform) Live() int {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.created - len(pl.free)
}

// Revoked reports whether more procs are live than the current limit
// allows, i.e. whether the calling proc should save its state and
// Release at its next safe point.  Any proc may answer the revocation;
// the signal clears as soon as enough have.
func (pl *Platform) Revoked() bool {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.created-len(pl.free) > pl.limit
}

// Stats returns a merged snapshot of the platform counters.  The read
// is lock-free — per-shard atomic loads, never the platform mutex — so
// sampling stats mid-benchmark cannot perturb Acquire/Release timing.
func (pl *Platform) Stats() Stats {
	return Stats{
		Created:  int(pl.m.created.Value()),
		Acquired: int(pl.m.acquired.Value()),
		Reused:   int(pl.m.reused.Value()),
		Refused:  int(pl.m.refused.Value()),
		Released: int(pl.m.released.Value()),
	}
}

// Metrics exposes the platform's registry so harnesses can fold proc
// counters into a unified snapshot.
func (pl *Platform) Metrics() *metrics.Registry { return pl.reg }

// SetTracer attaches an event tracer.  Call before Run.
//
// Ring discipline (trace rings are single-writer): acquire is emitted on
// the acquired proc's ring by the acquirer, which owns the token
// exclusively between popping it from the free list and handing it to
// cont.Start; release is emitted by the releasing holder before the
// token re-enters the free list; a refused acquire is emitted on the
// *calling* proc's ring (there is no affected proc), and not at all when
// Acquire is called from outside the platform.
func (pl *Platform) SetTracer(t *trace.Tracer) {
	pl.tracer = t
	if t != nil {
		pl.evAcquire = t.Define("proc.acquire")
		pl.evRelease = t.Define("proc.release")
		pl.evRefuse = t.Define("proc.refuse")
	}
}

// Acquire starts a new proc executing the continuation in ps, with ps.Datum
// as its per-proc datum (paper: acquire_proc).  It returns ErrNoMoreProcs
// when the proc limit is reached, which clients typically handle by
// enqueueing the continuation on a ready queue instead (Fig. 3).
func (pl *Platform) Acquire(ps PS) error {
	if ps.K == nil {
		panic("proc: Acquire with nil continuation")
	}
	pl.mu.Lock()
	if pl.created-len(pl.free) >= pl.limit {
		// Within capacity but beyond the OS's current allowance.
		pl.mu.Unlock()
		pl.refuse()
		return ErrNoMoreProcs
	}
	var p *Proc
	reused := false
	switch {
	case len(pl.free) > 0:
		p = pl.free[len(pl.free)-1]
		pl.free = pl.free[:len(pl.free)-1]
		reused = true
	case pl.created < pl.max:
		p = &Proc{id: pl.created, pl: pl}
		pl.created++
	default:
		pl.mu.Unlock()
		pl.refuse()
		return ErrNoMoreProcs
	}
	// Safe: Acquire is only callable from code running on a live proc, so
	// the live counter is nonzero here.
	pl.live.Add(1)
	pl.mu.Unlock()

	if reused {
		pl.m.reused.Inc(p.id)
	} else {
		pl.m.created.Inc(p.id)
	}
	pl.m.acquired.Inc(p.id)
	// Emitting on ring p.id from the acquirer's goroutine is race-free:
	// the previous holder's release emit happens-before the free-list
	// append (see release), the pop above orders it before this write
	// under pl.mu, and cont.Start's goroutine creation orders this write
	// before anything the started proc emits.  One writer at a time.
	pl.tracer.Emit(p.id, pl.evAcquire, int64(p.id))
	p.released.Store(false)
	p.datum = ps.Datum
	cont.Start(ps.K, cont.Unit{}, p)
	return nil
}

// refuse accounts a failed Acquire on the calling proc's shard and ring.
// Refusal is the common Fork path once procs saturate, so hard-coding
// shard 0 here would bounce one cache line across every forking proc —
// exactly the contention the sharded registry exists to avoid.  Off-proc
// callers (setup code, tests) fall back to shard 0 for the counter and
// skip the trace emit, preserving the rings' single-writer invariant.
func (pl *Platform) refuse() {
	self, onProc := callerID()
	pl.m.refused.Inc(self)
	if onProc {
		pl.tracer.Emit(self, pl.evRefuse, 0)
	}
}

// callerID returns the id of the proc held by the calling goroutine, or
// (0, false) when the goroutine holds none.
func callerID() (int, bool) {
	if v, ok := gls.Get(); ok {
		if p, ok := v.(*Proc); ok {
			return p.id, true
		}
	}
	return 0, false
}

// Release stops the calling proc and returns it to the pool (paper:
// release_proc, of ML type unit -> 'a).  It never returns; the calling
// goroutine is unwound.  Clients wishing to save their execution state
// first capture a continuation with Callcc.
func (pl *Platform) Release() {
	p := Current()
	pl.release(p)
	cont.Exit()
}

// ReleaseIfRevoked is Revoked and Release as one step: if more procs are
// live than the current limit allows, the calling proc is returned to the
// pool and the call never returns; otherwise it returns at once.  The
// check and the free-list return share one critical section, so when
// several procs answer the same revocation exactly the surplus leaves —
// a separate Revoked-then-Release lets two procs both see live > limit
// and both release, stranding queued work with no proc left to run it.
func (pl *Platform) ReleaseIfRevoked() {
	p := Current()
	pl.mu.Lock()
	if pl.created-len(pl.free) <= pl.limit || !p.released.CompareAndSwap(false, true) {
		pl.mu.Unlock()
		return
	}
	pl.retireLocked(p)
	pl.mu.Unlock()
	pl.live.Done()
	cont.Exit()
}

// release is idempotent so that the root wrapper's deferred release cannot
// double-free a proc the root function already released.
func (pl *Platform) release(p *Proc) {
	if !p.released.CompareAndSwap(false, true) {
		return
	}
	pl.mu.Lock()
	pl.retireLocked(p)
	pl.mu.Unlock()
	pl.live.Done()
}

// retireLocked returns a proc whose released flag the caller has just
// set to the free list; the caller holds pl.mu.
func (pl *Platform) retireLocked(p *Proc) {
	p.datum = nil
	pl.m.released.Inc(p.id)
	// Emit before the token re-enters the free list: once the append below
	// publishes it, a concurrent Acquire may pop the token and write ring
	// p.id, and the rings are single-writer.  The mutex hand-off is the
	// happens-before edge between this emit and the acquirer's.
	pl.tracer.Emit(p.id, pl.evRelease, int64(p.id))
	pl.free = append(pl.free, p)
}

// Current returns the proc held by the calling goroutine.
func Current() *Proc {
	v, ok := gls.Get()
	if !ok {
		panic("mp: operation outside Platform.Run")
	}
	p, ok := v.(*Proc)
	if !ok {
		panic(fmt.Sprintf("mp: foreign baton %T on this goroutine", v))
	}
	return p
}

// GetDatum returns the calling proc's private datum (paper: get_datum).
func GetDatum() any { return Current().datum }

// SetDatum overwrites the calling proc's private datum (paper: set_datum).
func SetDatum(d any) { Current().datum = d }

// Self returns the calling proc's id; a convenience beyond the paper's
// interface, used by the evaluation harness and the distributed scheduler.
func Self() int { return Current().id }

// TrySelf returns the calling proc's id, or (0, false) when the calling
// goroutine holds no proc — code running outside Platform.Run, such as a
// host bootstrap goroutine.  Callers use it to pick a sharded-structure
// slot without requiring the MP world.
func TrySelf() (int, bool) { return callerID() }

// Run bootstraps the root proc executing root with the given initial
// datum (paper: initial_datum) and blocks until the platform quiesces —
// i.e. until every proc, including the root, has been released.  If root
// returns normally, the proc it is then holding is released implicitly.
func (pl *Platform) Run(root func(), initialDatum any) {
	if !pl.running.CompareAndSwap(false, true) {
		panic("proc: Platform.Run is not reentrant")
	}
	defer pl.running.Store(false)

	pl.mu.Lock()
	if pl.created != 0 || len(pl.free) != 0 {
		// Allow repeated Run calls on a quiesced platform by recycling.
		pl.free = pl.free[:0]
		pl.created = 0
	}
	p := &Proc{id: 0, pl: pl}
	pl.created = 1
	pl.live.Add(1)
	pl.mu.Unlock()
	pl.m.created.Inc(0)
	pl.m.acquired.Inc(0)
	pl.tracer.Emit(0, pl.evAcquire, 0)
	p.datum = initialDatum

	go func() {
		gls.Set(p)
		defer func() {
			r := recover()
			// Release the proc currently held at return time: the root
			// goroutine may have migrated to a different token by the
			// time the root function returns.
			if r == nil {
				if v, ok := gls.Get(); ok {
					pl.release(v.(*Proc))
				}
			}
			gls.Del()
			if r != nil && !cont.IsExit(r) {
				panic(r)
			}
		}()
		root()
	}()

	pl.live.Wait()
}
