package spinlock

// GCWorld is the slice of gcsync.World a GC-aware lock needs: a
// lock-free flag saying a stop-the-world collection is pending, and a
// clean point the waiter can take mid-wait.  Declared here as an
// interface so this package stays dependency-free, exactly as the
// paper's functors are closed over structures.
//
// syncx.FairLock polls it on every claim-loop iteration, MPL-style
// (Parallel_lockTake polling Proc_threadInSection before each take
// attempt): a proc queued on a lock during a pending collection enters
// the collection first — joining the clean-point barrier if its
// goroutine is bound to an allocating proc, stealing copying work
// otherwise — instead of burning cycles while the entire world waits
// for it, or while the lock holder is itself stopped in the collection.
type GCWorld interface {
	// InSection reports a pending or running collection (one atomic load).
	InSection() bool
	// SectionPoint joins or helps the pending collection; safe from any
	// goroutine at any time.
	SectionPoint()
}
