package shard

// The fabric's one cross-world wait: a thread of one thread system parks
// until a thread of another rings it.  The backend intake parks on its
// ring's doorbell until the front pushes; a front connection thread
// parks on its reply group's doorbell until the backend delivers the
// batch's last reply.  Neither side ever waits for a clock tick to see
// the other's progress.

import (
	"sync/atomic"

	"repro/internal/cml"
)

// doorbell is a sleeping flag in front of a CML mailbox.  A waker rings
// the bell only when it wins the flag back with a CAS, so waking a
// thread that is not asleep costs one atomic load, and each sleep
// consumes exactly one ring.  Waking is safe from any world: the parked
// thread's resume hook reschedules it on its own system, so Send needs
// no scheduler from the caller.
type doorbell struct {
	sleeping atomic.Bool            // the owner is parked, or about to park, on mb
	mb       *cml.Mailbox[struct{}] // carries the one wake token per sleep
}

func newDoorbell() *doorbell { return &doorbell{mb: cml.NewMailbox[struct{}]()} }

// wake rings the bell if its owner is sleeping.  A nil doorbell (a reply
// group whose owner polls instead of sleeping) ignores the call.
func (d *doorbell) wake() {
	if d != nil && d.sleeping.Load() && d.sleeping.CompareAndSwap(true, false) {
		d.mb.Send(nil, struct{}{})
	}
}

// sleep parks the calling thread (of system s) until a wake, unless
// ready — evaluated after the sleeping flag is raised, so a wake-worthy
// event that lands before the park is never missed — already holds.
func (d *doorbell) sleep(s cml.Scheduler, ready func() bool) {
	d.sleeping.Store(true)
	if ready() && d.sleeping.CompareAndSwap(true, false) {
		return
	}
	// Either nothing is ready, or a waker already cleared the flag and
	// its token is on the way: take it, so no stale ring outlives this park.
	d.mb.Recv(s)
}
