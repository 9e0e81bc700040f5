package shard

// The reply path's completion structures: the single-assignment reply
// cell a forwarded request is answered through, the per-batch countdown
// group that lets a connection thread park once per batch instead of
// once per straggler, and the bounded wait it spends on that group.
//
// Like the forward ring (ring.go), everything here crosses the
// front/backend thread-system boundary, so the primitives are bare
// atomics rather than semaphores: a backend worker must never park a
// front thread on the backend's scheduler or vice versa.  The backend
// stores the response then flips the cell's done flag (release); the
// front polls (acquire) with yields and clock parks of its own.

import (
	"sync/atomic"

	"repro/internal/serve"
)

// reply is the single-assignment completion cell for one forwarded
// request.  A cell enrolled in a replyGroup also decrements the group's
// countdown on delivery, so the batch wait observes "all delivered"
// from a single word.
type reply struct {
	resp serve.Response
	done atomic.Bool
	grp  *replyGroup
}

// deliver publishes the response; the done flag's store is the release
// edge that makes resp visible to the front thread's acquire load, and
// the group decrement after it is what the batched wait parks on.
func (r *reply) deliver(resp serve.Response) {
	r.resp = resp
	r.done.Store(true)
	if r.grp != nil {
		r.grp.remaining.Add(-1)
	}
}

// openBias is the count parked in a replyGroup while its batch is still
// being forwarded.  Cells can be delivered — and decrement the group —
// before the final membership is known (a ring-full shed drops cells
// mid-forward), so the counter cannot simply start at the batch size:
// it starts at the bias, absorbs early decrements, and seal() retires
// the bias against the real membership.  Any value comfortably above
// every possible in-flight decrement works; 2^40 is unreachable.
const openBias = int64(1) << 40

// replyGroup is the per-batch completion countdown: the last delivery
// drives remaining to zero, publishing the whole batch at once.
type replyGroup struct {
	remaining atomic.Int64
}

// open arms the group for a new batch.  The owning connection thread
// only reuses a group after done() returned true, so the store cannot
// race a straggling delivery.
func (g *replyGroup) open() { g.remaining.Store(openBias) }

// seal fixes the batch membership at members cells, retiring the open
// bias.  After seal, remaining counts exactly the undelivered cells.
func (g *replyGroup) seal(members int) { g.remaining.Add(int64(members) - openBias) }

// done reports whether every sealed member has delivered.  The atomic
// load orders after the final deliver's decrement, which itself orders
// after that cell's response store — so done() implies every member's
// resp is readable.
func (g *replyGroup) done() bool { return g.remaining.Load() == 0 }

// fairWait is the reply-wait discipline: a fixed allowance of budget
// yields (at least one), then park(1) rounds until cond holds.  The
// wait is memoryless — no connection's history buys it a longer spin
// phase than its neighbors get, so every waiter pays exactly the same
// bounded spin before parking, the reply-side analogue of the claim
// queue's bounded-wait guarantee.  The condition is re-checked after
// every single yield: a yield can cost a whole scheduler rotation (the
// pump's sleep, the acceptor's poll window), so skipping checks would
// turn microseconds of slack into milliseconds of overshoot.  Returns
// the yields and parks spent (metrics inputs).
func fairWait(cond func() bool, budget int, yield func(), park func(int64)) (spins, parks int) {
	if budget < 1 {
		budget = 1
	}
	for !cond() {
		if spins < budget {
			yield()
			spins++
			continue
		}
		park(1)
		parks++
	}
	return spins, parks
}
