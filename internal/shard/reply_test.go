package shard

// Unit tests for the reply path's completion structures: the group
// countdown's open/seal bias accounting (cells may deliver before the
// final membership is known), and the adaptive spin discipline.

import (
	"testing"

	"repro/internal/serve"
)

// TestReplyGroupCompletesOnLastDelivery: a sealed group publishes
// exactly when its last member delivers, and each delivered cell's
// response is readable through the cell.
func TestReplyGroupCompletesOnLastDelivery(t *testing.T) {
	grp := &replyGroup{}
	grp.open()
	cells := make([]reply, 3)
	for i := range cells {
		cells[i] = reply{grp: grp}
	}
	cells[0].deliver(serve.Response{Status: 200, Body: []byte("a")})
	cells[1].deliver(serve.Response{Status: 404, Body: []byte("b")})
	grp.seal(3)
	if grp.done() {
		t.Fatal("group done with one member undelivered")
	}
	cells[2].deliver(serve.Response{Status: 200, Body: []byte("c")})
	if !grp.done() {
		t.Fatal("group not done after the last delivery")
	}
	for i, want := range []int{200, 404, 200} {
		if cells[i].resp.Status != want {
			t.Errorf("cell %d status %d, want %d", i, cells[i].resp.Status, want)
		}
	}
}

// TestReplyGroupToleratesEarlyDeliveryAndSheds is the open-bias
// contract: deliveries racing ahead of seal, and ring-full sheds that
// shrink the membership below the cells created, must both account
// correctly.
func TestReplyGroupToleratesEarlyDeliveryAndSheds(t *testing.T) {
	grp := &replyGroup{}
	grp.open()
	a := reply{grp: grp}
	_ = reply{grp: grp} // created, but its push will be shed
	a.deliver(serve.Response{Status: 200})
	// Only one cell actually reached a backend: membership is 1.
	grp.seal(1)
	if !grp.done() {
		t.Fatal("group not done: the shed cell must not count")
	}

	// Empty batch (everything shed or answered at the front): done at seal.
	grp.open()
	grp.seal(0)
	if !grp.done() {
		t.Fatal("empty membership must complete immediately")
	}

	// Reuse after completion: open re-arms.
	grp.open()
	if grp.done() {
		t.Fatal("freshly opened group reports done")
	}
	grp.seal(0)
}

// TestNoAllocsReplyPath: the steady-state completion machinery — group
// open/seal, cell delivery, the done poll, and a spin-phase wait — must
// not touch the heap; it runs once per forwarded batch on the hot path.
func TestNoAllocsReplyPath(t *testing.T) {
	grp := &replyGroup{}
	cells := make([]reply, 8)
	if n := testing.AllocsPerRun(200, func() {
		grp.open()
		for i := range cells {
			cells[i].resp = serve.Response{}
			cells[i].done.Store(false)
			cells[i].grp = grp
		}
		for i := range cells {
			cells[i].deliver(serve.Response{Status: 200})
		}
		grp.seal(len(cells))
		fairWait(grp.done, 64, func() {}, func() {})
	}); n != 0 {
		t.Fatalf("reply completion path allocates %.1f times per batch", n)
	}
}

// TestSpinWaitChecksAfterEveryYield: a yield can cost a whole scheduler
// rotation, so the reply wait's spin phase must re-check the condition
// after each one — a wait whose condition holds after the Nth yield
// spends exactly N and never parks.
func TestSpinWaitChecksAfterEveryYield(t *testing.T) {
	yields := 0
	spins, parks := fairWait(func() bool { return yields >= 3 }, 64,
		func() { yields++ }, func() { t.Fatal("parked") })
	if spins != 3 || parks != 0 {
		t.Errorf("spent (%d spins, %d parks), want (3, 0)", spins, parks)
	}
}

// TestFairWaitIsMemoryless: the fair reply wait spends exactly the same
// bounded spin phase on every invocation — no adaptation, no history —
// and overruns into parks only past the fixed budget.  A yield can cost
// a whole scheduler rotation, so the condition is re-checked after every
// single yield: a wait whose condition holds after the Nth yield spends
// exactly N, with one check per yield or park plus the first.  A budget
// below 1 is clamped to 1, so a degenerate setting still spins once
// rather than parking on every wait forever.
func TestFairWaitIsMemoryless(t *testing.T) {
	for round := 0; round < 3; round++ {
		parked := 0
		spins, parks := fairWait(func() bool { return parked >= 2 }, 8,
			func() {}, func() { parked++ })
		if spins != 8 || parks != 2 {
			t.Fatalf("round %d spent (%d spins, %d parks), want (8, 2) every round", round, spins, parks)
		}
	}
	cases := []struct {
		budget, needYields, needParks int
		spins, parks                  int
	}{
		{budget: 8, needYields: 0, spins: 0},                         // already true: no yield
		{budget: 8, needYields: 1, spins: 1},                         // resolves on the first yield
		{budget: 8, needYields: 3, spins: 3},                         // imminent: inside the spin phase
		{budget: 8, needYields: 8, spins: 8},                         // exactly the budget, still no park
		{budget: 8, needYields: 8, needParks: 1, spins: 8, parks: 1}, // one past: parks
		{budget: 0, needYields: 1, spins: 1},                         // zero budget clamped to 1
		{budget: -3, needYields: 1, spins: 1},                        // negative budget clamped to 1
		{budget: 0, needYields: 1, needParks: 2, spins: 1, parks: 2}, // clamped budget, then parks
		{budget: 2, needYields: 2, needParks: 3, spins: 2, parks: 3}, // small budget, long wait
	}
	for _, c := range cases {
		yields, parked, checks := 0, 0, 0
		cond := func() bool {
			checks++
			return yields >= c.needYields && parked >= c.needParks
		}
		spins, parks := fairWait(cond, c.budget, func() { yields++ }, func() { parked++ })
		if spins != c.spins || parks != c.parks {
			t.Errorf("budget %d, cond after %d yields + %d parks: spent (%d spins, %d parks), want (%d, %d)",
				c.budget, c.needYields, c.needParks, spins, parks, c.spins, c.parks)
		}
		if checks != spins+parks+1 {
			t.Errorf("budget %d: %d condition checks for %d yields + %d parks, want one after each plus the first",
				c.budget, checks, spins, parks)
		}
	}
}
