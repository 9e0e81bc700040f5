package main

import (
	"math"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1) // 1..100
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {0.999, 100}, {1, 100}, {0, 1}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := quantile([]int64{7}, 0.99); got != 7 {
		t.Errorf("quantile of one sample = %d, want 7", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %d, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	xs := []float64{5, 1}
	median(xs)
	if xs[0] != 5 {
		t.Error("median reordered its argument")
	}
}

// TestSupportedTail checks the highest percentile with at least ten
// samples beyond it, with the sample counts at each boundary.
func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, // median has 9.5 beyond it
		{20, 0.5, true},
		{99, 0.5, true}, // p90 has 9.9 beyond it
		{100, 0.9, true},
		{999, 0.9, true},
		{1000, 0.99, true},
		{10000, 0.999, true},
		{100000, 0.9999, true},
		{10_000_000, 0.9999, true}, // top of the ladder
	} {
		got, ok := supportedTail(c.n)
		if ok != c.ok || math.Abs(got-c.want) > 1e-12 {
			t.Errorf("supportedTail(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

// TestTallyAccountsEveryFailure: every attempt ends in exactly one
// outcome; failures carry no latency sample but count against the SLO.
func TestTallyAccountsEveryFailure(t *testing.T) {
	var a, b tally
	const slo = 10
	a.add(ok, 0, 5, slo)
	a.add(ok, 1, 50, slo) // correct but over the limit
	a.add(badBody, 2, 1, slo)
	b.add(timedOut, 3, 0, slo)
	b.add(ioError, 4, 0, slo)
	b.add(badStatus, 5, 2, slo)
	b.add(ok, 6, 7, slo)
	a.merge(&b)
	if a.attempted() != 7 || a.failed() != 4 {
		t.Fatalf("attempted %d failed %d, want 7 and 4", a.attempted(), a.failed())
	}
	if got := a.errorFrac(); got != 4.0/7 {
		t.Errorf("errorFrac = %v", got)
	}
	if got := a.sloFrac(); got != 2.0/7 {
		t.Errorf("sloFrac = %v, want 2/7: failures and slow answers both miss", got)
	}
	if len(a.latency) != 3 || len(a.at) != 3 {
		t.Errorf("%d latency samples, want one per ok outcome", len(a.latency))
	}
	var empty tally
	if empty.errorFrac() != 0 || empty.sloFrac() != 0 {
		t.Error("empty tally must report zero shares")
	}
}

func TestBinsByDueTime(t *testing.T) {
	var tl tally
	for i := range 10 {
		tl.add(ok, int64(100+i*10), int64(10-i), 1000) // due 100..190
	}
	tl.add(ok, 50, 1, 1000)  // before the window
	tl.add(ok, 200, 1, 1000) // after it
	bs := tl.bins(100, 50, 2)
	if bs[0].ok != 5 || bs[1].ok != 5 {
		t.Fatalf("bin counts %d, %d; want 5, 5", bs[0].ok, bs[1].ok)
	}
	if bs[0].latency[0] != 6 || bs[0].latency[4] != 10 {
		t.Errorf("bin 0 latencies %v, want sorted 6..10", bs[0].latency)
	}
}

func TestHistDeltaP50(t *testing.T) {
	before := "reply_wait_hist le1:5 le2:0 le5:0 inf:0\n"
	after := "x\nreply_wait_hist le1:6 le2:1 le5:4 inf:0\n"
	// Gained 1 at le1, 1 at le2, 4 at le5: the median (3rd of 6) is in le5.
	if got := histDeltaP50([]string{after}, []string{before}, "reply_wait_hist"); got != 5 {
		t.Errorf("histDeltaP50 = %v, want 5", got)
	}
	if got := histDeltaP50([]string{before}, []string{before}, "reply_wait_hist"); got != 0 {
		t.Errorf("no observations: %v, want 0", got)
	}
	// Two processes: 1 at le1 from the first; 3 at le2 from the second.
	one := "reply_wait_hist le1:1 le2:0 le5:0 inf:0\n"
	two := "reply_wait_hist le1:0 le2:3 le5:0 inf:0\n"
	if got := histDeltaP50([]string{one, two}, []string{"", ""}, "reply_wait_hist"); got != 2 {
		t.Errorf("summed over processes: %v, want 2", got)
	}
}

func TestParseMetrics(t *testing.T) {
	body := []byte("# platform registry\n  serve.handled   42\n  serve.queue_ticks   10  mean 2.5\n  serve.latency_ticks   0\n# front registry\n  shard.forwarded_0  3\n  shard.forwarded_1  5\n")
	s := &scrape{backends: []map[string]*registry{parseMetrics(body), parseMetrics(body)}}
	if got := s.counter("platform", "serve.handled"); got != 84 {
		t.Errorf("platform counter summed over backends = %v, want 84", got)
	}
	if got := s.counter("front", "shard.forwarded_1"); got != 5 {
		t.Errorf("front counter = %v, want 5 (read once, not per backend)", got)
	}
	if h := s.hist("platform", "serve.queue_ticks"); h.count != 20 || h.sum() != 50 {
		t.Errorf("hist = %+v, want count 20 sum 50", h)
	}
	if got := s.perShard("shard.forwarded"); len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Errorf("perShard = %v", got)
	}
}
