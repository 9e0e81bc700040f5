package shard

// Guard on the committed benchmark artifact: the sharded keep-alive
// fabric must beat the single-shard Connection: close baseline it
// replaced, and the keep-alive load generator must actually have reused
// connections when producing it.

import (
	"encoding/json"
	"os"
	"testing"
)

type benchSummary struct {
	KeepAlive   bool    `json:"keepalive"`
	Pipeline    int     `json:"pipeline"`
	OK          int64   `json:"ok"`
	ConnsDialed int64   `json:"conns_dialed"`
	ReusedRatio float64 `json:"reused_ratio"`
	Throughput  float64 `json:"throughput_rps"`
	SocketReads int64   `json:"socket_reads"`
	RespPerRead float64 `json:"responses_per_read"`
}

type stealCounters struct {
	Steals        int64 `json:"steals"`
	Stolen        int64 `json:"stolen"`
	StealAttempts int64 `json:"steal_attempts"`
	StealAborts   int64 `json:"steal_aborts"`
	RingExpired   int64 `json:"ring_expired"`
}

func TestBenchArtifactShardBeatsBaseline(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_shard.json")
	if err != nil {
		t.Fatalf("missing benchmark artifact: %v", err)
	}
	var bench struct {
		Before benchSummary `json:"before"`
		After  benchSummary `json:"after"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	if bench.Before.Throughput <= 0 || bench.After.Throughput <= 0 {
		t.Fatal("benchmark artifact has non-positive throughput")
	}
	if bench.After.Throughput <= bench.Before.Throughput {
		t.Errorf("4-shard keep-alive throughput %.1f not strictly above single-shard baseline %.1f",
			bench.After.Throughput, bench.Before.Throughput)
	}
	if !bench.After.KeepAlive || bench.Before.KeepAlive {
		t.Error("artifact modes inverted: after must be keep-alive, before must not be")
	}
	if bench.After.ReusedRatio < 0.5 {
		t.Errorf("keep-alive run reused-conn ratio %.3f, want >= 0.5", bench.After.ReusedRatio)
	}
	if bench.After.ConnsDialed >= bench.After.OK {
		t.Errorf("keep-alive run dialed %d conns for %d responses — connections were not reused",
			bench.After.ConnsDialed, bench.After.OK)
	}
}

// TestBenchArtifactBatchingBeatsSingleDequeue guards the PR-4 artifact:
// the batched + stealing fabric must beat the single-dequeue configuration
// of the *same* binary by at least 10% on an identical pipelined keep-alive
// workload, the skewed run must actually exercise the steal path, and the
// uniform run must show zero aborted claims (no steal livelock when load is
// balanced).
func TestBenchArtifactBatchingBeatsSingleDequeue(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_batch.json")
	if err != nil {
		t.Fatalf("missing benchmark artifact: %v", err)
	}
	var bench struct {
		Before      benchSummary  `json:"before"`
		After       benchSummary  `json:"after"`
		AfterServer stealCounters `json:"after_server_counters"`
		Skew        benchSummary  `json:"skew"`
		SkewServer  stealCounters `json:"skew_server_counters"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	if bench.Before.Throughput <= 0 || bench.After.Throughput <= 0 {
		t.Fatal("benchmark artifact has non-positive throughput")
	}
	if got := bench.After.Throughput / bench.Before.Throughput; got < 1.10 {
		t.Errorf("batched throughput %.1f is only %.2fx the single-dequeue baseline %.1f, want >= 1.10x",
			bench.After.Throughput, got, bench.Before.Throughput)
	}
	// Both legs must be the workload that can form batches at all: keep-alive
	// connections writing pipelined runs of >= 2 requests.
	for name, leg := range map[string]benchSummary{"before": bench.Before, "after": bench.After} {
		if !leg.KeepAlive {
			t.Errorf("%s leg is not keep-alive; the comparison must hold the client fixed", name)
		}
		if leg.Pipeline < 2 {
			t.Errorf("%s leg pipeline = %d, want >= 2 so multi-push batches can form", name, leg.Pipeline)
		}
	}
	// The skewed run drives one hot shard: siblings must have stolen work.
	if bench.SkewServer.Steals < 1 {
		t.Errorf("skewed run recorded %d successful steals, want >= 1", bench.SkewServer.Steals)
	}
	if bench.SkewServer.Stolen < bench.SkewServer.Steals {
		t.Errorf("skewed run stolen %d < steals %d — each claim must move at least one job",
			bench.SkewServer.Stolen, bench.SkewServer.Steals)
	}
	// Uniform load must not devolve into claim/abort churn.
	if bench.AfterServer.StealAborts != 0 {
		t.Errorf("uniform run recorded %d aborted steal claims, want 0", bench.AfterServer.StealAborts)
	}
	if bench.AfterServer.RingExpired != 0 || bench.SkewServer.RingExpired != 0 {
		t.Errorf("ring-dwell expiries (after=%d skew=%d) in runs sized to avoid shedding, want 0",
			bench.AfterServer.RingExpired, bench.SkewServer.RingExpired)
	}
}

// TestBenchArtifactReplyCoalescing guards the PR-5 artifact: group reply
// completion plus batched response rendering must beat the per-cell
// wait / per-response write configuration of the *same* binary by at
// least 15% on an identical pipelined keep-alive workload.  Both legs
// must be a workload where reply batches can form at all (keep-alive,
// pipeline >= 2), and the coalesced leg must actually have coalesced:
// the client's framed reads should each carry more than one response.
func TestBenchArtifactReplyCoalescing(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_reply.json")
	if err != nil {
		t.Fatalf("missing benchmark artifact: %v", err)
	}
	var bench struct {
		Before benchSummary `json:"before"`
		After  benchSummary `json:"after"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	if bench.Before.Throughput <= 0 || bench.After.Throughput <= 0 {
		t.Fatal("benchmark artifact has non-positive throughput")
	}
	if got := bench.After.Throughput / bench.Before.Throughput; got < 1.15 {
		t.Errorf("coalesced-reply throughput %.1f is only %.2fx the per-cell baseline %.1f, want >= 1.15x",
			bench.After.Throughput, got, bench.Before.Throughput)
	}
	for name, leg := range map[string]benchSummary{"before": bench.Before, "after": bench.After} {
		if !leg.KeepAlive {
			t.Errorf("%s leg is not keep-alive; the comparison must hold the client fixed", name)
		}
		if leg.Pipeline < 2 {
			t.Errorf("%s leg pipeline = %d, want >= 2 so reply batches can form", name, leg.Pipeline)
		}
	}
	// The coalesced leg's wire must show batching: strictly more
	// responses per data-bearing client read than the per-cell leg, and
	// comfortably more than one.
	if bench.After.RespPerRead <= 1.2 {
		t.Errorf("coalesced leg responses/read = %.2f, want > 1.2 — writes were not coalesced",
			bench.After.RespPerRead)
	}
	if bench.After.RespPerRead <= bench.Before.RespPerRead {
		t.Errorf("coalesced leg responses/read %.2f not above per-cell leg %.2f",
			bench.After.RespPerRead, bench.Before.RespPerRead)
	}
}

type muxLatency struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
}

type muxLeg struct {
	benchSummary
	Errors    int64      `json:"errors"`
	IdleConns int64      `json:"idle_conns"`
	IdleHeld  int64      `json:"idle_held"`
	IdleSent  int64      `json:"idle_sent"`
	IdleOK    int64      `json:"idle_ok"`
	IdleDrops int64      `json:"idle_drops"`
	Latency   muxLatency `json:"latency_ms"`
}

type muxServerStats struct {
	Pollers       int64 `json:"pollers"`
	ConnsParked   int64 `json:"conns_parked"`
	PollWakeups   int64 `json:"poll_wakeups"`
	ResumeBatches int64 `json:"resume_batches"`
	Goroutines    int64 `json:"goroutines"`
	Threads       int64 `json:"threads"`
	HeapAlloc     int64 `json:"heap_alloc"`
}

// TestBenchArtifactMux guards the PR-6 artifact: the event-multiplexed
// front must hold a mostly-idle keep-alive population at the reference
// host's fd ceiling (hard NOFILE rlimit 20000, unraisable there, so the
// population is sized to 18k — not the ISSUE's 50-100k, which needs a
// host with a liftable limit; the artifact records the environment)
// with zero liveness-ping drops, a flat OS thread count, bounded
// per-connection heap, and the active subset still served.
func TestBenchArtifactMux(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_mux.json")
	if err != nil {
		t.Fatalf("missing benchmark artifact: %v", err)
	}
	var bench struct {
		Env struct {
			NofileLimit int64 `json:"nofile_limit"`
		} `json:"env"`
		Before muxLeg `json:"before"`
		After  muxLeg `json:"after"`
		Server struct {
			Base muxServerStats `json:"base"`
			Held muxServerStats `json:"held"`
		} `json:"server"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}

	// The population: at the recorded fd ceiling, fully held, no drops.
	if bench.Env.NofileLimit > 0 && bench.After.IdleConns < bench.Env.NofileLimit-2048 {
		t.Errorf("idle population %d not sized to the recorded fd ceiling %d",
			bench.After.IdleConns, bench.Env.NofileLimit)
	}
	if bench.After.IdleConns < 15000 {
		t.Errorf("idle population %d, want >= 15000", bench.After.IdleConns)
	}
	if bench.After.IdleHeld < bench.After.IdleConns {
		t.Errorf("peak idle conns held %d < requested %d — the population never fully held",
			bench.After.IdleHeld, bench.After.IdleConns)
	}
	if bench.After.IdleDrops != 0 {
		t.Errorf("idle liveness pings dropped %d connections, want 0", bench.After.IdleDrops)
	}
	if bench.After.IdleOK < bench.After.IdleConns {
		t.Errorf("idle pings ok %d < population %d — not every held conn proved live",
			bench.After.IdleOK, bench.After.IdleConns)
	}
	if bench.Before.IdleConns != 0 {
		t.Error("baseline leg carries an idle population; it must be active-only")
	}
	for name, leg := range map[string]muxLeg{"before": bench.Before, "after": bench.After} {
		if !leg.KeepAlive {
			t.Errorf("%s leg is not keep-alive; the comparison must hold the client fixed", name)
		}
		if leg.Errors != 0 {
			t.Errorf("%s leg recorded %d transport errors, want 0", name, leg.Errors)
		}
		if leg.OK < 1 {
			t.Errorf("%s leg served no active requests", name)
		}
	}

	// The server: the population parked on a fixed poller pool, not on
	// per-connection threads or goroutines, with small parked state.
	if bench.Server.Held.ConnsParked < 15000 {
		t.Errorf("conns_parked at hold = %d, want >= 15000", bench.Server.Held.ConnsParked)
	}
	if bench.Server.Held.Pollers < 1 || bench.Server.Held.Pollers > 16 {
		t.Errorf("pollers = %d, want a small fixed pool", bench.Server.Held.Pollers)
	}
	if got := bench.Server.Held.Threads - bench.Server.Base.Threads; got > 64 {
		t.Errorf("OS threads grew by %d while holding the population, want flat (<= 64)", got)
	}
	if bench.Server.Held.Goroutines-bench.Server.Base.Goroutines > 64 {
		t.Errorf("goroutines grew by %d while holding the population, want flat (<= 64)",
			bench.Server.Held.Goroutines-bench.Server.Base.Goroutines)
	}
	if parked := bench.Server.Held.ConnsParked; parked > 0 {
		perConn := (bench.Server.Held.HeapAlloc - bench.Server.Base.HeapAlloc) / parked
		if perConn > 8192 {
			t.Errorf("heap grew %d bytes per parked conn, want <= 8192", perConn)
		}
	}
	if bench.Server.Held.PollWakeups < 1 || bench.Server.Held.ResumeBatches < 1 {
		t.Errorf("poller instruments flat (wakeups=%d resume_batches=%d): the pool never drove a resume",
			bench.Server.Held.PollWakeups, bench.Server.Held.ResumeBatches)
	}

	// The active subset must remain served at sane latency next to the
	// parked population.  The bound is loose — the reference host has
	// one CPU and the liveness pings are real added load — but it rules
	// out the population starving the active path outright.
	if b, a := bench.Before.Latency.P99, bench.After.Latency.P99; b > 0 && a > b*3+25 {
		t.Errorf("active p99 %.1fms with population held vs %.1fms baseline — parked conns are not cheap",
			a, b)
	}
}

type fairLeg struct {
	benchSummary
	Skew    float64 `json:"skew_hot_fraction"`
	Latency struct {
		P999 float64 `json:"p999"`
	} `json:"latency_ms"`
}

type fairServer struct {
	Fair          bool             `json:"fair_locks"`
	RingWaits     int64            `json:"ring_waits"`
	RingWaitOver  int64            `json:"ring_wait_over"`
	ReplySpin     int64            `json:"reply_spin"`
	ReplyPark     int64            `json:"reply_park"`
	RingWaitHist  map[string]int64 `json:"ring_wait_hist"`
	ReplyWaitHist map[string]int64 `json:"reply_wait_hist"`
}

// TestBenchArtifactFairLock guards the PR-10 artifact: the fair FIFO
// claim/release configuration must hold throughput within 5% of the
// TAS-spin baseline of the *same* binary under skewed keep-alive load,
// flatten the client p99.9 (the bounded-wait claim), and show a
// bounded, non-heavy-tail claim-wait distribution on the instrumented
// ring histogram.  Both legs must be the workload the claim is about:
// keep-alive, pipelined, with a sticky hot key.
func TestBenchArtifactFairLock(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_fairlock.json")
	if err != nil {
		t.Fatalf("missing benchmark artifact: %v", err)
	}
	var bench struct {
		Spin       fairLeg    `json:"spin"`
		Fair       fairLeg    `json:"fair"`
		SpinServer fairServer `json:"spin_server"`
		FairServer fairServer `json:"fair_server"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	if bench.Spin.Throughput <= 0 || bench.Fair.Throughput <= 0 {
		t.Fatal("benchmark artifact has non-positive throughput")
	}
	// Throughput within 5% of the spin baseline (here it is above it, but
	// the ISSUE's bound is the contract).
	if got := bench.Fair.Throughput / bench.Spin.Throughput; got < 0.95 {
		t.Errorf("fair-lock throughput %.1f is only %.3fx the spin baseline %.1f, want >= 0.95x",
			bench.Fair.Throughput, got, bench.Spin.Throughput)
	}
	// The tail-flattening claim: fair p99.9 strictly below the spin
	// baseline's.
	if bench.Spin.Latency.P999 <= 0 || bench.Fair.Latency.P999 <= 0 {
		t.Fatal("artifact is missing p99.9 latency")
	}
	if bench.Fair.Latency.P999 >= bench.Spin.Latency.P999 {
		t.Errorf("fair p99.9 %.2fms not strictly below spin baseline %.2fms",
			bench.Fair.Latency.P999, bench.Spin.Latency.P999)
	}
	// Both legs must be the skewed keep-alive workload, error-free.
	for name, leg := range map[string]fairLeg{"spin": bench.Spin, "fair": bench.Fair} {
		if !leg.KeepAlive {
			t.Errorf("%s leg is not keep-alive; the comparison must hold the client fixed", name)
		}
		if leg.Pipeline < 2 {
			t.Errorf("%s leg pipeline = %d, want >= 2", name, leg.Pipeline)
		}
		if leg.Skew < 0.5 {
			t.Errorf("%s leg hot-key skew %.2f, want >= 0.5 — the claim is about contended rings", name, leg.Skew)
		}
	}
	// The legs must have measured what they say: fair locks on/off.
	if !bench.FairServer.Fair || bench.SpinServer.Fair {
		t.Error("artifact legs inverted: fair_server must report fair_locks true, spin_server false")
	}
	// The claim-wait instrument must be live on the fair leg...
	if bench.FairServer.RingWaits < 1 {
		t.Error("fair leg recorded no contended ring claims; the wait histogram never fired")
	}
	// ...and its distribution bounded: no more than 1% of contended
	// claims past the largest bucket bound (the heavy tail the protocol
	// rules out), and the overflow field consistent with the histogram.
	if over := bench.FairServer.RingWaitHist["inf"]; over != bench.FairServer.RingWaitOver {
		t.Errorf("ring_wait_over %d disagrees with histogram overflow bucket %d",
			bench.FairServer.RingWaitOver, over)
	}
	if share := float64(bench.FairServer.RingWaitOver) / float64(bench.FairServer.RingWaits); share > 0.01 {
		t.Errorf("claim-wait overflow share %.3f (over %d of %d), want <= 0.01 — heavy tail",
			share, bench.FairServer.RingWaitOver, bench.FairServer.RingWaits)
	}
	// The bounded-wait mechanism on the reply path: the memoryless fair
	// wait must not park more than the adaptive spin baseline (park
	// storms from budget collapse are the spin path's tail pathology).
	if bench.FairServer.ReplyPark > bench.SpinServer.ReplyPark {
		t.Errorf("fair leg parked %d reply waits vs %d on the spin baseline — bounded waits should park less",
			bench.FairServer.ReplyPark, bench.SpinServer.ReplyPark)
	}
}

// TestBenchArtifactElastic guards the elastic-membership artifact: a
// runtime 2->4 scale-up must lift the steady keep-alive plateau by at
// least 1.2x, the drain-out back to 2 shards must drop zero in-flight
// requests, the concurrent pub/sub load must lose zero acked
// deliveries across both handoffs, and the transition dip must stay
// bounded to its two scale buckets.
func TestBenchArtifactElastic(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_elastic.json")
	if err != nil {
		t.Fatalf("missing benchmark artifact: %v", err)
	}
	var bench struct {
		Elastic struct {
			TwoShardRPS  float64 `json:"two_shard_rps"`
			FourShardRPS float64 `json:"four_shard_rps"`
			PostDrainRPS float64 `json:"post_drain_rps"`
			Dip          struct {
				MinTransitionRPS float64 `json:"min_transition_rps"`
				BelowPlateau     int     `json:"buckets_below_two_shard_plateau"`
				Sheds            int64   `json:"sheds_during_transitions"`
				Errors           int64   `json:"errors_during_transitions"`
			} `json:"dip"`
			Counters struct {
				ScaleUps      int64 `json:"scale_ups"`
				ScaleDowns    int64 `json:"scale_downs"`
				Joins         int64 `json:"member_joins"`
				Leaves        int64 `json:"member_leaves"`
				HandoffTopics int64 `json:"handoff_topics"`
				HandoffSubs   int64 `json:"handoff_subs"`
			} `json:"membership_counters"`
			Park struct {
				OK      int64 `json:"ok"`
				Errors  int64 `json:"errors"`
				Expired int64 `json:"expired"`
			} `json:"park"`
			PubSub struct {
				Acked        int64 `json:"pub_acked"`
				Delivered    int64 `json:"delivered"`
				MissingAcked int64 `json:"missing_acked"`
				CleanClosed  int64 `json:"sub_clean_closed"`
				Subscribers  int64 `json:"subscribers"`
			} `json:"pubsub"`
		} `json:"elastic"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	e := bench.Elastic
	if e.TwoShardRPS <= 0 || e.FourShardRPS <= 0 {
		t.Fatal("artifact has non-positive plateau throughput")
	}
	if e.FourShardRPS < 1.2*e.TwoShardRPS {
		t.Errorf("4-shard steady throughput %.1f below 1.2x the 2-shard plateau %.1f",
			e.FourShardRPS, e.TwoShardRPS)
	}
	if e.PostDrainRPS < 0.8*e.TwoShardRPS {
		t.Errorf("post-drain throughput %.1f collapsed below the 2-shard plateau %.1f",
			e.PostDrainRPS, e.TwoShardRPS)
	}
	if e.Park.Errors != 0 || e.Park.Expired != 0 {
		t.Errorf("park load saw %d errors / %d expired across the scale cycle, want 0/0",
			e.Park.Errors, e.Park.Expired)
	}
	if e.Dip.Errors != 0 {
		t.Errorf("transition buckets saw %d errors, want 0 (sheds are the only allowed dip)", e.Dip.Errors)
	}
	if e.Dip.Sheds > 10 {
		t.Errorf("transition buckets shed %d requests, want a handful at most", e.Dip.Sheds)
	}
	if e.Counters.ScaleUps < 1 || e.Counters.ScaleDowns < 1 {
		t.Errorf("cycle must contain at least one scale-up and one drain-out, got %d/%d",
			e.Counters.ScaleUps, e.Counters.ScaleDowns)
	}
	if e.Counters.Joins < 1 || e.Counters.Leaves < 1 || e.Counters.HandoffTopics < 1 {
		t.Errorf("membership counters show no real handoff: joins %d leaves %d handoff_topics %d",
			e.Counters.Joins, e.Counters.Leaves, e.Counters.HandoffTopics)
	}
	if e.PubSub.MissingAcked != 0 {
		t.Errorf("pubsub lost %d acked deliveries across the handoffs, want 0", e.PubSub.MissingAcked)
	}
	if e.PubSub.CleanClosed != e.PubSub.Subscribers {
		t.Errorf("only %d of %d subscriptions closed cleanly (ledger not fully checked)",
			e.PubSub.CleanClosed, e.PubSub.Subscribers)
	}
	if e.PubSub.Acked <= 0 || e.PubSub.Delivered < e.PubSub.Acked {
		t.Errorf("pubsub artifact inconsistent: acked %d delivered %d", e.PubSub.Acked, e.PubSub.Delivered)
	}
}
