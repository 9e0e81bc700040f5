package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"strconv"
	"time"
)

// kind is the handler a generated request targets.
type kind uint8

const (
	kindEcho kind = iota
	kindCompute
	kindMLAlloc
)

// request is one generated request: its wire bytes, the routing key it
// carries, and what a correct answer must contain.
type request struct {
	kind kind
	key  string // X-Shard-Key value; "" sends no routing header
	n    int64  // /compute rounds or /work/mlalloc cells
	seed int64  // /compute or /work/mlalloc seed
	wire []byte // exact request bytes
	want []byte // exact expected body (echo, compute); nil for mlalloc
}

// workload is one traffic mix against one server configuration.
type workload struct {
	name string
	// flags are mpserved deployment flags only (-shards, -procs,
	// -inflight, -queue, -mlalloc); -addr is added by the benchmark.
	flags []string
	// open selects the open loop: Poisson arrivals at rate requests/s.
	// Otherwise each connection keeps pipeline requests outstanding.
	open     bool
	rate     float64
	pipeline int
	// sloMs is the latency limit slo_met_frac counts against.
	sloMs float64
	// bin is the slice of the measured window each end-to-end figure is
	// computed over; a run reports the median over its bins.  It is long
	// enough that a bin's p99 has at least ten samples beyond it.
	bin time.Duration
	// gen draws request number i of one connection's stream.
	gen func(r *rand.Rand) request
}

// poolSize is how many distinct requests each connection cycles
// through: enough that the server sees no repetition it could exploit
// within a pipeline, small enough to pre-generate at set-up.
const poolSize = 4096

// hotKey is the sticky routing key fabric_skew concentrates load on.
const hotKey = "hot"

var workloads = []*workload{
	{
		name:     "echo_direct",
		flags:    nil,
		pipeline: 8,
		sloMs:    5,
		bin:      time.Second,
		gen: func(r *rand.Rand) request {
			return echoRequest(r, 16, 1024, "")
		},
	},
	{
		name:     "fabric_skew",
		flags:    []string{"-shards", "2", "-procs", "1"},
		pipeline: 8,
		sloMs:    100,
		bin:      2 * time.Second,
		gen: func(r *rand.Rand) request {
			key := hotKey
			if r.IntN(2) == 0 {
				key = "k" + strconv.Itoa(r.IntN(64))
			}
			if r.IntN(2) == 0 {
				return echoRequest(r, 16, 256, key)
			}
			return computeRequest(r, 1000+r.Int64N(19001), key)
		},
	},
	{
		name:  "mlalloc_open",
		flags: []string{"-mlalloc"},
		open:  true,
		rate:  500,
		sloMs: 25,
		bin:   2 * time.Second,
		gen: func(r *rand.Rand) request {
			return mlallocRequest(1000+r.Int64N(7001), r.Int64N(1<<20))
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// newRand returns the generator of one stream of a workload: the same
// (workload, seed, stream) always yields the same draws.
func newRand(w *workload, seed int64, stream int) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	return rand.New(rand.NewPCG(uint64(seed), h.Sum64()^uint64(stream)*0x9e3779b97f4a7c15))
}

// pool pre-generates the request cycle of connection stream c.
func pool(w *workload, seed int64, c int) []request {
	r := newRand(w, seed, c)
	reqs := make([]request, poolSize)
	for i := range reqs {
		reqs[i] = w.gen(r)
	}
	return reqs
}

// arrivals returns the open-loop schedule of one load phase: due
// offsets in ns from the phase start, up to d, with exponential gaps of
// mean 1/rate (a Poisson process).  Each phase draws from its own
// stream, separate from every connection's.
func arrivals(w *workload, seed int64, phase int, d time.Duration) []int64 {
	r := newRand(w, seed, -1-phase)
	var out []int64
	for t := r.ExpFloat64() / w.rate * 1e9; t < float64(d); t += r.ExpFloat64() / w.rate * 1e9 {
		out = append(out, int64(math.Round(t)))
	}
	return out
}

const alnum = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

func echoRequest(r *rand.Rand, minLen, maxLen int, key string) request {
	b := make([]byte, minLen+r.IntN(maxLen-minLen+1))
	for i := range b {
		b[i] = alnum[r.IntN(len(alnum))]
	}
	return request{
		kind: kindEcho,
		key:  key,
		wire: wire("/echo?msg="+string(b), key),
		want: b,
	}
}

func computeRequest(r *rand.Rand, n int64, key string) request {
	seed := r.Int64N(1 << 30)
	return request{
		kind: kindCompute,
		key:  key,
		n:    n,
		seed: seed,
		wire: wire(fmt.Sprintf("/compute?n=%d&seed=%d", n, seed), key),
		want: fmt.Appendf(nil, "%d rounds hash %d\n", n, computeHash(n, seed)),
	}
}

func mlallocRequest(n, seed int64) request {
	return request{
		kind: kindMLAlloc,
		n:    n,
		seed: seed,
		wire: wire(fmt.Sprintf("/work/mlalloc?n=%d&seed=%d", n, seed), ""),
	}
}

func wire(target, key string) []byte {
	b := fmt.Appendf(nil, "GET %s HTTP/1.1\r\nHost: bench\r\n", target)
	if key != "" {
		b = fmt.Appendf(b, "X-Shard-Key: %s\r\n", key)
	}
	return append(b, "\r\n"...)
}

// computeHash is the client-side reference of /compute: n rounds of
// xorshift64 from seed|1.
func computeHash(n, seed int64) uint64 {
	h := uint64(seed) | 1
	for i := int64(0); i < n; i++ {
		h ^= h << 13
		h ^= h >> 7
		h ^= h << 17
	}
	return h
}
