package main

// Layer probes: the traced run replays a workload's generated inputs
// through the public functions of each layer inside this process, with
// a span around each call, so a per-layer cost can be compared with the
// end-to-end number it should move.

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cml"
	"repro/internal/core"
	"repro/internal/gcsync"
	"repro/internal/mlheap"
	"repro/internal/proc"
	"repro/internal/serve"
	"repro/internal/syncx"
	"repro/internal/threads"
)

// Probe span thread ids, apart from the connection ids.
const (
	tidConnProbe = 100 + iota
	tidSubmitProbe
	tidRecordProbe
	tidLockProbe
)

// memConn is an in-memory net.Conn: reads drain a script, writes are
// dropped.
type memConn struct {
	in []byte
}

func (m *memConn) Read(p []byte) (int, error) {
	if len(m.in) == 0 {
		return 0, io.EOF
	}
	n := copy(p, m.in)
	m.in = m.in[n:]
	return n, nil
}

func (m *memConn) Write(p []byte) (int, error) { return len(p), nil }

func (m *memConn) Close() error                     { return nil }
func (m *memConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (m *memConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (m *memConn) SetDeadline(time.Time) error      { return nil }
func (m *memConn) SetReadDeadline(time.Time) error  { return nil }
func (m *memConn) SetWriteDeadline(time.Time) error { return nil }

// responseBody is the body a correct server returns for r.
func responseBody(r *request) []byte {
	if r.kind == kindMLAlloc {
		fold := r.n*r.seed + r.n*(r.n-1)/2
		return fmt.Appendf(nil, "mlalloc n=%d cells=%d sum=%d fold=%d gcs=%d\n", r.n, r.n, fold, fold, 0)
	}
	return r.want
}

// connProbe replays the exact request bytes of reqs, in batches of
// depth pipelined requests, through serve.NewConn + Conn.ReadRequest /
// ReadBuffered (parse) and Conn.WriteResponses (render and write).  It
// returns ns per parsed request, ns per written response and heap
// allocations per request.
func connProbe(reqs []request, depth, rounds int, rec *recorder) (parseNs, writeNs, allocs float64, err error) {
	const far = 1 << 30 // ticks: the probe never hits a deadline
	var in []byte
	bodies := make([][]byte, len(reqs))
	for i := range reqs {
		in = append(in, reqs[i].wire...)
		bodies[i] = responseBody(&reqs[i])
	}
	resps := make([]serve.Response, 0, depth)
	// Sized up front so recording spans allocates nothing in the window
	// the allocation count covers.
	spans := make([]span, 0, 2*rounds*len(reqs))
	var parseTotal, writeTotal, n int64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for range rounds {
		mc := &memConn{in: in}
		c := serve.NewConn(mc, serve.ConnConfig{
			Clock: cml.NewClock(),
			Park:  func(int64) {},
			Pool:  serve.NewBufPool(1),
		})
		next := 0
		for next < len(reqs) {
			resps = resps[:0]
			t0 := nowNs()
			_, rerr := c.ReadRequest(far, far)
			t1 := nowNs()
			if rerr != nil {
				return 0, 0, 0, fmt.Errorf("conn probe: ReadRequest: %w", rerr)
			}
			spans = append(spans, span{name: "serve.Conn.ReadRequest", id: int64(next), tid: tidConnProbe, start: t0, end: t1})
			parseTotal += t1 - t0
			resps = append(resps, serve.Response{Status: 200, Body: bodies[next]})
			next++
			for len(resps) < depth && next < len(reqs) {
				t0 = nowNs()
				_, okb, berr := c.ReadBuffered(far)
				t1 = nowNs()
				if berr != nil {
					return 0, 0, 0, fmt.Errorf("conn probe: ReadBuffered: %w", berr)
				}
				if !okb {
					break // the rest of the batch is past the read block
				}
				spans = append(spans, span{name: "serve.Conn.ReadBuffered", id: int64(next), tid: tidConnProbe, start: t0, end: t1})
				parseTotal += t1 - t0
				resps = append(resps, serve.Response{Status: 200, Body: bodies[next]})
				next++
			}
			t0 = nowNs()
			if werr := c.WriteResponses(resps, far, true); werr != nil {
				return 0, 0, 0, fmt.Errorf("conn probe: WriteResponses: %w", werr)
			}
			t1 = nowNs()
			spans = append(spans, span{name: "serve.Conn.WriteResponses", id: int64(next), tid: tidConnProbe, start: t0, end: t1})
			writeTotal += t1 - t0
		}
		n += int64(len(reqs))
	}
	runtime.ReadMemStats(&ms1)
	rec.addAll(spans)
	allocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
	return float64(parseTotal) / float64(n), float64(writeTotal) / float64(n), allocs, nil
}

// submitProbe times serve.Server.Submit until the deliver callback, on
// a NoListener server over an nproc-proc thread system, called from an
// MP thread, for each of reqs in turn.  It returns the per-request
// durations in ns and how many answers were wrong.
func submitProbe(reqs []request, procs int, ml bool, rec *recorder) ([]int64, int, error) {
	pl := proc.New(procs)
	sys := threads.New(pl, threads.Options{})
	opts := serve.Options{NoListener: true}
	if ml {
		// As mpserved -mlalloc: one world covering every in-flight seat,
		// GC-aware locks on.
		opts.MLWorld = gcsync.NewWorld(mlheap.Config{
			NurseryWords: 1 << 16, SemiWords: 1 << 20, ChunkWords: 1024, RegionWords: 512, Procs: 64,
		})
		opts.MLGCAware = true
	}
	srv, err := serve.New(sys, opts)
	if err != nil {
		return nil, 0, err
	}
	durs := make([]int64, 0, len(reqs))
	spans := make([]span, 0, len(reqs))
	wrong := 0
	sys.Run(func() {
		srv.Serve()
		for i := range reqs {
			r := &reqs[i]
			path, query := cutTarget(r.wire)
			var done atomic.Bool
			var got serve.Response
			t0 := nowNs()
			var t1 int64
			accepted := srv.Submit(&serve.Request{Method: "GET", Path: path, RawQuery: query, Proto: "HTTP/1.1"}, 1<<20,
				func(resp serve.Response) {
					t1 = nowNs()
					got = resp
					done.Store(true)
				})
			if !accepted {
				wrong++
				continue
			}
			for !done.Load() {
				sys.Yield()
			}
			if check(r, got.Status, got.Body) != ok {
				wrong++
			}
			durs = append(durs, t1-t0)
			spans = append(spans, span{name: "serve.Server.Submit", id: int64(i), tid: tidSubmitProbe, start: t0, end: t1})
		}
		srv.Drain()
	})
	rec.addAll(spans)
	return durs, wrong, nil
}

// cutTarget splits the request line of wire into path and raw query.
func cutTarget(wire []byte) (path, query string) {
	line, _, _ := strings.Cut(string(wire), "\r\n")
	f := strings.Fields(line)
	if len(f) < 2 {
		return "", ""
	}
	path, query, _ = strings.Cut(f[1], "?")
	return path, query
}

// recordProbe builds one list per length with gcsync.Alloc.Record on a
// single-proc world sized like mpserved's, collecting as the nursery
// fills, and returns ns per Record call.
func recordProbe(lengths []int64, rec *recorder) float64 {
	w := gcsync.NewWorld(mlheap.Config{
		NurseryWords: 1 << 16, SemiWords: 1 << 20, ChunkWords: 1024, RegionWords: 512, Procs: 1,
	})
	a := w.Attach()
	defer a.Detach()
	var list mlheap.Value
	a.AddRoot(&list)
	defer a.RemoveRoot(&list)
	var total, calls int64
	spans := make([]span, 0, len(lengths))
	for i, n := range lengths {
		list = mlheap.Nil
		t0 := nowNs()
		for j := int64(0); j < n; j++ {
			list = a.Record(mlheap.Int(j), list)
		}
		t1 := nowNs()
		spans = append(spans, span{name: "gcsync.Alloc.Record", id: int64(i), tid: tidRecordProbe, start: t0, end: t1})
		total += t1 - t0
		calls += n
	}
	rec.addAll(spans)
	return float64(total) / float64(calls)
}

// lockProbe has claimants goroutines each take and release l iters
// times around a one-word critical section, and returns the median ns
// per Lock/Unlock pair over blocks of lockBlock pairs.
func lockProbe(name string, l core.Lock, claimants, iters int, rec *recorder) float64 {
	const lockBlock = 256
	var shared int64
	var wg sync.WaitGroup
	per := make([][]span, claimants)
	for g := range claimants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < iters/lockBlock; b++ {
				t0 := nowNs()
				for range lockBlock {
					l.Lock()
					shared++
					l.Unlock()
				}
				per[g] = append(per[g], span{name: name, id: int64(b), tid: tidLockProbe + g, start: t0, end: nowNs()})
			}
		}()
	}
	wg.Wait()
	var perPair []float64
	for _, ss := range per {
		rec.addAll(ss)
		for _, s := range ss {
			perPair = append(perPair, float64(s.end-s.start)/lockBlock)
		}
	}
	return median(perPair)
}

// lockFactories are the lock probes: the default hot-path lock
// (core.NewMutexLock, the backoff spin lock) and the FIFO claim lock.
var lockFactories = []struct {
	metric string
	make   func() core.Lock
}{
	{"spinlock.claim_ns", core.NewMutexLock},
	{"syncx.fairlock.claim_ns", func() core.Lock { return syncx.NewFairLock() }},
}

// p50 of int64 samples, as a float.
func p50(xs []int64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return float64(quantile(s, 0.5))
}
