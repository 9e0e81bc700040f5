package main

import (
	"bytes"
	"fmt"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeServer is a scripted HTTP/1.1 server for the generator's tests:
// it answers every pipelined request, in order, with whatever answer
// returns for its target, and can stall all its connections once.
type fakeServer struct {
	ln     net.Listener
	answer func(target string) (int, string)
	// stallAfter, when non-zero, stalls every connection for stallFor
	// starting at the first request read stallAfter after start.
	stallAfter, stallFor time.Duration
	start                int64

	mu                   sync.Mutex
	stallStart, stallEnd int64 // ns on the benchmark clock; 0 until stalled
	wg                   sync.WaitGroup
}

func newFakeServer(t *testing.T, answer func(string) (int, string)) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeServer{ln: ln, answer: answer, start: nowNs()}
	fs.wg.Add(1)
	go func() {
		defer fs.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			fs.wg.Add(1)
			go func() {
				defer fs.wg.Done()
				fs.serve(c)
			}()
		}
	}()
	t.Cleanup(fs.close)
	return fs
}

func (fs *fakeServer) addr() string { return fs.ln.Addr().String() }

func (fs *fakeServer) close() {
	fs.ln.Close()
	fs.wg.Wait()
}

// stallUntil returns the end of the scripted stall if a request read
// now must wait for it, starting the stall on the first such request.
func (fs *fakeServer) stallUntil(now int64) int64 {
	if fs.stallFor == 0 {
		return 0
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.stallStart == 0 && now-fs.start >= int64(fs.stallAfter) {
		fs.stallStart, fs.stallEnd = now, now+int64(fs.stallFor)
	}
	if fs.stallStart != 0 && now < fs.stallEnd {
		return fs.stallEnd
	}
	return 0
}

func (fs *fakeServer) serve(c net.Conn) {
	defer c.Close()
	buf := make([]byte, 64<<10)
	var acc []byte
	for {
		n, err := c.Read(buf)
		if err != nil {
			return
		}
		acc = append(acc, buf[:n]...)
		var out []byte
		for {
			end := bytes.Index(acc, []byte("\r\n\r\n"))
			if end < 0 {
				break
			}
			line, _, _ := bytes.Cut(acc[:end], []byte("\r\n"))
			acc = acc[end+4:]
			if until := fs.stallUntil(nowNs()); until != 0 {
				time.Sleep(time.Duration(until - nowNs()))
			}
			st, body := fs.answer(strings.Fields(string(line))[1])
			out = fmt.Appendf(out, "HTTP/1.1 %d X\r\nContent-Length: %d\r\nConnection: keep-alive\r\n\r\n%s", st, len(body), body)
		}
		if _, err := c.Write(out); err != nil {
			return
		}
	}
}

// query returns the integer query parameter key of target.
func query(target, key string) int64 {
	_, q, _ := strings.Cut(target, "?")
	for _, kv := range strings.Split(q, "&") {
		if k, v, _ := strings.Cut(kv, "="); k == key {
			n, _ := strconv.ParseInt(v, 10, 64)
			return n
		}
	}
	return 0
}

// mlallocAnswer is a correct /work/mlalloc reply, with foldDelta added
// to fold=.
func mlallocAnswer(foldDelta int64) func(string) (int, string) {
	return func(target string) (int, string) {
		n, seed := query(target, "n"), query(target, "seed")
		fold := n*seed + n*(n-1)/2 + foldDelta
		return 200, fmt.Sprintf("mlalloc n=%d cells=%d sum=12345 fold=%d gcs=7\n", n, n, fold)
	}
}

// testWorkload is mlalloc_open at a test-sized rate.
func testWorkload(open bool) *workload {
	w := *workloadByName("mlalloc_open")
	w.open, w.rate, w.pipeline = open, 500, 4
	return &w
}

func testPools(w *workload, seed int64) [][]request {
	return [][]request{pool(w, seed, 0), pool(w, seed, 1)}
}

func TestWrongFoldCountsAsFailure(t *testing.T) {
	fs := newFakeServer(t, mlallocAnswer(1))
	w := testWorkload(false)
	res := runPhase(&loadConfig{addr: fs.addr(), w: w, pools: testPools(w, 1), timeout: 5 * time.Second, dur: 200 * time.Millisecond}, nowNs())
	if res.attempted() == 0 {
		t.Fatal("no requests attempted")
	}
	if res.counts[ok] != 0 || res.counts[badBody] != res.attempted() {
		t.Fatalf("outcomes %v: every reply has a wrong fold= and must fail as bad_body", res.counts)
	}
	if res.errorFrac() != 1 {
		t.Fatalf("error_frac %v, want 1", res.errorFrac())
	}
}

func TestCorrectFoldPasses(t *testing.T) {
	fs := newFakeServer(t, mlallocAnswer(0))
	w := testWorkload(false)
	res := runPhase(&loadConfig{addr: fs.addr(), w: w, pools: testPools(w, 1), timeout: 5 * time.Second, dur: 200 * time.Millisecond}, nowNs())
	if res.attempted() == 0 || res.failed() != 0 {
		t.Fatalf("outcomes %v: a correct server must give no failures", res.counts)
	}
	if int64(len(res.latency)) != res.counts[ok] {
		t.Fatalf("%d latency samples for %d ok responses", len(res.latency), res.counts[ok])
	}
}

func TestNon2xxAndDeadConnectionAreFailures(t *testing.T) {
	fs := newFakeServer(t, func(string) (int, string) { return 503, "shed\n" })
	w := testWorkload(false)
	res := runPhase(&loadConfig{addr: fs.addr(), w: w, pools: testPools(w, 1), timeout: 5 * time.Second, dur: 100 * time.Millisecond}, nowNs())
	if res.attempted() == 0 || res.counts[badStatus] != res.attempted() {
		t.Fatalf("outcomes %v: every 503 must count as bad_status", res.counts)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens: every dial fails
	res = runPhase(&loadConfig{addr: addr, w: w, pools: testPools(w, 1), timeout: time.Second, dur: 50 * time.Millisecond}, nowNs())
	if res.attempted() == 0 || res.counts[ioError] != res.attempted() {
		t.Fatalf("outcomes %v: refused dials must count as io_error", res.counts)
	}
}

// TestOpenLoopChargesStallToEveryDueRequest stalls the server once for
// 200 ms and checks that every request due during the stall is charged
// from its due time to the end of the stall, that none is dropped, and
// that the generator itself kept to its schedule.
func TestOpenLoopChargesStallToEveryDueRequest(t *testing.T) {
	fs := newFakeServer(t, mlallocAnswer(0))
	fs.stallAfter, fs.stallFor = 300*time.Millisecond, 200*time.Millisecond
	w := testWorkload(true)
	d := time.Second
	sched := arrivals(w, 7, 1, d)
	start := nowNs()
	fs.start = start
	res := runPhase(&loadConfig{addr: fs.addr(), w: w, pools: testPools(w, 7), timeout: 5 * time.Second, sched: sched}, start)

	if res.attempted() != int64(len(sched)) || res.failed() != 0 {
		t.Fatalf("attempted %d of %d scheduled, outcomes %v", res.attempted(), len(sched), res.counts)
	}
	if fs.stallStart == 0 {
		t.Fatal("the server never stalled")
	}
	charged := 0
	for i, due := range res.at {
		if due < fs.stallStart || due >= fs.stallEnd {
			continue
		}
		charged++
		if want := fs.stallEnd - due; res.latency[i] < want {
			t.Errorf("request due %v into the stall: latency %v, want at least %v",
				time.Duration(due-fs.stallStart), time.Duration(res.latency[i]), time.Duration(want))
		}
	}
	// 500 req/s over a 200 ms stall: about 100 requests were due in it.
	if charged < 50 {
		t.Fatalf("only %d requests due during the stall", charged)
	}
	// A writer held up by the stall would write the ~20% of requests due
	// in it up to 200 ms late.  Half that allows for the burst of answers
	// at the end of the stall competing for the CPUs (tens of ms under
	// the race detector).
	late := slices.Clone(res.late)
	slices.Sort(late)
	if p99 := quantile(late, 0.99); p99 > int64(fs.stallFor/2) {
		t.Fatalf("generator p99 lateness %v: the stall held up the writer", time.Duration(p99))
	}
}
