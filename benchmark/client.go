package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"time"
)

// base anchors every timestamp the benchmark records: monotonic
// nanoseconds since process start.
var base = time.Now()

func nowNs() int64 { return int64(time.Since(base)) }

// loadConfig is one load phase against a running server.
type loadConfig struct {
	addr    string
	w       *workload
	pools   [][]request // one request cycle per connection
	timeout time.Duration
	rec     *recorder // nil: untraced
	// sched is the open-loop schedule: due offsets in ns from the
	// phase start, request i going to connection i%len(pools).
	sched []int64
	// dur bounds a closed-loop phase: requests are sent until dur has
	// passed, then the outstanding ones are drained.
	dur time.Duration
}

// phaseResult is what one load phase measured.
type phaseResult struct {
	tally
	late  []int64  // open loop: ns each request was written after it was due
	wrong []string // the first few non-ok answers, for the report
	start int64    // ns the phase started
}

// inflight is one written request awaiting its response.
type inflight struct {
	req        *request
	id         int64
	due, write int64 // ns; due == write in the closed loop
	writeEnd   int64
	first      int64 // ns the first byte of the response was read
}

// runPhase drives one load phase on len(cfg.pools) connections from
// start (ns, now or just past) and returns once every request it sent
// has an outcome.
func runPhase(cfg *loadConfig, start int64) phaseResult {
	conns := len(cfg.pools)
	results := make([]phaseResult, conns)
	var wg sync.WaitGroup
	for c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cc := &connRunner{cfg: cfg, c: c, pool: cfg.pools[c], res: &results[c]}
			if cfg.w.open {
				cc.runOpen(start)
			} else {
				cc.runClosed(start)
			}
		}()
	}
	wg.Wait()
	var out phaseResult
	for i := range results {
		out.merge(&results[i].tally)
		out.late = append(out.late, results[i].late...)
		out.wrong = append(out.wrong, results[i].wrong...)
	}
	out.start = start
	return out
}

// connRunner is one connection's share of a phase.
type connRunner struct {
	cfg  *loadConfig
	c    int
	pool []request
	res  *phaseResult
	nc   net.Conn
	seq  int64 // requests sent
	next int   // pool cursor

	mu      sync.Mutex // guards pending in the open loop
	pending []inflight
	spans   []span
}

func (cc *connRunner) sloNs() int64 { return int64(cc.cfg.w.sloMs * 1e6) }

func (cc *connRunner) dial() error {
	t0 := nowNs()
	nc, err := net.DialTimeout("tcp", cc.cfg.addr, cc.cfg.timeout)
	if cc.cfg.rec != nil {
		cc.spans = append(cc.spans, span{name: "dial", tid: cc.c, start: t0, end: nowNs()})
	}
	if err != nil {
		return err
	}
	cc.nc = nc
	return nil
}

// take returns the next request of the connection's cycle and its id.
func (cc *connRunner) take() (*request, int64) {
	r := &cc.pool[cc.next]
	cc.next = (cc.next + 1) % len(cc.pool)
	cc.seq++
	return r, int64(cc.c)<<40 | cc.seq
}

// finish records one request's outcome and, when traced, its spans.
func (cc *connRunner) finish(f *inflight, o outcome, last int64) {
	cc.res.add(o, f.due, last-f.due, cc.sloNs())
	if cc.cfg.rec == nil {
		return
	}
	if f.writeEnd == 0 {
		f.writeEnd = f.write
	}
	if f.first == 0 {
		f.first = last
	}
	cc.spans = append(cc.spans,
		span{name: "request", id: f.id, tid: cc.c, start: f.due, end: last},
		span{name: "write", id: f.id, tid: cc.c, start: f.write, end: f.writeEnd},
		span{name: "first_byte", id: f.id, tid: cc.c, start: f.writeEnd, end: max(f.first, f.writeEnd)},
		span{name: "last_byte", id: f.id, tid: cc.c, start: max(f.first, f.writeEnd), end: last},
	)
	if f.write > f.due {
		cc.spans = append(cc.spans, span{name: "late", id: f.id, tid: cc.c, start: f.due, end: f.write})
	}
}

// failAll gives every outstanding request outcome o and drops the
// connection; the caller redials if the phase continues.
func (cc *connRunner) failAll(o outcome) {
	now := nowNs()
	for i := range cc.pending {
		cc.finish(&cc.pending[i], o, now)
	}
	cc.pending = cc.pending[:0]
	if cc.nc != nil {
		cc.nc.Close()
		cc.nc = nil
	}
}

// reader accumulates response bytes and matches complete responses, in
// order, to the head of the pending queue.
type reader struct {
	buf []byte
	acc []byte
}

func newReader() *reader { return &reader{buf: make([]byte, 64<<10)} }

// consume parses every complete response in acc against pending (which
// the caller must hold) and returns how many it finished, or an error
// for a malformed stream.
func (cc *connRunner) consume(rd *reader, pending *[]inflight, now int64) (int, error) {
	done := 0
	for {
		if len(*pending) == 0 {
			if len(rd.acc) > 0 {
				return done, errMalformed // bytes nobody asked for
			}
			return done, nil
		}
		head := &(*pending)[0]
		if head.first == 0 && len(rd.acc) > 0 {
			head.first = now
		}
		status, body, n, err := parseResponse(rd.acc)
		if err != nil {
			return done, err
		}
		if n == 0 {
			return done, nil
		}
		o := check(head.req, status, body)
		if o != ok && len(cc.res.wrong) < 3 {
			line, _, _ := strings.Cut(string(head.req.wire), "\r\n")
			cc.res.wrong = append(cc.res.wrong, fmt.Sprintf("%s: %s, status %d, body %.200q", line, outcomeNames[o], status, body))
		}
		cc.finish(head, o, now)
		rd.acc = rd.acc[n:]
		*pending = (*pending)[1:]
		done++
	}
}

// runClosed keeps cfg.w.pipeline requests outstanding on the connection
// until the phase duration passes, writing one batch of replacements
// per read that completes responses, then drains.
func (cc *connRunner) runClosed(start int64) {
	stopAt := start + int64(cc.cfg.dur)
	depth := cc.cfg.w.pipeline
	rd := newReader()
	var wbuf []byte
	send := func(k int) error {
		wbuf = wbuf[:0]
		first := len(cc.pending)
		t0 := nowNs()
		for range k {
			r, id := cc.take()
			wbuf = append(wbuf, r.wire...)
			cc.pending = append(cc.pending, inflight{req: r, id: id, due: t0, write: t0})
		}
		cc.nc.SetWriteDeadline(time.Now().Add(cc.cfg.timeout))
		_, err := cc.nc.Write(wbuf)
		t1 := nowNs()
		for i := first; i < len(cc.pending); i++ {
			cc.pending[i].writeEnd = t1
		}
		return err
	}
	for {
		if cc.nc == nil {
			if nowNs() >= stopAt {
				break
			}
			if err := cc.dial(); err != nil {
				// A refused dial is an attempted request that failed.
				cc.res.add(ioError, 0, 0, 0)
				time.Sleep(10 * time.Millisecond)
				continue
			}
			rd.acc = rd.acc[:0]
			if err := send(depth); err != nil {
				cc.failAll(ioError)
				continue
			}
		}
		if len(cc.pending) == 0 {
			break
		}
		cc.nc.SetReadDeadline(time.Now().Add(cc.cfg.timeout))
		n, err := cc.nc.Read(rd.buf)
		now := nowNs()
		rd.acc = append(rd.acc, rd.buf[:n]...)
		done, perr := cc.consume(rd, &cc.pending, now)
		if perr != nil {
			cc.failAll(ioError)
			continue
		}
		if err != nil && len(cc.pending) > 0 {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				cc.failAll(timedOut)
			} else {
				cc.failAll(ioError)
			}
			continue
		}
		if done > 0 && now < stopAt {
			if err := send(done); err != nil {
				cc.failAll(ioError)
			}
		}
		rd.compact()
	}
	if cc.nc != nil {
		cc.nc.Close()
	}
	cc.flushSpans()
}

// compact moves unconsumed bytes to the front of the accumulator so it
// does not grow without bound.
func (rd *reader) compact() {
	if cap(rd.acc)-len(rd.acc) < 16<<10 {
		rd.acc = append(make([]byte, 0, max(2*len(rd.acc), 64<<10)), rd.acc...)
	}
}

// runOpen writes each of this connection's scheduled requests at its
// due time, whatever is outstanding, while a reader goroutine matches
// responses.  Latency is measured from the due time, so a stall is
// charged to every request due during it.
func (cc *connRunner) runOpen(start int64) {
	if err := cc.dial(); err != nil {
		for i := cc.c; i < len(cc.cfg.sched); i += len(cc.cfg.pools) {
			cc.res.add(ioError, 0, 0, 0)
		}
		cc.flushSpans()
		return
	}
	nc := cc.nc
	conns := len(cc.cfg.pools)
	writerDone := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		cc.openReader(nc, writerDone)
	}()

	var wbuf []byte
	broken := false
	for i := cc.c; i < len(cc.cfg.sched); {
		due := start + cc.cfg.sched[i]
		if d := due - nowNs(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		// Write every request of this connection that is due by now in
		// one batch: a late generator catches up without dropping any.
		now := nowNs()
		wbuf = wbuf[:0]
		cc.mu.Lock()
		for ; i < len(cc.cfg.sched) && start+cc.cfg.sched[i] <= now; i += conns {
			r, id := cc.take()
			wbuf = append(wbuf, r.wire...)
			d := start + cc.cfg.sched[i]
			cc.pending = append(cc.pending, inflight{req: r, id: id, due: d, write: now})
			cc.res.late = append(cc.res.late, now-d)
		}
		cc.mu.Unlock()
		if broken {
			continue // the reader fails these at its timeout
		}
		nc.SetWriteDeadline(time.Now().Add(cc.cfg.timeout))
		_, err := nc.Write(wbuf)
		t1 := nowNs()
		cc.mu.Lock()
		// The batch is the pending tail still lacking a write end (the
		// reader may already have finished some of it).
		for k := len(cc.pending) - 1; k >= 0 && cc.pending[k].writeEnd == 0; k-- {
			cc.pending[k].writeEnd = t1
		}
		cc.mu.Unlock()
		if err != nil {
			broken = true
			nc.Close()
		}
	}
	close(writerDone)
	readerWG.Wait()
	nc.Close()
	cc.flushSpans()
}

// openReader matches responses for runOpen until the writer is done and
// nothing is outstanding.  A response overdue by the timeout fails every
// outstanding request, and the connection with them.
func (cc *connRunner) openReader(nc net.Conn, writerDone <-chan struct{}) {
	rd := newReader()
	dead := false
	for {
		cc.mu.Lock()
		idle := len(cc.pending) == 0
		var oldest int64
		if !idle {
			oldest = cc.pending[0].write
		}
		cc.mu.Unlock()
		if idle {
			select {
			case <-writerDone:
				cc.mu.Lock()
				idle = len(cc.pending) == 0
				cc.mu.Unlock()
				if idle {
					return
				}
				continue
			default:
			}
		}
		if dead {
			cc.mu.Lock()
			cc.failPending(ioError)
			cc.mu.Unlock()
			time.Sleep(time.Millisecond)
			continue
		}
		if !idle && nowNs()-oldest > int64(cc.cfg.timeout) {
			cc.mu.Lock()
			cc.failPending(timedOut)
			cc.mu.Unlock()
			dead = true
			nc.Close()
			continue
		}
		nc.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		n, err := nc.Read(rd.buf)
		now := nowNs()
		if n > 0 {
			rd.acc = append(rd.acc, rd.buf[:n]...)
			cc.mu.Lock()
			_, perr := cc.consume(rd, &cc.pending, now)
			if perr != nil {
				cc.failPending(ioError)
				dead = true
			}
			cc.mu.Unlock()
			rd.compact()
		}
		if err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
			dead = true
		}
	}
}

// failPending fails every outstanding request (cc.mu held).
func (cc *connRunner) failPending(o outcome) {
	now := nowNs()
	for i := range cc.pending {
		cc.finish(&cc.pending[i], o, now)
	}
	cc.pending = cc.pending[:0]
}

func (cc *connRunner) flushSpans() {
	if cc.cfg.rec != nil {
		cc.cfg.rec.addAll(cc.spans)
		cc.spans = nil
	}
}
