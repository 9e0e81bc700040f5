package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// span is one timed call the benchmark made: a load-generator step of
// one request (all of a request's spans share its id) or one call into
// a layer's public functions.  Times are ns since base.
type span struct {
	name       string
	id         int64 // request id; 0 for spans of no request
	tid        int   // connection or probe goroutine
	start, end int64
}

// recorder keeps spans in memory, up to a cap, until the benchmark
// exits and writes them out.
type recorder struct {
	mu      sync.Mutex
	spans   []span
	max     int
	dropped int64
}

func newRecorder(max int) *recorder { return &recorder{max: max} }

func (r *recorder) addAll(ss []span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	room := r.max - len(r.spans)
	if room < len(ss) {
		r.dropped += int64(len(ss) - max(room, 0))
		ss = ss[:max(room, 0)]
	}
	r.spans = append(r.spans, ss...)
}

// writeChrome writes the spans as Chrome trace-event JSON.
func (r *recorder) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	r.mu.Lock()
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ns\",\"dropped\":%d,\"traceEvents\":[", r.dropped)
	for i, s := range r.spans {
		if i > 0 {
			bw.WriteByte(',')
		}
		name, _ := json.Marshal(s.name)
		fmt.Fprintf(bw, "\n{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d}}",
			name, s.tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.id)
	}
	r.mu.Unlock()
	bw.WriteString("\n]}\n")
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
