package main

import (
	"fmt"
	"runtime"
	"testing"
)

func TestCheckOutcomes(t *testing.T) {
	e := request{kind: kindEcho, want: []byte("abc")}
	c := request{kind: kindCompute, n: 10, seed: 3, want: fmt.Appendf(nil, "10 rounds hash %d\n", computeHash(10, 3))}
	m := request{kind: kindMLAlloc, n: 3, seed: 5} // fold = 3*5 + 3 = 18
	for _, tc := range []struct {
		name string
		r    *request
		st   int
		body string
		want outcome
	}{
		{"echo ok", &e, 200, "abc", ok},
		{"echo wrong", &e, 200, "abd", badBody},
		{"echo 503", &e, 503, "abc", badStatus},
		{"compute ok", &c, 200, string(c.want), ok},
		{"compute wrong hash", &c, 200, "10 rounds hash 1\n", badBody},
		{"mlalloc ok", &m, 200, "mlalloc n=3 cells=3 sum=999 fold=18 gcs=0\n", ok},
		{"mlalloc wrong fold", &m, 200, "mlalloc n=3 cells=3 sum=999 fold=19 gcs=0\n", badBody},
		{"mlalloc short list", &m, 200, "mlalloc n=3 cells=2 sum=999 fold=18 gcs=0\n", badBody},
		{"mlalloc garbage", &m, 200, "ok\n", badBody},
	} {
		if got := check(tc.r, tc.st, []byte(tc.body)); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, outcomeNames[got], outcomeNames[tc.want])
		}
	}
}

func TestParseResponse(t *testing.T) {
	two := []byte("HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabcHTTP/1.1 503 X\r\ncontent-length: 0\r\n\r\n")
	st, body, n, err := parseResponse(two)
	if err != nil || st != 200 || string(body) != "abc" {
		t.Fatalf("first: %d %q %v", st, body, err)
	}
	st, body, _, err = parseResponse(two[n:])
	if err != nil || st != 503 || len(body) != 0 {
		t.Fatalf("second: %d %q %v", st, body, err)
	}
	if _, _, n, err := parseResponse(two[:20]); n != 0 || err != nil {
		t.Fatalf("partial: consumed %d err %v", n, err)
	}
	if _, _, _, err := parseResponse([]byte("HTTP/1.1 200 OK\r\n\r\n")); err == nil {
		t.Fatal("a response without Content-Length must be malformed")
	}
}

// TestReferencesMatchServer runs generated requests of every workload
// through the real handlers (serve.Server.Submit on a NoListener
// server) and checks the client-side references accept every answer.
func TestReferencesMatchServer(t *testing.T) {
	for _, w := range workloads {
		reqs := pool(w, 9, 0)[:200]
		rec := newRecorder(1000)
		durs, wrong, err := submitProbe(reqs, runtime.NumCPU(), w.flagSet("-mlalloc"), rec)
		if err != nil {
			t.Fatal(err)
		}
		if wrong != 0 || len(durs) != len(reqs) {
			t.Errorf("%s: %d of %d answers rejected by the reference", w.name, wrong, len(reqs))
		}
	}
}

func TestConnProbeParsesEveryRequest(t *testing.T) {
	for _, w := range workloads {
		reqs := pool(w, 3, 0)[:300]
		parse, write, allocs, err := connProbe(reqs, 8, 1, newRecorder(10000))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if parse <= 0 || write <= 0 || allocs <= 0 {
			t.Errorf("%s: parse %v write %v allocs %v, want all positive", w.name, parse, write, allocs)
		}
	}
}
