package main

import (
	"bytes"
	"slices"
	"testing"
	"time"
)

func sameRequests(a, b []request) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].key != b[i].key || !bytes.Equal(a[i].wire, b[i].wire) {
			return false
		}
	}
	return true
}

// TestSeedDeterminesInputs: the same seed yields the same request
// sequence, routing keys and arrival gaps; another seed does not.
func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads {
		for c := range 2 {
			if !sameRequests(pool(w, 42, c), pool(w, 42, c)) {
				t.Errorf("%s conn %d: same seed gave different requests", w.name, c)
			}
			if sameRequests(pool(w, 42, c), pool(w, 43, c)) {
				t.Errorf("%s conn %d: seeds 42 and 43 gave the same requests", w.name, c)
			}
		}
		if sameRequests(pool(w, 42, 0), pool(w, 42, 1)) {
			t.Errorf("%s: connections 0 and 1 share a request stream", w.name)
		}
	}
	w := workloadByName("mlalloc_open")
	a, b := arrivals(w, 42, 1, time.Second), arrivals(w, 42, 1, time.Second)
	if !slices.Equal(a, b) {
		t.Error("same seed gave different arrival schedules")
	}
	if slices.Equal(a, arrivals(w, 43, 1, time.Second)) {
		t.Error("seeds 42 and 43 gave the same arrival schedule")
	}
	if slices.Equal(a, arrivals(w, 42, 2, time.Second)) {
		t.Error("two phases of one run share an arrival schedule")
	}
}

func TestArrivalsArePoissonAtRate(t *testing.T) {
	w := workloadByName("mlalloc_open")
	a := arrivals(w, 1, 1, 20*time.Second)
	want := w.rate * 20
	if n := float64(len(a)); n < want*0.95 || n > want*1.05 {
		t.Fatalf("%v arrivals in 20 s, want about %v", n, want)
	}
	if !slices.IsSorted(a) || a[len(a)-1] >= int64(20*time.Second) {
		t.Fatal("arrivals must be ascending and inside the phase")
	}
}

func TestFabricSkewHotShare(t *testing.T) {
	w := workloadByName("fabric_skew")
	hot := 0
	rs := pool(w, 5, 0)
	for i := range rs {
		if rs[i].key == "" {
			t.Fatal("fabric_skew request without a routing key")
		}
		if rs[i].key == hotKey {
			hot++
		}
	}
	if share := float64(hot) / float64(len(rs)); share < 0.45 || share > 0.55 {
		t.Errorf("hot key share %.3f, want about 0.5", share)
	}
}

// TestDeploymentFlagsOnly: workloads configure mpserved with deployment
// flags only, never an ablation selector.
func TestDeploymentFlagsOnly(t *testing.T) {
	allowed := map[string]bool{"-shards": true, "-procs": true, "-inflight": true, "-queue": true, "-mlalloc": true, "-addr": true}
	for _, w := range workloads {
		for _, f := range w.flags {
			if f[0] == '-' && !allowed[f] {
				t.Errorf("%s uses non-deployment flag %s", w.name, f)
			}
		}
	}
}
