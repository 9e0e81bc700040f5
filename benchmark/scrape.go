package main

import (
	"bufio"
	"bytes"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// hist is one histogram line of /metrics: its count and mean (the
// server prints the mean to one decimal).
type hist struct{ count, mean float64 }

func (h hist) sum() float64 { return h.count * h.mean }

// registry is one "# <name> registry" section of /metrics.
type registry struct {
	counters map[string]float64
	hists    map[string]hist
}

// parseMetrics splits a /metrics body into its registry sections.
func parseMetrics(body []byte) map[string]*registry {
	out := map[string]*registry{}
	var cur *registry
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if name, found := strings.CutPrefix(line, "# "); found {
			cur = &registry{counters: map[string]float64{}, hists: map[string]hist{}}
			out[strings.TrimSuffix(name, " registry")] = cur
			continue
		}
		f := strings.Fields(line)
		if cur == nil || len(f) < 2 {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		if len(f) == 4 && f[2] == "mean" {
			m, _ := strconv.ParseFloat(f[3], 64)
			cur.hists[f[0]] = hist{v, m}
		} else if len(f) == 2 {
			// A histogram with no observations prints its count alone;
			// counter and histogram names never collide.
			cur.counters[f[0]] = v
		}
	}
	return out
}

// scrape is the server's counters at one instant: the /metrics
// registries of every backend (one in single-server mode, one per shard
// in the fabric) and, in the fabric, the front's /fabricz page.
type scrape struct {
	backends []map[string]*registry
	fabricz  string
}

// counter sums name over the named registry section of every backend.
// The fabric front's registry is included in each shard's /metrics, so
// the "front" section is read from the first backend only.
func (s *scrape) counter(section, name string) float64 {
	var t float64
	for i, b := range s.backends {
		if section == "front" && i > 0 {
			break
		}
		if r := b[section]; r != nil {
			t += r.counters[name]
		}
	}
	return t
}

func (s *scrape) hist(section, name string) hist {
	var h hist
	for i, b := range s.backends {
		if section == "front" && i > 0 {
			break
		}
		if r := b[section]; r != nil {
			x := r.hists[name]
			sum := h.sum() + x.sum()
			h.count += x.count
			if h.count > 0 {
				h.mean = sum / h.count
			}
		}
	}
	return h
}

// perShard returns name from the front registry for each shard index,
// the counters being named name_<i>.
func (s *scrape) perShard(prefix string) []float64 {
	var out []float64
	for i := 0; ; i++ {
		if len(s.backends) == 0 || s.backends[0]["front"] == nil {
			return out
		}
		v, found := s.backends[0]["front"].counters[fmt.Sprintf("%s_%d", prefix, i)]
		if !found {
			return out
		}
		out = append(out, v)
	}
}

var histLineRE = regexp.MustCompile(`(le\d+|inf):(\d+)`)

// fabriczHist parses a "<name> le1:0 le2:3 ... inf:0" line of /fabricz
// into its upper bounds (inf as -1) and counts.
func fabriczHist(page, name string) (bounds []int64, counts []float64) {
	for _, ln := range strings.Split(page, "\n") {
		if !strings.HasPrefix(ln, name+" ") {
			continue
		}
		for _, m := range histLineRE.FindAllStringSubmatch(ln, -1) {
			b := int64(-1)
			if m[1] != "inf" {
				b, _ = strconv.ParseInt(m[1][2:], 10, 64)
			}
			c, _ := strconv.ParseFloat(m[2], 64)
			bounds = append(bounds, b)
			counts = append(counts, c)
		}
	}
	return bounds, counts
}

// fetchScrape reads every backend's /metrics (and /fabricz in the
// fabric).  keys holds one routing key per shard (nil for a single
// server); the scrape must be taken with the load stopped, so that no
// idle shard steals the /metrics request of its sibling.
func fetchScrape(addr string, keys []string, fabric bool, timeout time.Duration) (*scrape, error) {
	s := &scrape{}
	if len(keys) == 0 {
		keys = []string{""}
	}
	for _, k := range keys {
		body, err := get(addr, "/metrics", k, timeout)
		if err != nil {
			return nil, err
		}
		s.backends = append(s.backends, parseMetrics(body))
	}
	if fabric {
		body, err := get(addr, "/fabricz", "", timeout)
		if err != nil {
			return nil, err
		}
		s.fabricz = string(body)
	}
	return s, nil
}

// shardKeys finds one routing key per shard of an idle fabric: the
// owner of key k is the shard whose forwarded_<i> counter grows by one
// between two consecutive /metrics requests routed by k.
func shardKeys(addr string, timeout time.Duration) ([]string, error) {
	first, err := get(addr, "/metrics", "", timeout)
	if err != nil {
		return nil, err
	}
	shards := len((&scrape{backends: []map[string]*registry{parseMetrics(first)}}).perShard("shard.forwarded"))
	if shards == 0 {
		return nil, fmt.Errorf("no shard.forwarded_<i> counters on /metrics")
	}
	keys := make([]string, shards)
	found := 0
	for probe := 0; probe < 256 && found < shards; probe++ {
		k := "scrape" + strconv.Itoa(probe)
		a, err := fetchScrape(addr, []string{k}, false, timeout)
		if err != nil {
			return nil, err
		}
		b, err := fetchScrape(addr, []string{k}, false, timeout)
		if err != nil {
			return nil, err
		}
		fa, fb := a.perShard("shard.forwarded"), b.perShard("shard.forwarded")
		for i := range min(len(fa), len(fb)) {
			if fb[i]-fa[i] == 1 && keys[i] == "" {
				keys[i] = k
				found++
			}
		}
	}
	if found < shards {
		return nil, fmt.Errorf("found routing keys for %d of %d shards", found, shards)
	}
	return keys, nil
}
