package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/reprolab/hirise/internal/cluster"
	"github.com/reprolab/hirise/internal/experiments"
	"github.com/reprolab/hirise/internal/serve"
	"github.com/reprolab/hirise/internal/store"
)

const clusterNodes = 3

// node is one in-process serving node: a serve.Server with a disk store
// and its cluster peer layer, on a loopback httptest listener. Every
// setting is the hirise-served daemon's default.
type node struct {
	id  string
	url string
	ts  *httptest.Server
	st  *store.Store
	cl  *cluster.Cluster
	srv *serve.Server
}

// testbed is a 3-node cluster plus the HTTP client the load generator
// reaches it through. sem bounds the in-flight HTTP exchanges to nproc.
type testbed struct {
	dir    string
	nodes  []*node
	client *http.Client
	sem    chan struct{}
}

// startTestbed brings up the cluster with each node's store in its own
// directory under dir.
func startTestbed(dir string) (*testbed, error) {
	nproc := runtime.NumCPU()
	tb := &testbed{
		dir: dir,
		client: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxIdleConnsPerHost: nproc, MaxConnsPerHost: nproc,
		}},
		sem: make(chan struct{}, nproc),
	}
	peers := make([]cluster.Peer, clusterNodes)
	for i := range peers {
		ts := httptest.NewUnstartedServer(nil)
		n := &node{id: fmt.Sprintf("n%d", i), url: "http://" + ts.Listener.Addr().String(), ts: ts}
		tb.nodes = append(tb.nodes, n)
		peers[i] = cluster.Peer{ID: n.id, URL: n.url}
	}
	for _, n := range tb.nodes {
		if err := n.start(filepath.Join(dir, n.id), peers); err != nil {
			tb.close()
			return nil, err
		}
	}
	return tb, nil
}

func (n *node) start(dir string, peers []cluster.Peer) error {
	var err error
	if n.st, err = store.Open(dir, store.Options{}); err != nil {
		return err
	}
	if n.cl, err = cluster.New(cluster.Config{Self: n.id, Peers: peers}); err != nil {
		return err
	}
	n.srv, err = serve.New(serve.Config{Store: n.st, Cluster: n.cl, SimWorkers: runtime.GOMAXPROCS(0)})
	if err != nil {
		return err
	}
	n.ts.Config = serve.NewHTTPServer("", n.srv.Handler(), serve.HTTPTimeouts{})
	n.ts.Start()
	return nil
}

// close stops every node and waits for its goroutines, then removes the
// stores.
func (tb *testbed) close() {
	for _, n := range tb.nodes {
		if n.cl != nil {
			n.cl.Close()
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, n := range tb.nodes {
		if n.srv != nil {
			n.srv.Drain(ctx)
		}
		if n.ts.URL != "" {
			n.ts.Close()
		} else {
			n.ts.Listener.Close()
		}
	}
	tb.client.CloseIdleConnections()
	os.RemoveAll(tb.dir)
}

// exchange is one HTTP round trip made by the load generator.
type exchange struct {
	code int
	hdr  http.Header
	body []byte
	got  time.Time // when the whole response body was in hand
}

// do makes one request while holding a client slot.
func (tb *testbed) do(ctx context.Context, method, url string, body []byte) (exchange, error) {
	select {
	case tb.sem <- struct{}{}:
	case <-ctx.Done():
		return exchange{}, ctx.Err()
	}
	defer func() { <-tb.sem }()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return exchange{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var ex exchange
	resp, err := tb.client.Do(req)
	if err != nil {
		return ex, err
	}
	defer resp.Body.Close()
	ex.body, err = io.ReadAll(resp.Body)
	ex.got = time.Now()
	ex.code, ex.hdr = resp.StatusCode, resp.Header
	return ex, err
}

// keyOf derives the store key the server computes for a normalized
// loadsweep request (the payload shape of serve's keyOf). The client
// checks it against the key every submission returns.
func keyOf(st *store.Store, req serve.Request) (store.Key, error) {
	return st.KeyOf(req.Kind, struct {
		Request serve.Request        `json:"request"`
		Opts    experiments.CacheKey `json:"opts,omitempty"`
	}{Request: req})
}

// homeOf returns the index of the node that is the key's ring home.
func (tb *testbed) homeOf(k store.Key) int {
	home := tb.nodes[0].cl.Home(k)
	for i, n := range tb.nodes {
		if n.id == home {
			return i
		}
	}
	return 0
}

// counters is a snapshot of every node's layer counters.
type counters struct {
	store   store.Stats
	cluster cluster.Stats
	metrics map[string]float64 // summed over nodes, from GET /metrics
}

// snapshot reads store.Stats and cluster.Stats in process and scrapes
// each node's /metrics, summing over nodes.
func (tb *testbed) snapshot(ctx context.Context) (counters, error) {
	var c counters
	c.metrics = map[string]float64{}
	for _, n := range tb.nodes {
		s := n.st.Stats()
		c.store.MemHits += s.MemHits
		c.store.DiskHits += s.DiskHits
		c.store.Misses += s.Misses
		c.store.Shared += s.Shared
		cs := n.cl.Stats()
		c.cluster.Fetches += cs.Fetches
		c.cluster.PeerHits += cs.PeerHits
		c.cluster.NotFound += cs.NotFound
		c.cluster.Failures += cs.Failures
		c.cluster.Hedges += cs.Hedges
		c.cluster.HedgeWins += cs.HedgeWins
		c.cluster.BreakerOpens += cs.BreakerOpens
		ex, err := tb.do(ctx, http.MethodGet, n.url+"/metrics", nil)
		if err != nil {
			return c, fmt.Errorf("scrape %s: %w", n.id, err)
		}
		sc := bufio.NewScanner(bytes.NewReader(ex.body))
		for sc.Scan() {
			line := sc.Text()
			if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
				continue
			}
			name, val, ok := strings.Cut(line, " ")
			if !ok {
				continue
			}
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				c.metrics[name] += v
			}
		}
	}
	return c, nil
}

// delta returns b - a for every counter.
func (a counters) delta(b counters) counters {
	d := counters{metrics: map[string]float64{}}
	d.store = store.Stats{
		MemHits: b.store.MemHits - a.store.MemHits, DiskHits: b.store.DiskHits - a.store.DiskHits,
		Misses: b.store.Misses - a.store.Misses, Shared: b.store.Shared - a.store.Shared,
	}
	d.cluster = cluster.Stats{
		Fetches: b.cluster.Fetches - a.cluster.Fetches, PeerHits: b.cluster.PeerHits - a.cluster.PeerHits,
		NotFound: b.cluster.NotFound - a.cluster.NotFound, Failures: b.cluster.Failures - a.cluster.Failures,
		Hedges: b.cluster.Hedges - a.cluster.Hedges, HedgeWins: b.cluster.HedgeWins - a.cluster.HedgeWins,
		BreakerOpens: b.cluster.BreakerOpens - a.cluster.BreakerOpens,
	}
	for k, v := range b.metrics {
		d.metrics[k] = v - a.metrics[k]
	}
	return d
}

// flat returns the counters under their per-layer metric names.
func (c counters) flat() map[string]float64 {
	m := map[string]float64{
		"store.mem_hits":        float64(c.store.MemHits),
		"store.disk_hits":       float64(c.store.DiskHits),
		"store.misses":          float64(c.store.Misses),
		"store.shared":          float64(c.store.Shared),
		"cluster.fetches":       float64(c.cluster.Fetches),
		"cluster.peer_hits":     float64(c.cluster.PeerHits),
		"cluster.not_found":     float64(c.cluster.NotFound),
		"cluster.failures":      float64(c.cluster.Failures),
		"cluster.hedges":        float64(c.cluster.Hedges),
		"cluster.hedge_wins":    float64(c.cluster.HedgeWins),
		"cluster.breaker_opens": float64(c.cluster.BreakerOpens),
	}
	hits := float64(c.store.MemHits + c.store.DiskHits)
	m["store.hit_ratio"] = ratio(hits, hits+float64(c.store.Misses))
	m["cluster.peer_hit_ratio"] = ratio(float64(c.cluster.PeerHits), float64(c.cluster.Fetches))
	m["cluster.hedge_waste"] = ratio(float64(c.cluster.Hedges-c.cluster.HedgeWins), float64(c.cluster.Hedges))
	return m
}

// statusOf decodes a job status body.
func statusOf(body []byte) (serve.Status, error) {
	var st serve.Status
	err := json.Unmarshal(body, &st)
	return st, err
}
