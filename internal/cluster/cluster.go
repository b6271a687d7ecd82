package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reprolab/hirise/internal/obs"
	"github.com/reprolab/hirise/internal/prng"
	"github.com/reprolab/hirise/internal/store"
	"github.com/reprolab/hirise/internal/tele"
)

// Peer names one cluster member: a stable ID (the ring hashes it) and
// the base URL of its HTTP API.
type Peer struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// Config parameterizes a Cluster.
type Config struct {
	// Self is this node's peer ID; it must appear in Peers. Fetch never
	// contacts Self.
	Self string
	// Peers is the full static membership, including Self. Every node
	// must be configured with the same set (order does not matter — the
	// ring is order-independent).
	Peers []Peer
	// AttemptTimeout bounds each individual peer HTTP request
	// (default 2s).
	AttemptTimeout time.Duration
	// Retries is the per-peer retry budget after the first attempt
	// (default 1). A 404 is a definitive miss and is never retried.
	Retries int
	// RetryBackoff is the base backoff before retry attempt n, growing
	// as RetryBackoff<<(n-1) with deterministic seeded jitter in
	// [base/2, base] (default 50ms).
	RetryBackoff time.Duration
	// HedgeDelay is how long the primary peer may stay silent before a
	// hedge request is launched against the remaining candidates
	// (default 100ms; negative disables hedging).
	HedgeDelay time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a
	// peer's breaker (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker short-circuits before
	// half-opening on its own (default 5s). A successful health probe
	// half-opens it sooner.
	BreakerCooldown time.Duration
	// ProbeInterval is the /healthz probe cadence (default 2s; negative
	// disables the probe loop — tests drive ProbeOnce by hand).
	ProbeInterval time.Duration
	// Seed derives the deterministic backoff jitter (default 1).
	Seed uint64
	// Client optionally overrides the HTTP client (its Timeout is not
	// used; per-attempt contexts bound every request).
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.AttemptTimeout == 0 {
		c.AttemptTimeout = 2 * time.Second
	}
	if c.Retries == 0 {
		c.Retries = 1
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.HedgeDelay == 0 {
		c.HedgeDelay = 100 * time.Millisecond
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Stats counts cluster activity. Snapshot via Cluster.Stats.
type Stats struct {
	// Fetches counts Fetch calls; PeerHits the ones a peer satisfied,
	// PeerMisses the ones that degraded to local compute.
	Fetches, PeerHits, PeerMisses int64
	// Attempts counts individual peer HTTP requests; Retries the ones
	// past a peer's first; NotFound definitive 404 misses; Failures
	// errored attempts (timeouts, refused connections, 5xx).
	Attempts, Retries, NotFound, Failures int64
	// Hedges counts hedge launches, HedgeWins the fetches the hedge
	// answered first.
	Hedges, HedgeWins int64
	// BreakerSkips counts peer attempts short-circuited by an open
	// breaker; BreakerOpens closed->open transitions across all peers.
	BreakerSkips, BreakerOpens int64
	// Probes counts health-probe rounds per peer; ProbeFailures the
	// failed ones.
	Probes, ProbeFailures int64
}

// PeerStatus is one remote peer's live state, as reported by Snapshot
// and GET /cluster.
type PeerStatus struct {
	ID       string       `json:"id"`
	URL      string       `json:"url"`
	State    string       `json:"state"`
	Failures int          `json:"failures"` // consecutive
	Opens    int64        `json:"opens"`
	state    BreakerState `json:"-"`
}

// Snapshot is the cluster's introspectable state.
type Snapshot struct {
	Self  string       `json:"self"`
	Peers []PeerStatus `json:"peers"`
	Stats Stats        `json:"stats"`
}

// peer is one remote member and its breaker.
type peer struct {
	Peer
	breaker *breaker
}

// Cluster is the peer layer. Create with New, fetch with Fetch, stop
// the probe loop with Close. All methods are safe for concurrent use.
type Cluster struct {
	cfg   Config
	ring  *Ring
	peers map[string]*peer // remote members only
	httpc *http.Client

	fetchSeq atomic.Uint64

	fetches, peerHits, peerMisses           atomic.Int64
	attempts, retries, notFound, failures   atomic.Int64
	hedges, hedgeWins, breakerSkips, probes atomic.Int64
	probeFailures                           atomic.Int64

	probeStop chan struct{}
	probeDone chan struct{}
	closeOnce sync.Once
}

// New validates the membership, builds the ring, and (unless disabled)
// starts the health-probe loop. Callers own the Cluster's lifecycle:
// Close it when the node shuts down.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	ids := make([]string, 0, len(cfg.Peers))
	selfSeen := false
	for _, p := range cfg.Peers {
		ids = append(ids, p.ID)
		if p.ID == cfg.Self {
			selfSeen = true
			continue
		}
		if p.URL == "" {
			return nil, fmt.Errorf("cluster: peer %q has no URL", p.ID)
		}
	}
	if cfg.Self == "" || !selfSeen {
		return nil, fmt.Errorf("cluster: Config.Self %q must appear in Peers", cfg.Self)
	}
	ring, err := NewRing(ids)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:   cfg,
		ring:  ring,
		peers: make(map[string]*peer, len(cfg.Peers)-1),
		httpc: cfg.Client,
	}
	if c.httpc == nil {
		c.httpc = &http.Client{}
	}
	for _, p := range cfg.Peers {
		if p.ID != cfg.Self {
			c.peers[p.ID] = &peer{Peer: p, breaker: newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)}
		}
	}
	if cfg.ProbeInterval > 0 && len(c.peers) > 0 {
		c.probeStop = make(chan struct{})
		c.probeDone = make(chan struct{})
		go c.probeLoop()
	}
	return c, nil
}

// Close stops the probe loop. Safe to call more than once.
func (c *Cluster) Close() {
	c.closeOnce.Do(func() {
		if c.probeStop != nil {
			close(c.probeStop)
			<-c.probeDone
		}
	})
}

// Self returns this node's peer ID.
func (c *Cluster) Self() string { return c.cfg.Self }

// Home returns the key's home peer ID (possibly Self).
func (c *Cluster) Home(k store.Key) string { return c.ring.Home(k) }

// fetchResult is one fetch goroutine's outcome.
type fetchResult struct {
	data  []byte
	from  string
	hedge bool
}

// Fetch asks the key's home peer and ring siblings for the stored
// result. It returns the payload and the answering peer's ID, or
// ok=false when no peer could serve it — never an error: an open
// breaker, an exhausted retry budget, or a cluster of one all degrade
// to local compute.
//
// The primary goroutine walks the candidates in ring-preference order;
// if nothing has answered within HedgeDelay, a hedge goroutine walks
// them rotated by one. First success wins and cancels the other.
func (c *Cluster) Fetch(ctx context.Context, key store.Key) (data []byte, from string, ok bool) {
	c.fetches.Add(1)
	cands := c.candidates(key)
	if len(cands) == 0 {
		c.peerMisses.Add(1)
		return nil, "", false
	}
	seq := c.fetchSeq.Add(1)

	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan fetchResult, 2)
	launch := func(order []*peer, hedge bool) {
		go func() {
			r := fetchResult{hedge: hedge}
			for _, p := range order {
				if d, ok := c.tryPeer(fctx, p, key, seq); ok {
					r.data, r.from = d, p.ID
					break
				}
				if fctx.Err() != nil {
					break
				}
			}
			results <- r
		}()
	}

	launch(cands, false)
	pending := 1
	var hedgeTimer *time.Timer
	var hedgeC <-chan time.Time
	if c.cfg.HedgeDelay >= 0 && len(cands) > 1 {
		hedgeTimer = time.NewTimer(c.cfg.HedgeDelay)
		defer hedgeTimer.Stop()
		hedgeC = hedgeTimer.C
	}
	for pending > 0 {
		select {
		case r := <-results:
			pending--
			if r.data != nil {
				c.peerHits.Add(1)
				if r.hedge {
					c.hedgeWins.Add(1)
				}
				// The loser unwinds via fctx; its buffered send never
				// blocks.
				return r.data, r.from, true
			}
		case <-hedgeC:
			hedgeC = nil
			c.hedges.Add(1)
			rotated := append(append([]*peer(nil), cands[1:]...), cands[0])
			launch(rotated, true)
			pending++
		case <-ctx.Done():
			c.peerMisses.Add(1)
			return nil, "", false
		}
	}
	c.peerMisses.Add(1)
	return nil, "", false
}

// siblings bounds how many peers one Fetch consults: the key's home
// plus one further ring successor (fewer when the cluster has fewer
// remote peers).
const siblings = 2

// candidates returns up to siblings remote peers in the key's ring
// preference order.
func (c *Cluster) candidates(key store.Key) []*peer {
	var out []*peer
	for _, id := range c.ring.Order(key) {
		if p, ok := c.peers[id]; ok {
			out = append(out, p)
			if len(out) == siblings {
				break
			}
		}
	}
	return out
}

// errPeerMiss marks a definitive 404: the peer is healthy but does not
// hold the key. Never retried.
var errPeerMiss = errors.New("cluster: peer does not hold key")

// tryPeer runs the per-peer attempt loop: breaker gate, bounded
// retries, exponential backoff with seeded jitter.
func (c *Cluster) tryPeer(ctx context.Context, p *peer, key store.Key, seq uint64) ([]byte, bool) {
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			t := time.NewTimer(c.backoff(attempt, seq))
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, false
			}
		}
		if ctx.Err() != nil {
			return nil, false
		}
		if !p.breaker.allow(time.Now()) {
			c.breakerSkips.Add(1)
			return nil, false
		}
		c.attempts.Add(1)
		data, err := c.get(ctx, p, key)
		switch {
		case err == nil:
			p.breaker.onSuccess()
			return data, true
		case errors.Is(err, errPeerMiss):
			// The peer answered authoritatively; that's a healthy peer.
			p.breaker.onSuccess()
			c.notFound.Add(1)
			return nil, false
		case ctx.Err() != nil:
			// Cancelled from above (hedge won, client gone): not the
			// peer's fault — release the trial slot without judging it.
			p.breaker.onAbandon()
			return nil, false
		default:
			p.breaker.onFailure(time.Now())
			c.failures.Add(1)
		}
	}
	return nil, false
}

// backoff returns the delay before retry attempt n (1-based) of the
// fetch with the given sequence number: base<<(n-1), jittered
// deterministically into [base/2, base] by a stream derived from
// (Seed, seq, n). Identical configurations replay identical backoff
// schedules, which is what lets tests pin hedge and retry timing.
func (c *Cluster) backoff(attempt int, seq uint64) time.Duration {
	base := c.cfg.RetryBackoff << (attempt - 1)
	const maxBackoff = 2 * time.Second
	if base > maxBackoff {
		base = maxBackoff
	}
	r := prng.New(c.cfg.Seed ^ (seq * 0x9e3779b97f4a7c15) ^ uint64(attempt)<<56)
	jitter := time.Duration(r.Uint64() % uint64(base/2+1))
	return base/2 + jitter
}

// get performs one GET {peer}/store/{key} under the per-attempt
// timeout. 200 returns the payload, 404 is errPeerMiss, anything else
// is a failure.
func (c *Cluster) get(ctx context.Context, p *peer, key store.Key) ([]byte, error) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet,
		strings.TrimSuffix(p.URL, "/")+"/store/"+key.String(), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
		return io.ReadAll(resp.Body)
	case http.StatusNotFound:
		return nil, errPeerMiss
	default:
		return nil, fmt.Errorf("cluster: peer %s: HTTP %d", p.ID, resp.StatusCode)
	}
}

// probeLoop probes every remote peer's /healthz on the configured
// cadence until Close.
func (c *Cluster) probeLoop() {
	defer close(c.probeDone)
	ticker := time.NewTicker(c.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			ctx, cancel := context.WithTimeout(context.Background(), c.cfg.AttemptTimeout)
			c.ProbeOnce(ctx)
			cancel()
		case <-c.probeStop:
			return
		}
	}
}

// ProbeOnce health-probes every remote peer once, feeding the outcomes
// into the breakers: a 200 half-opens an open breaker (and clears a
// closed one's failure streak), anything else counts as a failure.
// Exposed so tests and operators can force a probe round.
func (c *Cluster) ProbeOnce(ctx context.Context) {
	ids := make([]string, 0, len(c.peers))
	for id := range c.peers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		p := c.peers[id]
		c.probes.Add(1)
		if err := c.probe(ctx, p); err != nil {
			c.probeFailures.Add(1)
			p.breaker.onFailure(time.Now())
		} else {
			p.breaker.onProbeSuccess()
		}
	}
}

func (c *Cluster) probe(ctx context.Context, p *peer) error {
	actx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet,
		strings.TrimSuffix(p.URL, "/")+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: probe %s: HTTP %d", p.ID, resp.StatusCode)
	}
	return nil
}

// Stats returns a snapshot of the cluster's counters.
func (c *Cluster) Stats() Stats {
	var opens int64
	for _, p := range c.peers {
		_, _, o := p.breaker.snapshot()
		opens += o
	}
	return Stats{
		Fetches:       c.fetches.Load(),
		PeerHits:      c.peerHits.Load(),
		PeerMisses:    c.peerMisses.Load(),
		Attempts:      c.attempts.Load(),
		Retries:       c.retries.Load(),
		NotFound:      c.notFound.Load(),
		Failures:      c.failures.Load(),
		Hedges:        c.hedges.Load(),
		HedgeWins:     c.hedgeWins.Load(),
		BreakerSkips:  c.breakerSkips.Load(),
		BreakerOpens:  opens,
		Probes:        c.probes.Load(),
		ProbeFailures: c.probeFailures.Load(),
	}
}

// Snapshot returns the full introspectable state: per-peer breaker
// positions (sorted by peer ID) plus the counters.
func (c *Cluster) Snapshot() Snapshot {
	snap := Snapshot{Self: c.cfg.Self, Stats: c.Stats()}
	for id, p := range c.peers {
		st, fails, opens := p.breaker.snapshot()
		snap.Peers = append(snap.Peers, PeerStatus{
			ID: id, URL: p.URL, State: st.String(), Failures: fails, Opens: opens, state: st,
		})
	}
	sort.Slice(snap.Peers, func(i, j int) bool { return snap.Peers[i].ID < snap.Peers[j].ID })
	return snap
}

// Describe writes the cluster's counters and per-peer breaker states
// into an obs registry (closed=0, half-open=1, open=2), for /metrics
// scrapes.
func (c *Cluster) Describe(reg *obs.Registry) {
	st := c.Stats()
	reg.Counter("cluster.fetches").Add(st.Fetches)
	reg.Counter("cluster.peer.hits").Add(st.PeerHits)
	reg.Counter("cluster.peer.misses").Add(st.PeerMisses)
	reg.Counter("cluster.attempts").Add(st.Attempts)
	reg.Counter("cluster.retries").Add(st.Retries)
	reg.Counter("cluster.notfound").Add(st.NotFound)
	reg.Counter("cluster.failures").Add(st.Failures)
	reg.Counter("cluster.hedges").Add(st.Hedges)
	reg.Counter("cluster.hedge.wins").Add(st.HedgeWins)
	reg.Counter("cluster.breaker.skips").Add(st.BreakerSkips)
	reg.Counter("cluster.breaker.opens").Add(st.BreakerOpens)
	reg.Counter("cluster.probes").Add(st.Probes)
	reg.Counter("cluster.probe.failures").Add(st.ProbeFailures)
	for _, p := range c.Snapshot().Peers {
		reg.Gauge("cluster.breaker.state." + p.ID).Set(float64(p.state))
	}
}

// Sample registers the cluster's windowed telemetry tracks on a tele
// sampler: fetch/hit/failure rates as counter deltas and the number of
// not-closed breakers as a gauge. Callers own the sampler's tick
// cadence and synchronization, per the tele single-writer contract.
func (c *Cluster) Sample(s *tele.Sampler) {
	s.CounterFunc("cluster.fetches", c.fetches.Load)
	s.CounterFunc("cluster.peer.hits", c.peerHits.Load)
	s.CounterFunc("cluster.peer.misses", c.peerMisses.Load)
	s.CounterFunc("cluster.failures", c.failures.Load)
	s.CounterFunc("cluster.hedges", c.hedges.Load)
	s.GaugeFunc("cluster.breakers.notclosed", func() float64 {
		var n int
		for _, p := range c.peers {
			if st, _, _ := p.breaker.snapshot(); st != BreakerClosed {
				n++
			}
		}
		return float64(n)
	})
}
