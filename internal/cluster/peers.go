package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"charmtrace/internal/telemetry"
)

// peerTimeout bounds one peer fetch attempt. A peer fill is an
// optimization over local extraction, so a slow peer must never cost more
// than a modest fraction of the extraction it would have saved.
const peerTimeout = 5 * time.Second

// peerFanout is how many ring siblings a node asks before giving up on a
// peer fill. The entry, if it exists anywhere, lives on the key's replica
// set, so two siblings cover R=2 and R=3 deployments.
const peerFanout = 2

// Peers is the node-side cluster client: given this node's name and the
// shared member list, it fetches encoded cache entries (and raw traces)
// from the ring siblings that would hold a key's replicas. It is what
// charmd plugs into resultcache.Config.PeerFetch.
type Peers struct {
	self   string
	ring   *Ring
	client *http.Client

	fetches    *telemetry.Counter // cluster.peer_fetches
	fetchFails *telemetry.Counter // cluster.peer_fetch_failures
}

// PeersConfig configures a Peers client.
type PeersConfig struct {
	// Self is this node's member name; it is never asked for its own data.
	Self string
	// Members is the full cluster member list (including Self).
	Members []Member
	// Client is the HTTP client (nil = a private one).
	Client *http.Client
	// Metrics receives the client's counters (nil = a private registry).
	Metrics *telemetry.Registry
}

// NewPeers builds the client. Self must appear in Members.
func NewPeers(cfg PeersConfig) (*Peers, error) {
	ring, err := NewRing(cfg.Members)
	if err != nil {
		return nil, err
	}
	found := false
	for _, m := range cfg.Members {
		if m.Name == cfg.Self {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: self %q not in member list", cfg.Self)
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &Peers{
		self:       cfg.Self,
		ring:       ring,
		client:     client,
		fetches:    reg.Counter("cluster.peer_fetches"),
		fetchFails: reg.Counter("cluster.peer_fetch_failures"),
	}, nil
}

// siblings returns the ring successors for key, excluding this node,
// bounded by peerFanout. These are exactly the members that would hold the
// key's replicas (plus the next node over when self is in the replica set).
func (p *Peers) siblings(key string) []Member {
	out := make([]Member, 0, peerFanout)
	for _, m := range p.ring.Successors(key, peerFanout+1) {
		if m.Name != p.self && len(out) < peerFanout {
			out = append(out, m)
		}
	}
	return out
}

// FetchResult asks the trace's ring siblings for the encoded result entry
// named by key (a resultcache.KeyID) and returns the first 200 body. Any
// outcome other than one sibling answering 200 is an error — the caller
// (resultcache's peer fill) counts it as a miss and extracts locally.
// The caller's request id propagates to the sibling via X-Request-ID.
func (p *Peers) FetchResult(ctx context.Context, traceDigest, key string) (io.ReadCloser, error) {
	return p.fetch(ctx, traceDigest, "/v1/internal/results/"+key)
}

// FetchTrace asks the digest's ring siblings for the raw trace bytes. A
// node that is asked about a trace it never saw (failover after a node
// kill, a replica that missed the upload fan-out) uses this to pull the
// bytes and serve instead of 404ing.
func (p *Peers) FetchTrace(ctx context.Context, digest string) (io.ReadCloser, error) {
	return p.fetch(ctx, digest, "/v1/internal/traces/"+digest)
}

func (p *Peers) fetch(ctx context.Context, routeKey, path string) (io.ReadCloser, error) {
	sibs := p.siblings(routeKey)
	if len(sibs) == 0 {
		return nil, fmt.Errorf("cluster: no peers for %s", routeKey)
	}
	p.fetches.Add(1)
	var lastErr error
	for _, m := range sibs {
		rc, err := p.fetchOne(ctx, m, path)
		if err == nil {
			return rc, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	p.fetchFails.Add(1)
	return nil, lastErr
}

func (p *Peers) fetchOne(ctx context.Context, m Member, path string) (io.ReadCloser, error) {
	fctx, cancel := context.WithTimeout(ctx, peerTimeout)
	req, err := http.NewRequestWithContext(fctx, http.MethodGet, m.URL+path, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	if id := telemetry.RequestID(ctx); id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	// The sibling's access log distinguishes a node-to-node fill from a
	// gateway-proxied client request by this hop marker.
	req.Header.Set("X-Charmd-Hop", "peer")
	resp, err := p.client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("cluster: peer %s: %s", m.Name, resp.Status)
	}
	return &cancelOnClose{ReadCloser: resp.Body, cancel: cancel}, nil
}

// cancelOnClose releases the per-attempt context when the caller finishes
// streaming the body (a bare defer cancel() would kill the stream early).
type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (c *cancelOnClose) Close() error {
	err := c.ReadCloser.Close()
	c.cancel()
	return err
}
