package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"charmtrace/internal/apps/jacobi"
	"charmtrace/internal/cluster"
	"charmtrace/internal/core"
	"charmtrace/internal/resultcache"
	"charmtrace/internal/server"
	"charmtrace/internal/telemetry"
	"charmtrace/internal/tracefile"
)

// This file is the multi-node end-to-end harness: real charmd servers (one
// per httptest listener, each with its own data dir), a real gateway in
// front, all in one process so -race watches every cross-node interaction.

type testNode struct {
	name string
	dir  string
	srv  *server.Server
	ts   *httptest.Server
}

type testCluster struct {
	gw    *cluster.Gateway
	gwTS  *httptest.Server
	nodes []*testNode
}

// counterOf reads one counter from a registry snapshot.
func counterOf(reg *telemetry.Registry, name string) int64 {
	return reg.Snapshot().Counters[name]
}

// startCluster boots n charmd nodes wired into one peer group and a
// gateway fronting them. Each node's peer client binds late — the member
// URLs exist only after every listener is up — via the closure indirection
// cmd/charmd uses for the same reason.
func startCluster(t *testing.T, n int, gwCfg cluster.GatewayConfig) *testCluster {
	t.Helper()
	nodes := make([]*testNode, n)
	peers := make([]*cluster.Peers, n)
	for i := 0; i < n; i++ {
		i := i
		name, dir := fmt.Sprintf("n%d", i), t.TempDir()
		srv, err := server.New(server.Config{
			DataDir:  dir,
			NodeName: name,
			PeerFetch: func(ctx context.Context, traceDigest, key string) (io.ReadCloser, error) {
				return peers[i].FetchResult(ctx, traceDigest, key)
			},
			TraceFetch: func(ctx context.Context, digest string) (io.ReadCloser, error) {
				return peers[i].FetchTrace(ctx, digest)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		nodes[i] = &testNode{name: name, dir: dir, srv: srv, ts: ts}
	}
	members := make([]cluster.Member, n)
	for i, nd := range nodes {
		members[i] = cluster.Member{Name: nd.name, URL: nd.ts.URL}
	}
	for i, nd := range nodes {
		pc, err := cluster.NewPeers(cluster.PeersConfig{
			Self:    nd.name,
			Members: members,
			Metrics: nd.srv.Registry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = pc
	}
	gwCfg.Members = members
	gw, err := cluster.NewGateway(gwCfg)
	if err != nil {
		t.Fatal(err)
	}
	gwTS := httptest.NewServer(gw)
	t.Cleanup(func() {
		gwTS.Close()
		gw.Close()
	})
	return &testCluster{gw: gw, gwTS: gwTS, nodes: nodes}
}

func (tc *testCluster) node(name string) *testNode {
	for _, nd := range tc.nodes {
		if nd.name == name {
			return nd
		}
	}
	return nil
}

// encodedJacobi serializes the jacobi proxy workload as an upload body.
func encodedJacobi(t *testing.T, seed int64) []byte {
	t.Helper()
	cfg := jacobi.DefaultConfig()
	if seed != 0 {
		cfg.Seed = seed
	}
	var buf bytes.Buffer
	if err := tracefile.WriteBinary(&buf, jacobi.MustTrace(cfg)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func gwUpload(t *testing.T, tc *testCluster, body []byte) string {
	t.Helper()
	resp, err := http.Post(tc.gwTS.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("gateway upload status %d: %s", resp.StatusCode, data)
	}
	var out struct {
		Digest string `json:"digest"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if want := tracefile.DigestBytes(body); out.Digest != want {
		t.Fatalf("gateway upload digest %s, want %s", out.Digest, want)
	}
	return out.Digest
}

func getURL(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestClusterUploadPlacementAndShares checks the routing contract end to
// end: an upload lands on the digest's R ring successors (and nowhere
// else), and /cluster reports a sane share split.
func TestClusterUploadPlacementAndShares(t *testing.T) {
	tc := startCluster(t, 3, cluster.GatewayConfig{Replication: 2})
	body := encodedJacobi(t, 0)
	digest := gwUpload(t, tc, body)
	tc.gw.Quiesce() // wait out the async trace fan-out

	ring, err := cluster.NewRing(membersOf(tc))
	if err != nil {
		t.Fatal(err)
	}
	owners := map[string]bool{}
	for _, m := range ring.Successors(digest, 2) {
		owners[m.Name] = true
	}
	for _, nd := range tc.nodes {
		resp, data := getURL(t, nd.ts.URL+"/v1/internal/traces/"+digest)
		if owners[nd.name] {
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("owner %s does not hold the trace: %d", nd.name, resp.StatusCode)
			}
			if !bytes.Equal(data, body) {
				t.Fatalf("owner %s holds %d bytes, want the %d uploaded", nd.name, len(data), len(body))
			}
		} else if resp.StatusCode == http.StatusOK {
			t.Fatalf("non-owner %s holds the trace; placement leaked", nd.name)
		}
	}

	_, data := getURL(t, tc.gwTS.URL+"/cluster")
	var cl struct {
		Replication int `json:"replication"`
		Members     []struct {
			Name       string  `json:"name"`
			Alive      bool    `json:"alive"`
			OwnedShare float64 `json:"owned_share"`
		} `json:"members"`
	}
	if err := json.Unmarshal(data, &cl); err != nil {
		t.Fatal(err)
	}
	if cl.Replication != 2 || len(cl.Members) != 3 {
		t.Fatalf("/cluster = %s", data)
	}
	total := 0.0
	for _, m := range cl.Members {
		if !m.Alive {
			t.Fatalf("member %s reported dead in a healthy cluster", m.Name)
		}
		if m.OwnedShare < 0.10 || m.OwnedShare > 0.60 {
			t.Fatalf("member %s owns %.2f of the keyspace; ring badly unbalanced", m.Name, m.OwnedShare)
		}
		total += m.OwnedShare
	}
	if total < 0.99 || total > 1.01 {
		t.Fatalf("shares sum to %.3f, want 1", total)
	}
}

func membersOf(tc *testCluster) []cluster.Member {
	ms := make([]cluster.Member, len(tc.nodes))
	for i, nd := range tc.nodes {
		ms[i] = cluster.Member{Name: nd.name, URL: nd.ts.URL}
	}
	return ms
}

// TestClusterExactlyOnceExtraction is the headline guarantee: a burst of
// identical requests through the gateway runs the extraction pipeline once
// across the whole cluster — routing pins the digest to one owner, and that
// node's request coalescing merges the burst.
func TestClusterExactlyOnceExtraction(t *testing.T) {
	tc := startCluster(t, 3, cluster.GatewayConfig{Replication: 2})
	digest := gwUpload(t, tc, encodedJacobi(t, 0))

	const K = 12
	bodies := make([][]byte, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(tc.gwTS.URL + "/v1/traces/" + digest + "/structure")
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, data)
				return
			}
			bodies[i] = data
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := 1; i < K; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d returned different bytes than request 0", i)
		}
	}
	var misses int64
	for _, nd := range tc.nodes {
		misses += counterOf(nd.srv.Registry(), "cache.misses")
	}
	if misses != 1 {
		t.Fatalf("cluster-wide extractions = %d, want exactly 1 for %d identical requests", misses, K)
	}

	// The result moves only when a node pulls it. A read sent straight to
	// the second owner — which has the trace from the upload fan-out but
	// never saw the burst — fills from the first owner's disk: same bytes,
	// still one extraction cluster-wide.
	ring, _ := cluster.NewRing(membersOf(tc))
	second := tc.node(ring.Successors(digest, 2)[1].Name)
	resp, data := getURL(t, second.ts.URL+"/v1/traces/"+digest+"/structure")
	if got := resp.Header.Get("X-Charmd-Cache"); resp.StatusCode != http.StatusOK || got != resultcache.OutcomePeer {
		t.Fatalf("second owner %s: status %d, X-Charmd-Cache %q, want 200 and %q", second.name, resp.StatusCode, got, resultcache.OutcomePeer)
	}
	if !bytes.Equal(data, bodies[0]) {
		t.Fatal("peer-filled response differs from the extracting owner's")
	}
	if n := counterOf(second.srv.Registry(), "cache.misses"); n != 0 {
		t.Fatalf("second owner ran %d extractions, want 0", n)
	}
	// The fill was persisted: with the memory layer out of the picture (a
	// restart over the same data directory) the same read is a disk hit.
	restarted, err := server.New(server.Config{DataDir: second.dir, NodeName: second.name})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	restarted.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/traces/"+digest+"/structure", nil))
	if got := rec.Header().Get("X-Charmd-Cache"); rec.Code != http.StatusOK || got != resultcache.OutcomeDisk {
		t.Fatalf("restarted second owner: status %d, X-Charmd-Cache %q, want 200 and %q", rec.Code, got, resultcache.OutcomeDisk)
	}
	if !bytes.Equal(rec.Body.Bytes(), bodies[0]) {
		t.Fatal("disk-hit response differs from the extracting owner's")
	}
}

// TestClusterEveryDigestRouteThroughGateway walks the server's own route
// table: every digest-scoped endpoint a node serves must answer through
// the gateway with exactly the bytes the answering node gives directly.
// The gateway mounts that table, so a new endpoint is one row in server —
// plus, for a POST, its spec here.
func TestClusterEveryDigestRouteThroughGateway(t *testing.T) {
	tc := startCluster(t, 3, cluster.GatewayConfig{Replication: 2})
	digest := gwUpload(t, tc, encodedJacobi(t, 0))
	specs := map[string]string{
		"query":    `{"select": "steps", "filter": {"steps": {"from": 0, "to": 8}}, "limit": 5}`,
		"lod_post": `{"resolution": 8, "max_rows": 4}`,
	}
	do := func(base string, rt server.DigestRoute) (*http.Response, []byte) {
		method, path, _ := strings.Cut(rt.Pattern, " ")
		req, err := http.NewRequest(method, base+strings.Replace(path, "{digest}", digest, 1), strings.NewReader(specs[rt.Label]))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, data
	}
	for _, rt := range server.DigestRoutes {
		via, viaBody := do(tc.gwTS.URL, rt)
		if via.StatusCode != http.StatusOK {
			t.Errorf("%s via gateway: status %d: %s", rt.Pattern, via.StatusCode, viaBody)
			continue
		}
		nd := tc.node(via.Header.Get("X-Charmd-Node"))
		if nd == nil {
			t.Errorf("%s via gateway: X-Charmd-Node %q is not a member", rt.Pattern, via.Header.Get("X-Charmd-Node"))
			continue
		}
		direct, directBody := do(nd.ts.URL, rt)
		if direct.StatusCode != http.StatusOK || !bytes.Equal(viaBody, directBody) {
			t.Errorf("%s: gateway answered %d bytes, node %s answers %d (%d bytes) directly",
				rt.Pattern, len(viaBody), nd.name, direct.StatusCode, len(directBody))
		}
		if n := counterOf(tc.gw.Registry(), "gateway.route."+rt.Label); n != 1 {
			t.Errorf("%s: gateway.route.%s = %d, want 1", rt.Pattern, rt.Label, n)
		}
	}
}

// TestClusterPeerCacheFill exercises the node-to-node fill path without a
// gateway in the loop: a node that never saw the trace or the extraction
// answers from its siblings' disks — trace bytes via the internal trace
// endpoint, the encoded result via the internal results endpoint — and the
// response is byte-identical to the extracting node's.
func TestClusterPeerCacheFill(t *testing.T) {
	tc := startCluster(t, 3, cluster.GatewayConfig{Replication: 2})
	body := encodedJacobi(t, 0)
	digest := tracefile.DigestBytes(body)

	// Upload directly to the digest's primary owner only — no gateway
	// fan-out, so every other node starts blind.
	ring, _ := cluster.NewRing(membersOf(tc))
	owner := tc.node(ring.Owner(digest).Name)
	resp, err := http.Post(owner.ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload to %s: %d", owner.name, resp.StatusCode)
	}

	// First read on the owner: a genuine extraction.
	ownerResp, ownerBody := getURL(t, owner.ts.URL+"/v1/traces/"+digest+"/structure")
	if ownerResp.StatusCode != http.StatusOK {
		t.Fatalf("owner structure: %d: %s", ownerResp.StatusCode, ownerBody)
	}
	if got := ownerResp.Header.Get("X-Charmd-Cache"); got != "miss" {
		t.Fatalf("owner X-Charmd-Cache = %q, want miss", got)
	}

	// Same read on a node that has neither the trace nor the result: it
	// must pull the trace from a sibling, fill the result from the owner's
	// disk, and answer identically — without running an extraction.
	var other *testNode
	for _, nd := range tc.nodes {
		if nd.name != owner.name {
			other = nd
			break
		}
	}
	otherResp, otherBody := getURL(t, other.ts.URL+"/v1/traces/"+digest+"/structure")
	if otherResp.StatusCode != http.StatusOK {
		t.Fatalf("peer structure: %d: %s", otherResp.StatusCode, otherBody)
	}
	if !bytes.Equal(otherBody, ownerBody) {
		t.Fatalf("peer-filled response differs from the owner's:\n%s\nvs\n%s", otherBody, ownerBody)
	}
	if got := otherResp.Header.Get("X-Charmd-Cache"); got != resultcache.OutcomePeer {
		t.Fatalf("peer X-Charmd-Cache = %q, want %q", got, resultcache.OutcomePeer)
	}
	reg := other.srv.Registry()
	if n := counterOf(reg, "cache.misses"); n != 0 {
		t.Fatalf("peer ran %d extractions, want 0", n)
	}
	if n := counterOf(reg, "cache.peer_hits"); n != 1 {
		t.Fatalf("peer cache.peer_hits = %d, want 1", n)
	}
	if n := counterOf(reg, "server.trace_peer_fills"); n != 1 {
		t.Fatalf("peer server.trace_peer_fills = %d, want 1", n)
	}

	// The result route finds the entry in the file of the trace its query
	// names; a request that names none is a plain 404 its sender answers by
	// extracting.
	route := owner.ts.URL + "/v1/internal/results/" + resultcache.KeyID(digest, core.DefaultOptions().Fingerprint())
	if resp, _ := getURL(t, route+"?trace="+digest); resp.StatusCode != http.StatusOK {
		t.Errorf("result route with the trace named: %d", resp.StatusCode)
	}
	if resp, _ := getURL(t, route); resp.StatusCode != http.StatusNotFound {
		t.Errorf("result route without a trace: %d, want 404", resp.StatusCode)
	}
}

// TestClusterNodeKillZero5xx kills a replica-set member mid-workload and
// requires every read through the gateway to keep succeeding: transport
// failures fail over to the surviving replica, which holds the trace from
// upload fan-out and rebuilds the result through its own pull tier.
func TestClusterNodeKillZero5xx(t *testing.T) {
	tc := startCluster(t, 3, cluster.GatewayConfig{
		Replication: 2,
	})
	digest := gwUpload(t, tc, encodedJacobi(t, 0))
	tc.gw.Quiesce()

	// The bytes every post-kill read must reproduce.
	resp, data := getURL(t, tc.gwTS.URL+"/v1/traces/"+digest+"/structure")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm read: %d: %s", resp.StatusCode, data)
	}

	ring, _ := cluster.NewRing(membersOf(tc))
	victim := tc.node(ring.Owner(digest).Name)
	victim.ts.Close()

	for i := 0; i < 10; i++ {
		resp, body := getURL(t, tc.gwTS.URL+"/v1/traces/"+digest+"/structure")
		if resp.StatusCode >= 500 {
			t.Fatalf("read %d after killing %s: status %d: %s", i, victim.name, resp.StatusCode, body)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("read %d after killing %s: status %d", i, victim.name, resp.StatusCode)
		}
		if !bytes.Equal(body, data) {
			t.Fatalf("read %d: failover response differs from pre-kill bytes", i)
		}
	}
	if fo := counterOf(tc.gw.Registry(), "gateway.failovers"); fo < 1 {
		t.Fatalf("gateway.failovers = %d, want >= 1", fo)
	}
	if fives := tc.gw.Registry().Snapshot().Counters["gateway.status.5xx"]; fives != 0 {
		t.Fatalf("gateway served %d 5xx responses, want 0", fives)
	}
}

// TestClusterNodeDrainZero5xx drains the owner mid-workload: its handlers
// answer 503, which the gateway fails over without marking the member down,
// so every read stays a 200 with the pre-drain bytes, one failover each.
func TestClusterNodeDrainZero5xx(t *testing.T) {
	tc := startCluster(t, 3, cluster.GatewayConfig{Replication: 2})
	digest := gwUpload(t, tc, encodedJacobi(t, 0))
	tc.gw.Quiesce()

	resp, data := getURL(t, tc.gwTS.URL+"/v1/traces/"+digest+"/structure")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm read: %d: %s", resp.StatusCode, data)
	}

	ring, _ := cluster.NewRing(membersOf(tc))
	owner := tc.node(ring.Owner(digest).Name)
	if err := owner.srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	reg := tc.gw.Registry()
	before := counterOf(reg, "gateway.failovers")
	for i := 0; i < 10; i++ {
		resp, body := getURL(t, tc.gwTS.URL+"/v1/traces/"+digest+"/structure")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("read %d with %s draining: status %d: %s", i, owner.name, resp.StatusCode, body)
		}
		if !bytes.Equal(body, data) {
			t.Fatalf("read %d: failover response differs from pre-drain bytes", i)
		}
		if got := counterOf(reg, "gateway.failovers") - before; got != int64(i+1) {
			t.Fatalf("after read %d gateway.failovers rose by %d, want %d", i, got, i+1)
		}
	}
	if fives := counterOf(reg, "gateway.status.5xx"); fives != 0 {
		t.Fatalf("gateway served %d 5xx responses, want 0", fives)
	}
}

// TestClusterRequestIDAndPassthrough covers the correlation satellite: a
// caller-chosen X-Request-ID survives gateway → node, an absent one is
// minted and a hostile one replaced (the same contract as charmd's, from
// the same function), and the node observability surface is reachable
// through /nodes/{name}/.
func TestClusterRequestIDAndPassthrough(t *testing.T) {
	tc := startCluster(t, 3, cluster.GatewayConfig{Replication: 2})
	digest := gwUpload(t, tc, encodedJacobi(t, 0))

	req, _ := http.NewRequest(http.MethodGet, tc.gwTS.URL+"/v1/traces/"+digest+"/structure", nil)
	req.Header.Set("X-Request-ID", "e2e-corr-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "e2e-corr-42" {
		t.Fatalf("X-Request-ID = %q, want the caller's id echoed through the chain", got)
	}
	if got := resp.Header.Get("X-Charmd-Node"); tc.node(got) == nil {
		t.Fatalf("X-Charmd-Node = %q, not a member", got)
	}
	for _, inbound := range []string{"", "bad\tid"} {
		req, _ := http.NewRequest(http.MethodGet, tc.gwTS.URL+"/v1/traces/"+digest+"/structure", nil)
		if inbound != "" {
			req.Header.Set("X-Request-ID", inbound)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if got := resp.Header.Get("X-Request-ID"); got == inbound || len(got) != 16 {
			t.Fatalf("inbound id %q: X-Request-ID = %q, want a minted 16-hex id", inbound, got)
		}
	}

	// Node passthrough: stats carry the node's name label.
	resp2, data := getURL(t, tc.gwTS.URL+"/nodes/n1/debug/stats")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("/nodes/n1/debug/stats: %d: %s", resp2.StatusCode, data)
	}
	var stats struct {
		Labels map[string]string `json:"labels"`
	}
	if err := json.Unmarshal(data, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Labels["node"] != "n1" {
		t.Fatalf("stats labels = %v, want node=n1", stats.Labels)
	}
	// Writes do not pass through.
	resp3, _ := getURL(t, tc.gwTS.URL+"/nodes/n1/v1/traces")
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("API passthrough allowed: %d", resp3.StatusCode)
	}
}

// TestClusterGatewayMetrics validates the gateway's /metrics surface with
// the repo's own strict parser: the cluster counters exist as labeled
// Prometheus families after a representative workload.
func TestClusterGatewayMetrics(t *testing.T) {
	tc := startCluster(t, 3, cluster.GatewayConfig{Replication: 2})
	digest := gwUpload(t, tc, encodedJacobi(t, 0))
	for i := 0; i < 2; i++ {
		resp, data := getURL(t, tc.gwTS.URL+"/v1/traces/"+digest+"/structure")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("read %d: %d: %s", i, resp.StatusCode, data)
		}
	}
	tc.gw.Quiesce()

	resp, data := getURL(t, tc.gwTS.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	fams, err := telemetry.ParsePromText(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("gateway /metrics does not parse: %v", err)
	}
	want := []string{
		"gateway_requests_total",
		"gateway_uploads_total",
		"gateway_route_upload_total",
		"gateway_route_structure_total",
		"gateway_peer_fill_hits_total",
		"gateway_peer_fill_misses_total",
		"gateway_trace_replicas_total",
		"gateway_proxy_ms",
	}
	for _, name := range want {
		fam, ok := fams[name]
		if !ok {
			var have []string
			for n := range fams {
				if strings.HasPrefix(n, "gateway_") {
					have = append(have, n)
				}
			}
			t.Fatalf("family %s missing from gateway /metrics; have %v", name, have)
		}
		if fam.Labels["node"] != "gateway" {
			t.Fatalf("family %s labels = %v, want node=gateway", name, fam.Labels)
		}
	}
	if v := fams["gateway_trace_replicas_total"].Samples[0].Value; v != 1 {
		t.Fatalf("gateway_trace_replicas_total = %v, want 1 (R=2: one fan-out copy)", v)
	}
	if v := fams["gateway_peer_fill_misses_total"].Samples[0].Value; v != 1 {
		t.Fatalf("gateway_peer_fill_misses_total = %v, want 1 (one extraction happened)", v)
	}
}
