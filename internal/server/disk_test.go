package server

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"charmtrace/internal/core"
	"charmtrace/internal/resultcache"
	"charmtrace/internal/store"
	"charmtrace/internal/tracefile"
)

// encodedResult is the encoded default-preset structure of an uploaded
// trace: the bytes a result on disk holds.
func encodedResult(t *testing.T, enc []byte, opt core.Options) []byte {
	t.Helper()
	tr, err := tracefile.ReadBinary(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Extract(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := core.EncodeStructure(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// cacheLayer is the X-Charmd-Cache header of a GET: which layer answered.
func cacheLayer(t *testing.T, ts string, path string) string {
	t.Helper()
	resp, err := http.Get(ts + path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	return resp.Header.Get("X-Charmd-Cache")
}

// TestListingIsNotUse: GET /v1/traces reads every trace's summary from disk
// without counting a cache hit or refreshing the disk GC's recency. After a
// list, cache.disk_hits is unchanged, and the next GC still evicts the
// least-recently-used trace's result — not the one the list happened to
// read first.
func TestListingIsNotUse(t *testing.T) {
	dir := t.TempDir()
	encs := [][]byte{encodedJacobi(t, 1), encodedJacobi(t, 2), encodedJacobi(t, 3)}
	// old and young have results on disk, old's written first; the list reads
	// them in digest order, so old must come last for a list that touched
	// them to leave young the least recently used.
	old, young, last := encs[0], encs[1], encs[2]
	if tracefile.DigestBytes(old) < tracefile.DigestBytes(young) {
		old, young = young, old
	}
	_, ts := newTestServer(t, Config{DataDir: dir})
	for _, enc := range [][]byte{old, young} {
		mustGet(t, ts, "/v1/traces/"+upload(t, ts, enc)+"/structure")
		time.Sleep(25 * time.Millisecond) // distinct mtimes, whatever the clock's grain
	}
	upload(t, ts, last)
	ts.Close()

	opt := core.DefaultOptions()
	var bound int64 = -1 // one byte short of all three results: one eviction
	for _, enc := range encs {
		bound += int64(len(encodedResult(t, enc, opt)))
	}
	srv, ts2 := newTestServer(t, Config{DataDir: dir, MaxMemEntries: -1, MaxResultBytes: bound})
	if body := mustGet(t, ts2, "/v1/traces"); bytes.Count(body, []byte(`"num_phases"`)) != 2 {
		t.Fatalf("list does not show the two results on disk: %s", body)
	}
	reg := srv.Registry()
	if h, d := reg.Counter("cache.hits").Value(), reg.Counter("cache.disk_hits").Value(); h != 0 || d != 0 {
		t.Errorf("after a list: cache.hits %d, cache.disk_hits %d; want 0, 0", h, d)
	}
	if got := cacheLayer(t, ts2.URL, "/v1/traces/"+tracefile.DigestBytes(last)+"/structure"); got != "miss" {
		t.Fatalf("third trace's first read: %q, want miss", got)
	}
	if e := reg.Counter("cache.disk_evictions").Value(); e != 1 {
		t.Fatalf("cache.disk_evictions = %d, want 1", e)
	}
	if got := cacheLayer(t, ts2.URL, "/v1/traces/"+tracefile.DigestBytes(young)+"/structure"); got != "disk" {
		t.Errorf("the recently used trace's result: %q, want disk (it was evicted)", got)
	}
	if got := cacheLayer(t, ts2.URL, "/v1/traces/"+tracefile.DigestBytes(old)+"/structure"); got != "miss" {
		t.Errorf("the least recently used trace's result: %q, want miss (it survived the GC)", got)
	}
}

// TestOneFileUnderConcurrency: concurrent identical uploads of one trace,
// extractions under two fingerprints and GC sweeps leave one file whose
// chain holds one trace section, and a result for each fingerprint that
// decodes. Run under -race by make verify.
func TestOneFileUnderConcurrency(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{DataDir: dir, MaxMemEntries: -1, MaxConcurrentExtractions: -1})
	enc := encodedJacobi(t, 0)
	digest := upload(t, ts, enc)
	presets := []string{"", "?preset=mp"}
	var want [2][]byte
	for i, p := range presets {
		want[i] = mustGet(t, ts, "/v1/traces/"+digest+"/steps"+p)
	}
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(enc))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				t.Errorf("upload: status %d", resp.StatusCode)
			}
		}()
		go func(p int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/traces/" + digest + "/steps" + presets[p])
			if err != nil {
				t.Error(err)
				return
			}
			var body bytes.Buffer
			body.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || !bytes.Equal(body.Bytes(), want[p]) {
				t.Errorf("read under preset %d: status %d, %d bytes", p, resp.StatusCode, body.Len())
			}
		}(i % 2)
		go func() {
			defer wg.Done()
			srv.cache.Store().GC(0)
		}()
	}
	wg.Wait()
	for i, p := range presets {
		if got := mustGet(t, ts, "/v1/traces/"+digest+"/steps"+p); !bytes.Equal(got, want[i]) {
			t.Errorf("preset %q: answer changed", p)
		}
	}

	st := openStore(t, dir)
	if got, err := st.Read(digest, store.Trace, ""); err != nil || !bytes.Equal(got, enc) {
		t.Fatalf("the trace section does not read back (err %v)", err)
	}
	if traces := st.Traces(); len(traces) != 1 || traces[0].Bytes != int64(len(enc)) {
		t.Errorf("stored traces: %v", traces)
	}
	tr, err := tracefile.ReadBinary(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []core.Options{core.DefaultOptions(), core.MessagePassingOptions()} {
		fp := opt.Fingerprint()
		data, err := st.Read(digest, store.Result, resultcache.KeyID(digest, fp))
		if err != nil {
			t.Fatalf("no result for %q: %v", fp, err)
		}
		if _, got, err := core.DecodeStructure(bytes.NewReader(data), tr); err != nil || got != fp {
			t.Errorf("result for %q decodes to %q (err %v)", fp, got, err)
		}
	}
	entries, _ := os.ReadDir(filepath.Join(dir, "traces"))
	var names []string
	for _, de := range entries {
		names = append(names, de.Name())
	}
	sort.Strings(names)
	if len(names) != 1 || names[0] != digest {
		t.Errorf("traces directory holds %v, want the one file", names)
	}
}
