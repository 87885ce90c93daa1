package resultcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"

	"charmtrace/internal/store"
)

// wireVersion versions the rendered bytes of a response. Bump it whenever a
// change to the serving layer alters a rendered byte for the same request —
// a field, its order or its format, the compression level: spilled responses
// are keyed under it (responseKey), so a bump makes every response an older
// binary spilled unreachable at once, and a new binary never serves an old
// render after a restart.
const wireVersion = 1

// Response is one finished answer stored with the resident entry it was
// rendered from, so that a repeat of the request is served without
// rendering it again: its bytes exactly as they went on the wire (after any
// content coding), the entity headers that describe them, and the body's
// size before coding. It is immutable once stored.
type Response struct {
	ContentType     string
	ContentEncoding string // "" for identity
	Wire            []byte
	BodyBytes       int64
}

// responseOverhead is what a stored response costs its entry beyond its
// wire bytes: the key (a content hash and a coding), the header strings,
// the struct and the map slot.
const responseOverhead = 256

// budget is what an entry's stored responses may hold: the entry's own
// accounted bytes — its structure, its table and its built views — so that
// the responses can at most double what the entry costs. Caller holds c.mu.
func (e *entry) budget() int64 {
	n := e.structBytes + e.tableBytes
	for v := range e.views {
		if st := &e.views[v]; st.accounted {
			n += st.bytes
		}
	}
	return n
}

// LookupResponse returns the response stored under key for the entry
// (traceDigest, fingerprint) and the layer that held it: OutcomeMem when the
// resident entry keeps it, OutcomeDisk when it was spilled into the trace's
// file as its entry was evicted, or nil and "" when neither holds it. A
// memory hit refreshes the entry's recency in the LRU; a disk hit reads the
// checksummed section and nothing else, and refreshes the trace's recency
// for the disk GC. Either counts as a hit of its layer and in
// cache.response_hits. A miss changes nothing, since the caller goes on to
// the entry itself; a section that fails its checksum is counted in
// cache.disk_errors and never read again.
func (c *Cache) LookupResponse(traceDigest, fingerprint, key string) (*Response, string) {
	id := KeyID(traceDigest, fingerprint)
	c.mu.Lock()
	el, ok := c.entries[id]
	var resp *Response
	if ok {
		resp, ok = el.Value.(*entry).responses[key]
	}
	if ok {
		c.lru.MoveToFront(el)
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
		c.memHits.Add(1)
		c.respHits.Add(1)
		return resp, OutcomeMem
	}
	data, err := c.store.Read(traceDigest, store.Response, c.responseKey(id, key))
	if err == nil {
		resp, err = decodeResponse(data)
	}
	if err != nil {
		if !errors.Is(err, store.ErrNotFound) {
			c.diskErrors.Add(1)
		}
		return nil, ""
	}
	c.hits.Add(1)
	c.diskHits.Add(1)
	c.respHits.Add(1)
	c.store.Touch(traceDigest)
	return resp, OutcomeDisk
}

// responseKey is the content address of a spilled response:
// sha256(wire version ‖ 0 ‖ entry id ‖ 0 ‖ the response's key), hex-encoded.
func (c *Cache) responseKey(id, key string) string {
	h := sha256.New()
	fmt.Fprintf(h, "v%d", c.wire)
	h.Write([]byte{0})
	io.WriteString(h, id)
	h.Write([]byte{0})
	io.WriteString(h, key)
	return hex.EncodeToString(h.Sum(nil))
}

// spill appends each stored response of the evicted entries that their
// trace's file does not hold yet as a store.Response section, counted in
// cache.response_spills, then holds the store to MaxDiskBytes. The caller
// runs it outside c.mu, once the insert that evicted the entries has
// released its waiters. Spilling is an optimization: a failed append is
// counted in cache.disk_errors and the response is rendered again when it is
// next asked for.
func (c *Cache) spill(evicted []*entry) {
	spilled := false
	for _, e := range evicted {
		for key, resp := range e.responses {
			skey := c.responseKey(e.id, key)
			if c.store.Has(e.digest, store.Response, skey) {
				continue
			}
			if err := c.store.Append(e.digest, store.Response, skey, resp.encode()...); err != nil {
				c.diskErrors.Add(1)
				continue
			}
			c.respSpills.Add(1)
			spilled = true
		}
	}
	if spilled && c.maxDiskBytes > 0 {
		c.gcDisk()
	}
}

// encode returns the payload of a spilled response's section in two parts:
// the lengths of the content type and the content coding and the body's
// size as uvarints, then the two strings; and the wire bytes.
func (r *Response) encode() [][]byte {
	head := binary.AppendUvarint(nil, uint64(len(r.ContentType)))
	head = binary.AppendUvarint(head, uint64(len(r.ContentEncoding)))
	head = binary.AppendUvarint(head, uint64(r.BodyBytes))
	head = append(append(head, r.ContentType...), r.ContentEncoding...)
	return [][]byte{head, r.Wire}
}

// errBadResponse is a spilled response's payload that does not decode.
var errBadResponse = errors.New("resultcache: malformed spilled response")

// decodeResponse parses what encode wrote. The wire bytes alias b.
func decodeResponse(b []byte) (*Response, error) {
	var n [3]uint64 // the two strings' lengths and the body's size
	for i := range n {
		v, k := binary.Uvarint(b)
		if k <= 0 {
			return nil, errBadResponse
		}
		n[i], b = v, b[k:]
	}
	if n[0] > uint64(len(b)) || n[1] > uint64(len(b))-n[0] || n[2] > math.MaxInt64 {
		return nil, errBadResponse
	}
	return &Response{
		ContentType:     string(b[:n[0]]),
		ContentEncoding: string(b[n[0] : n[0]+n[1]]),
		BodyBytes:       int64(n[2]),
		Wire:            b[n[0]+n[1]:],
	}, nil
}

// storable returns the resident entry for (traceDigest, fingerprint) if a
// response under key may still be stored with it, and nil when the entry is
// not resident or key is already stored (keys are content addresses: the
// bytes would be the same). Caller holds c.mu.
func (c *Cache) storable(traceDigest, fingerprint, key string) *entry {
	el, ok := c.entries[KeyID(traceDigest, fingerprint)]
	if !ok {
		return nil
	}
	e := el.Value.(*entry)
	if _, dup := e.responses[key]; dup {
		return nil
	}
	return e
}

// ResponseRoom is the most wire bytes a response under key could still be
// stored with, counting nothing: what is left of the budget of the resident
// entry for (traceDigest, fingerprint), or 0 when the entry is not resident
// or key is already stored. A caller need keep no more of a response than
// that.
func (c *Cache) ResponseRoom(traceDigest, fingerprint, key string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.storable(traceDigest, fingerprint, key)
	if e == nil {
		return 0
	}
	return max(e.budget()-e.respBytes-responseOverhead, 0)
}

// StoreResponse keeps resp under key with the resident entry for
// (traceDigest, fingerprint) and reports whether it did. Nothing is stored
// for an entry that is not resident, under a key already stored, or past
// the entry's budget: once an entry's stored responses fill it, later ones
// are refused (and counted in cache.response_refused), and none is dropped
// while the entry stays resident. When the entry is evicted its stored
// responses are spilled into the trace's file (spill), from which
// LookupResponse still serves them. The caller must not change resp
// afterwards.
func (c *Cache) StoreResponse(traceDigest, fingerprint, key string, resp *Response) bool {
	n := int64(len(resp.Wire)) + responseOverhead
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.storable(traceDigest, fingerprint, key)
	if e == nil {
		return false
	}
	if e.respBytes+n > e.budget() {
		c.respRefused.Add(1)
		return false
	}
	if e.responses == nil {
		e.responses = make(map[string]*Response)
	}
	e.responses[key] = resp
	e.respBytes += n
	c.respBytes += n
	c.respBytesG.Set(float64(c.respBytes))
	c.respStores.Add(1)
	return true
}

// RefuseResponse counts in cache.response_refused a complete response under
// key that the caller did not keep because it outgrew ResponseRoom, unless
// nothing could have been stored under key anyway: the entry is no longer
// resident, or key has been stored meanwhile.
func (c *Cache) RefuseResponse(traceDigest, fingerprint, key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.storable(traceDigest, fingerprint, key) != nil {
		c.respRefused.Add(1)
	}
}
