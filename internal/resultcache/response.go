package resultcache

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
// wire bytes: the key (an ETag and a coding), the header strings,
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

// LookupResponse returns the response stored under key with the resident
// entry for (traceDigest, fingerprint). A hit refreshes the entry's recency
// in the LRU and counts as a memory hit and in cache.response_hits; a miss
// changes nothing, since the caller goes on to the entry itself.
func (c *Cache) LookupResponse(traceDigest, fingerprint, key string) (*Response, bool) {
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
	if !ok {
		return nil, false
	}
	c.hits.Add(1)
	c.memHits.Add(1)
	c.respHits.Add(1)
	return resp, true
}

// ResponseRoom is the most wire bytes a response under key could still be
// stored with, counting nothing: what is left of the budget of the resident
// entry for (traceDigest, fingerprint), or 0 when the entry is not resident
// or key is already stored. A caller need keep no more of a response than
// that.
func (c *Cache) ResponseRoom(traceDigest, fingerprint, key string) int64 {
	id := KeyID(traceDigest, fingerprint)
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[id]
	if !ok {
		return 0
	}
	e := el.Value.(*entry)
	if _, dup := e.responses[key]; dup {
		return 0
	}
	return max(e.budget()-e.respBytes-responseOverhead, 0)
}

// StoreResponse keeps resp under key with the resident entry for
// (traceDigest, fingerprint) and reports whether it did. Nothing is stored
// for an entry that is not resident, under a key already stored (keys are
// content addresses: the bytes would be the same), or past the entry's
// budget: once an entry's stored responses fill it, later ones are refused,
// and none is dropped while the entry stays resident. Stored responses go
// with their entry when it is evicted. The caller must not change resp
// afterwards.
func (c *Cache) StoreResponse(traceDigest, fingerprint, key string, resp *Response) bool {
	id := KeyID(traceDigest, fingerprint)
	n := int64(len(resp.Wire)) + responseOverhead
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[id]
	if !ok {
		return false
	}
	e := el.Value.(*entry)
	if _, dup := e.responses[key]; dup || e.respBytes+n > e.budget() {
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
