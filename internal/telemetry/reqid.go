package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
)

// The request-ID context key lives in telemetry because it is read on both
// sides of the serving/cluster boundary: charmd's access-log middleware
// stamps every request context, the result cache copies the id onto a
// detached flight's context when that request becomes the flight leader,
// and cluster.Peers reads it there to send the same X-Request-ID on a peer
// fill — which is what lets a peer's access-log line be joined back to the
// request (and the X-Request-ID the client saw) that caused it.

type requestIDKey struct{}

// maxRequestIDLen bounds an inbound X-Request-ID; anything longer (or
// containing non-printable bytes) is replaced rather than echoed.
const maxRequestIDLen = 128

// RequestIDFor is the request-ID contract of every hop (gateway, charmd):
// a well-formed inbound X-Request-ID value is honored, so a chain client →
// gateway → node → peer logs one id at every hop, and a fresh 8-byte hex id
// is minted otherwise. The accepted charset is printable ASCII — an
// uncontrolled value is never echoed into a response header or a log line.
func RequestIDFor(inbound string) string {
	if inbound != "" && len(inbound) <= maxRequestIDLen {
		ok := true
		for i := 0; i < len(inbound); i++ {
			if inbound[i] < 0x21 || inbound[i] > 0x7e {
				ok = false
				break
			}
		}
		if ok {
			return inbound
		}
	}
	var b [8]byte
	rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// WithRequestID returns a context carrying the request id. Empty ids are
// not stored.
func WithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestID returns the context's request id, or "". A nil context is safe
// (core.Options.Context may be nil).
func RequestID(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}
