package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strings"
)

// FingerprintVersion versions the Options fingerprint format. Bump it
// whenever a change to the pipeline alters the recovered Structure for the
// same (trace, semantic options) pair, or whenever a new semantic option is
// added: a version bump invalidates every cached result at once, which is
// exactly what a behaviour change requires.
const FingerprintVersion = 1

// Fingerprint returns a canonical, deterministic description of every
// option that can change the recovered Structure. It is the options half of
// a content-addressed result-cache key: two Options values with equal
// fingerprints are guaranteed to produce byte-identical structures for the
// same trace.
//
// Execution-only knobs are deliberately excluded — Parallelism (the
// pipeline is byte-identical at every worker count), the Metrics and
// Progress sinks (they only observe), and Context (cancellation aborts an extraction, it never changes a completed
// one). That exclusion is what lets a result extracted at one parallelism
// serve requests made at any other.
//
// ChareRank participates through a digest of its contents because it feeds
// the Figure 7 tie-break, which reorders phase event lists.
func (o Options) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "v%d", FingerprintVersion)
	flag := func(name string, v bool) {
		// Canonical single-letter values keep the fingerprint short enough
		// to embed in cache filenames and log lines.
		c := 'f'
		if v {
			c = 't'
		}
		fmt.Fprintf(&b, " %s=%c", name, c)
	}
	flag("reorder", o.Reorder)
	flag("infer", o.InferDependencies)
	flag("nsmerge", o.NeighborSerialMerge)
	flag("mp", o.MessagePassing)
	flag("procorder", o.ProcessOrderDeps)
	if o.ChareRank == nil {
		b.WriteString(" rank=-")
	} else {
		h := sha256.New()
		var buf [4]byte
		for _, r := range o.ChareRank {
			binary.LittleEndian.PutUint32(buf[:], uint32(r))
			h.Write(buf[:])
		}
		fmt.Fprintf(&b, " rank=%x", h.Sum(nil)[:8])
	}
	return b.String()
}
