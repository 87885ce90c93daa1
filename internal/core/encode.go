package core

import (
	"bufio"
	"fmt"
	"io"
	"math"

	"charmtrace/internal/graph"
	"charmtrace/internal/trace"
	"charmtrace/internal/varint"
)

// Binary Structure codec: the persistence format behind the charmd result
// cache. A Structure is stored without its trace (results are content-
// addressed by trace digest, so the trace is stored and keyed separately)
// and without Stats (per-run instrumentation, not part of the recovered
// structure). The encoding is canonical: encoding the same Structure always
// yields the same bytes, and the pipeline is byte-identical at every
// Parallelism, so an Extract at any worker count round-trips through the
// cache into exactly the bytes a fresh extraction would encode to.
//
//	magic "CSTR", uvarint version
//	str opts fingerprint
//	uvarint nEvents, uvarint nChares     (validated against the table on decode)
//	uvarint nPhases {
//	    u8 runtime
//	    uvarint nChares { varint chare }
//	    uvarint nEvents { varint event }
//	    varint maxLocalStep, varint offset, varint leap
//	}
//	DAG: nPhases x { uvarint degree { varint target } }
//	PhaseOf, LocalStep, Step: nEvents varints each
//	chareEvents: nChares x { uvarint len { varint event } }

// structMagic opens every encoded structure.
var structMagic = [4]byte{'C', 'S', 'T', 'R'}

// StructCodecVersion is the current structure-encoding version.
const StructCodecVersion = 1

// EncodeStructure writes the structure in the binary codec. The trace is
// not encoded; DecodeStructure reattaches one.
func EncodeStructure(w io.Writer, s *Structure) error {
	b := varint.NewWriter(w)
	b.Bytes(structMagic[:])
	b.Uvarint(StructCodecVersion)
	b.String(s.EncodedFingerprint())
	b.Uvarint(uint64(len(s.Step)))
	b.Uvarint(uint64(len(s.chareEvents)))
	b.Uvarint(uint64(len(s.Phases)))
	for i := range s.Phases {
		p := &s.Phases[i]
		b.Bool(p.Runtime)
		writeIDs(b, p.Chares)
		writeIDs(b, p.Events)
		b.Varint(int64(p.MaxLocalStep))
		b.Varint(int64(p.Offset))
		b.Varint(int64(p.Leap))
	}
	for i := range s.Phases {
		writeIDs(b, s.DAG.Adj[i])
	}
	for _, col := range [][]int32{s.PhaseOf, s.LocalStep, s.Step} {
		for _, v := range col {
			b.Varint(int64(v))
		}
	}
	for _, evs := range s.chareEvents {
		writeIDs(b, evs)
	}
	if err := b.Flush(); err != nil {
		return fmt.Errorf("core: encode: %w", err)
	}
	return nil
}

// writeIDs writes a list of IDs: its length, then each ID (varint.IDs reads
// them back).
func writeIDs[T ~int32](b *varint.Writer, ids []T) {
	b.Uvarint(uint64(len(ids)))
	for _, v := range ids {
		b.Varint(int64(v))
	}
}

// readHead reads an encoded structure up to its per-event arrays — magic,
// version, fingerprint, counts, the phase table and the DAG — and holds it
// to the same checks whether the full decode or the summary is reading. For
// the full decode s holds the table to check the counts against and
// receives the phases and the DAG; the summary passes nil, gets a
// PhaseSummary row per phase instead, and drops the chare, event and edge
// IDs once they are checked. Errors name the section they are in.
func readHead(r *varint.Reader, s *Structure) (*StructureSummary, error) {
	if magic := r.Bytes(len(structMagic)); r.Err() == nil && [4]byte(magic) != structMagic {
		return nil, fmt.Errorf("bad magic %q", magic)
	}
	if v := r.Uvarint(); r.Err() == nil && v != StructCodecVersion {
		return nil, fmt.Errorf("unsupported version %d", v)
	}
	keep := s != nil
	maxEvents, maxChares := math.MaxInt32, math.MaxInt32
	if keep {
		maxEvents, maxChares = s.tab.NumEvents(), s.tab.NumChares()
	}
	sum := &StructureSummary{Fingerprint: string(r.Bytes(r.Count("fingerprint byte", 1<<20))), MaxStep: -1}
	sum.NumEvents = r.Count("event", maxEvents)
	sum.NumChares = r.Count("chare", maxChares)
	if keep && r.Err() == nil && (sum.NumEvents != maxEvents || sum.NumChares != maxChares) {
		return nil, fmt.Errorf("structure is for %d events/%d chares, trace has %d/%d",
			sum.NumEvents, sum.NumChares, maxEvents, maxChares)
	}
	nPhases := r.Count("phase", sum.NumEvents+1)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("header: %w", err)
	}
	if keep {
		s.Phases = make([]Phase, 0, nPhases)
	} else {
		// Through a stream the phase count is a claim the bytes may not back:
		// it sizes at most a small first allocation, and append does the rest.
		sum.Phases = make([]PhaseSummary, 0, min(nPhases, 1024))
	}
	for i := 0; i < nPhases && r.Err() == nil; i++ {
		p := PhaseSummary{Runtime: r.Byte() != 0}
		p.Chares = r.Count("phase chare", sum.NumChares)
		chares := varint.IDs[trace.ChareID](r, "phase chare", p.Chares, sum.NumChares, keep)
		p.Events = r.Count("phase event", sum.NumEvents)
		events := varint.IDs[trace.EventID](r, "phase event", p.Events, sum.NumEvents, keep)
		p.MaxLocalStep, p.Offset, p.Leap = r.Int32(), r.Int32(), r.Int32()
		// Local steps are dense within a phase and offsets add up along DAG
		// paths, so these bounds hold for anything Extract produced; they
		// keep the tables the views size by steps within O(events).
		if r.Err() == nil && (p.MaxLocalStep < -1 || int(p.MaxLocalStep) > p.Events ||
			p.Offset < 0 || int(p.Offset) > sum.NumEvents+nPhases || p.Leap < 0 || int(p.Leap) >= nPhases) {
			r.Fail(fmt.Errorf("phase %d spans (max local step %d, offset %d, leap %d) out of range", i, p.MaxLocalStep, p.Offset, p.Leap))
		}
		if hi := p.Offset + p.MaxLocalStep; p.Events > 0 && hi > sum.MaxStep {
			sum.MaxStep = hi
		}
		if keep {
			s.Phases = append(s.Phases, Phase{ID: int32(i), Runtime: p.Runtime, Chares: chares, Events: events,
				MaxLocalStep: p.MaxLocalStep, Offset: p.Offset, Leap: p.Leap})
		} else {
			sum.Phases = append(sum.Phases, p)
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("phase table: %w", err)
	}
	if keep {
		s.DAG = graph.New(nPhases)
	}
	for i := 0; i < nPhases && r.Err() == nil; i++ {
		n := r.Count("edge", nPhases)
		adj := varint.IDs[int32](r, "edge target", n, nPhases, keep)
		sum.DAGEdges += n
		if keep {
			s.DAG.Adj[i] = adj
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("DAG: %w", err)
	}
	return sum, nil
}

// DecodeStructure parses an encoded structure and reattaches tr, which must
// be the indexed trace the structure was extracted from: it is
// DecodeStructureTable against tr.Table() with Trace set.
func DecodeStructure(r io.Reader, tr *trace.Trace) (*Structure, string, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, "", fmt.Errorf("core: decode: %w", err)
	}
	s, fp, err := DecodeStructureTable(data, tr.Table())
	if err != nil {
		return nil, "", err
	}
	s.Trace = tr
	return s, fp, nil
}

// DecodeStructureTable parses an encoded structure against the table of the
// trace it was extracted from (the caller's content-addressing guarantees
// this; event and chare counts are validated as a corruption check, and
// every ID the bytes hold is range-checked against them). The decoded
// structure has no Trace and carries no Stats — timing belongs to the
// extraction run, not the cached result — and its Opts hold only what the
// fingerprint preserves; use the fingerprint returned here to key
// semantics, not the Opts field. data is untrusted: no allocation is sized
// by more than a constant multiple of len(data).
func DecodeStructureTable(data []byte, tab *trace.Table) (*Structure, string, error) {
	r := varint.NewReader(data)
	s := &Structure{tab: tab}
	sum, err := readHead(r, s)
	if err != nil {
		return nil, "", fmt.Errorf("core: decode: %w", err)
	}
	s.decodedFP = sum.Fingerprint
	nEvents, nPhases := sum.NumEvents, len(s.Phases)
	for _, col := range []struct {
		what string
		dst  *[]int32
	}{{"phase-of", &s.PhaseOf}, {"local-step", &s.LocalStep}, {"step", &s.Step}} {
		vs := make([]int32, nEvents)
		for e := range vs {
			vs[e] = r.Int32()
		}
		if err := r.Err(); err != nil {
			return nil, "", fmt.Errorf("core: decode: %s: %w", col.what, err)
		}
		*col.dst = vs
	}
	// The three arrays and the phase table say the same thing twice; hold
	// them to each other, so that whatever sizes a table by one (MaxStep, a
	// phase's local steps) can index it by the other.
	for e, pi := range s.PhaseOf {
		switch {
		case pi < 0 || int(pi) >= nPhases: // -1, an event left without a phase, included: Validate refuses one
			return nil, "", fmt.Errorf("core: decode: event %d in unknown phase %d", e, pi)
		case s.LocalStep[e] < 0 || s.LocalStep[e] > s.Phases[pi].MaxLocalStep || s.Step[e] != s.Phases[pi].Offset+s.LocalStep[e]:
			return nil, "", fmt.Errorf("core: decode: event %d at local step %d, step %d outside phase %d", e, s.LocalStep[e], s.Step[e], pi)
		}
	}
	listed := make([]bool, nEvents)
	unlisted := nEvents
	for pi := range s.Phases {
		for _, e := range s.Phases[pi].Events {
			if s.PhaseOf[e] != int32(pi) || listed[e] {
				return nil, "", fmt.Errorf("core: decode: phase %d lists event %d of phase %d, or lists it twice", pi, e, s.PhaseOf[e])
			}
			listed[e] = true
			unlisted--
		}
	}
	if unlisted != 0 {
		return nil, "", fmt.Errorf("core: decode: %d events belong to phases that do not list them", unlisted)
	}
	s.chareEvents = make([][]trace.EventID, sum.NumChares)
	for c := 0; c < sum.NumChares && r.Err() == nil; c++ {
		evs := varint.IDs[trace.EventID](r, "chare timeline event", r.Count("chare timeline", nEvents), nEvents, true)
		for _, e := range evs {
			if tab.Chare[e] != trace.ChareID(c) {
				return nil, "", fmt.Errorf("core: decode: chare %d's timeline lists event %d of chare %d", c, e, tab.Chare[e])
			}
		}
		s.chareEvents[c] = evs
	}
	if err := r.Err(); err != nil {
		return nil, "", fmt.Errorf("core: decode: chare timelines: %w", err)
	}
	return s, sum.Fingerprint, nil
}

// PhaseSummary is one phase row of a StructureSummary: everything the codec
// stores about a phase except the chare and event ID payloads, which the
// summary decode range-checks and drops.
type PhaseSummary struct {
	Runtime      bool
	Chares       int
	Events       int
	MaxLocalStep int32
	Offset       int32
	Leap         int32
}

// StructureSummary is the phase-table view of an encoded structure: the
// counts, spans and DAG size that charmd's /structure response renders,
// decodable from a disk entry without reconstructing per-event arrays or
// attaching a trace. MaxStep matches Structure.MaxStep on the full decode.
type StructureSummary struct {
	Fingerprint string
	NumEvents   int
	NumChares   int
	Phases      []PhaseSummary
	DAGEdges    int
	MaxStep     int32
}

// DecodeStructureSummary parses only the header, phase table and DAG of an
// encoded structure — the same parse as the full decode, so it refuses
// whatever that refuses there, streamed through r's buffer and stopped
// before the per-event arrays: serving a phase-table query from disk costs
// the phase table's bytes instead of a decode of every event. The caller
// still owns fingerprint validation (the summary carries the encoded one)
// exactly as with DecodeStructure.
func DecodeStructureSummary(r io.Reader) (*StructureSummary, error) {
	sum, err := readHead(varint.NewStream(bufio.NewReader(r)), nil)
	if err != nil {
		return nil, fmt.Errorf("core: decode summary: %w", err)
	}
	return sum, nil
}
