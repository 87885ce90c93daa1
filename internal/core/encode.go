package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"

	"charmtrace/internal/graph"
	"charmtrace/internal/trace"
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

// StructMagic is the 4-byte prefix of every encoded structure, exported so
// transport layers (the cluster's replication writes) can cheaply reject
// bodies that are not encoded structures before spooling them to disk.
const StructMagic = "CSTR"

// StructCodecVersion is the current structure-encoding version.
const StructCodecVersion = 1

type swriter struct {
	w   *bufio.Writer
	err error
}

func (b *swriter) u8(v uint8) {
	if b.err == nil {
		b.err = b.w.WriteByte(v)
	}
}
func (b *swriter) uv(v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	if b.err == nil {
		_, b.err = b.w.Write(buf[:n])
	}
}
func (b *swriter) i64(v int64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	if b.err == nil {
		_, b.err = b.w.Write(buf[:n])
	}
}
func (b *swriter) i32(v int32) { b.i64(int64(v)) }
func (b *swriter) str(s string) {
	b.uv(uint64(len(s)))
	if b.err == nil {
		_, b.err = b.w.WriteString(s)
	}
}

// EncodeStructure writes the structure in the binary codec. The trace is
// not encoded; DecodeStructure reattaches one.
func EncodeStructure(w io.Writer, s *Structure) error {
	b := &swriter{w: bufio.NewWriter(w)}
	if _, err := b.w.Write(structMagic[:]); err != nil {
		return err
	}
	b.uv(StructCodecVersion)
	b.str(s.EncodedFingerprint())
	b.uv(uint64(len(s.Step)))
	b.uv(uint64(len(s.chareEvents)))
	b.uv(uint64(len(s.Phases)))
	for i := range s.Phases {
		p := &s.Phases[i]
		if p.Runtime {
			b.u8(1)
		} else {
			b.u8(0)
		}
		b.uv(uint64(len(p.Chares)))
		for _, c := range p.Chares {
			b.i32(int32(c))
		}
		b.uv(uint64(len(p.Events)))
		for _, e := range p.Events {
			b.i32(int32(e))
		}
		b.i32(p.MaxLocalStep)
		b.i32(p.Offset)
		b.i32(p.Leap)
	}
	for i := range s.Phases {
		adj := s.DAG.Adj[i]
		b.uv(uint64(len(adj)))
		for _, v := range adj {
			b.i32(v)
		}
	}
	for _, v := range s.PhaseOf {
		b.i32(v)
	}
	for _, v := range s.LocalStep {
		b.i32(v)
	}
	for _, v := range s.Step {
		b.i32(v)
	}
	for _, evs := range s.chareEvents {
		b.uv(uint64(len(evs)))
		for _, e := range evs {
			b.i32(int32(e))
		}
	}
	if b.err != nil {
		return fmt.Errorf("core: encode: %w", b.err)
	}
	return b.w.Flush()
}

// sreader reads the codec. limit is the input's length when the whole
// input is in hand: everything a count counts takes at least a byte, so a
// count beyond it is a lie, refused before it can size an allocation.
type sreader struct {
	r     *bufio.Reader
	err   error
	limit uint64
}

func (b *sreader) u8() uint8 {
	if b.err != nil {
		return 0
	}
	v, err := b.r.ReadByte()
	b.err = err
	return v
}
func (b *sreader) uv() uint64 {
	if b.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(b.r)
	if b.err = err; err != nil {
		return 0 // on overflow ReadUvarint returns the bits it had
	}
	return v
}
func (b *sreader) i64() int64 {
	if b.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(b.r)
	if b.err = err; err != nil {
		return 0
	}
	return v
}
func (b *sreader) i32() int32 {
	v := b.i64()
	if b.err == nil && (v > math.MaxInt32 || v < math.MinInt32) {
		b.err = fmt.Errorf("varint %d exceeds int32", v)
	}
	return int32(v)
}

// id reads a reference into a table of n items.
func (b *sreader) id(what string, n int) int32 {
	v := b.i32()
	if b.err == nil && (v < 0 || int(v) >= n) {
		b.err = fmt.Errorf("%s %d out of range", what, v)
	}
	return v
}
func (b *sreader) count(what string, max uint64) int {
	n := b.uv()
	if b.err == nil && (n > max || n > b.limit) {
		b.err = fmt.Errorf("%s count %d too large", what, n)
		return 0
	}
	return int(n)
}
func (b *sreader) str() string {
	n := b.count("string", 1<<20)
	if b.err != nil {
		return ""
	}
	// Copied as it arrives, so a length the stream does not back allocates
	// nothing (found by FuzzDecodeStructureSummary, where limit is unknown).
	var sb strings.Builder
	if _, b.err = io.CopyN(&sb, b.r, int64(n)); b.err == io.EOF {
		b.err = io.ErrUnexpectedEOF
	}
	return sb.String()
}

// skipVarints discards n varint-encoded values without materializing them —
// the summary decoder's way of stepping over ID payloads it does not need.
func (b *sreader) skipVarints(n int) {
	for i := 0; i < n && b.err == nil; i++ {
		for {
			c, err := b.r.ReadByte()
			if err != nil {
				b.err = err
				return
			}
			if c < 0x80 {
				break
			}
		}
	}
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
	b := &sreader{r: bufio.NewReader(bytes.NewReader(data)), limit: uint64(len(data))}
	var magic [4]byte
	if _, err := io.ReadFull(b.r, magic[:]); err != nil {
		return nil, "", fmt.Errorf("core: decode: %w", err)
	}
	if magic != structMagic {
		return nil, "", fmt.Errorf("core: decode: bad magic %q", magic[:])
	}
	if v := b.uv(); b.err == nil && v != StructCodecVersion {
		return nil, "", fmt.Errorf("core: decode: unsupported version %d", v)
	}
	fp := b.str()
	nEvents := b.count("event", uint64(tab.NumEvents()))
	nChares := b.count("chare", uint64(tab.NumChares()))
	if b.err == nil && (nEvents != tab.NumEvents() || nChares != tab.NumChares()) {
		return nil, "", fmt.Errorf("core: decode: structure is for %d events/%d chares, trace has %d/%d",
			nEvents, nChares, tab.NumEvents(), tab.NumChares())
	}
	s := &Structure{tab: tab, decodedFP: fp}
	nPhases := b.count("phase", uint64(nEvents)+1)
	s.Phases = make([]Phase, 0, nPhases)
	for i := 0; i < nPhases && b.err == nil; i++ {
		p := Phase{ID: int32(i), Runtime: b.u8() != 0}
		if n := b.count("phase chare", uint64(nChares)); n > 0 && b.err == nil {
			p.Chares = make([]trace.ChareID, 0, n)
			for j := 0; j < n && b.err == nil; j++ {
				p.Chares = append(p.Chares, trace.ChareID(b.id("phase chare", nChares)))
			}
		}
		if n := b.count("phase event", uint64(nEvents)); n > 0 && b.err == nil {
			p.Events = make([]trace.EventID, 0, n)
			for j := 0; j < n && b.err == nil; j++ {
				p.Events = append(p.Events, trace.EventID(b.id("phase event", nEvents)))
			}
		}
		p.MaxLocalStep = b.i32()
		p.Offset = b.i32()
		p.Leap = b.i32()
		// Local steps are dense within a phase and offsets add up along DAG
		// paths, so these bounds hold for anything Extract produced; they
		// keep the tables the views size by steps within O(events).
		if b.err == nil && (p.MaxLocalStep < -1 || int(p.MaxLocalStep) > len(p.Events) ||
			p.Offset < 0 || int(p.Offset) > nEvents+nPhases || p.Leap < 0 || int(p.Leap) >= nPhases) {
			b.err = fmt.Errorf("phase %d spans (max local step %d, offset %d, leap %d) out of range", i, p.MaxLocalStep, p.Offset, p.Leap)
		}
		s.Phases = append(s.Phases, p)
	}
	s.DAG = graph.New(nPhases)
	for i := 0; i < nPhases && b.err == nil; i++ {
		n := b.count("edge", uint64(nPhases))
		if n == 0 || b.err != nil {
			continue
		}
		adj := make([]int32, 0, n)
		for j := 0; j < n && b.err == nil; j++ {
			adj = append(adj, b.id("edge target", nPhases))
		}
		s.DAG.Adj[i] = adj
	}
	readPerEvent := func(what string) []int32 {
		out := make([]int32, nEvents)
		for i := range out {
			out[i] = b.i32()
		}
		if b.err != nil && what != "" {
			b.err = fmt.Errorf("%s: %w", what, b.err)
		}
		return out
	}
	s.PhaseOf = readPerEvent("phase-of")
	s.LocalStep = readPerEvent("local-step")
	s.Step = readPerEvent("step")
	// The three arrays and the phase table say the same thing twice; hold
	// them to each other, so that whatever sizes a table by one (MaxStep, a
	// phase's local steps) can index it by the other.
	phased := 0
	for e := 0; e < nEvents && b.err == nil; e++ {
		switch pi := s.PhaseOf[e]; {
		case pi < 0 || int(pi) >= nPhases: // -1, an event left without a phase, included: Validate refuses one
			b.err = fmt.Errorf("event %d in unknown phase %d", e, pi)
		case s.LocalStep[e] < 0 || s.LocalStep[e] > s.Phases[pi].MaxLocalStep || s.Step[e] != s.Phases[pi].Offset+s.LocalStep[e]:
			b.err = fmt.Errorf("event %d at local step %d, step %d outside phase %d", e, s.LocalStep[e], s.Step[e], pi)
		default:
			phased++
		}
	}
	listed := make([]bool, nEvents)
	for pi := 0; pi < nPhases && b.err == nil; pi++ {
		for _, e := range s.Phases[pi].Events {
			if s.PhaseOf[e] != int32(pi) || listed[e] {
				b.err = fmt.Errorf("phase %d lists event %d of phase %d, or lists it twice", pi, e, s.PhaseOf[e])
				break
			}
			listed[e] = true
			phased--
		}
	}
	if b.err == nil && phased != 0 {
		b.err = fmt.Errorf("%d events belong to phases that do not list them", phased)
	}
	s.chareEvents = make([][]trace.EventID, nChares)
	for c := 0; c < nChares && b.err == nil; c++ {
		n := b.count("chare timeline", uint64(nEvents))
		if n == 0 {
			continue
		}
		evs := make([]trace.EventID, 0, n)
		for j := 0; j < n && b.err == nil; j++ {
			e := b.id("chare timeline event", nEvents)
			if b.err == nil && tab.Chare[e] != trace.ChareID(c) {
				b.err = fmt.Errorf("chare %d's timeline lists event %d of chare %d", c, e, tab.Chare[e])
			}
			evs = append(evs, trace.EventID(e))
		}
		s.chareEvents[c] = evs
	}
	if b.err != nil {
		return nil, "", fmt.Errorf("core: decode: %w", b.err)
	}
	return s, fp, nil
}

// PhaseSummary is one phase row of a StructureSummary: everything the codec
// stores about a phase except the chare and event ID payloads, which the
// summary decode steps over.
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

// DecodeStructureSummary parses only the header, phase table and DAG degree
// counts of an encoded structure — a streaming read that stops before the
// per-event arrays, so serving a phase-table query from disk costs O(phases)
// instead of O(events). The caller still owns fingerprint validation (the
// summary carries the encoded one) exactly as with DecodeStructure.
func DecodeStructureSummary(r io.Reader) (*StructureSummary, error) {
	b := &sreader{r: bufio.NewReader(r), limit: math.MaxUint64}
	var magic [4]byte
	if _, err := io.ReadFull(b.r, magic[:]); err != nil {
		return nil, fmt.Errorf("core: decode summary: %w", err)
	}
	if magic != structMagic {
		return nil, fmt.Errorf("core: decode summary: bad magic %q", magic[:])
	}
	if v := b.uv(); b.err == nil && v != StructCodecVersion {
		return nil, fmt.Errorf("core: decode summary: unsupported version %d", v)
	}
	sum := &StructureSummary{Fingerprint: b.str(), MaxStep: -1}
	sum.NumEvents = b.count("event", math.MaxInt32)
	sum.NumChares = b.count("chare", math.MaxInt32)
	nPhases := b.count("phase", uint64(sum.NumEvents)+1)
	// The stream's length is unknown here, so the phase count is a claim:
	// it sizes at most a small first allocation and append does the rest.
	sum.Phases = make([]PhaseSummary, 0, min(nPhases, 1024))
	for i := 0; i < nPhases && b.err == nil; i++ {
		p := PhaseSummary{Runtime: b.u8() != 0}
		p.Chares = b.count("phase chare", uint64(sum.NumChares))
		b.skipVarints(p.Chares)
		p.Events = b.count("phase event", uint64(sum.NumEvents))
		b.skipVarints(p.Events)
		p.MaxLocalStep = b.i32()
		p.Offset = b.i32()
		p.Leap = b.i32()
		if hi := p.Offset + p.MaxLocalStep; p.Events > 0 && hi > sum.MaxStep {
			sum.MaxStep = hi
		}
		sum.Phases = append(sum.Phases, p)
	}
	for i := 0; i < nPhases && b.err == nil; i++ {
		deg := b.count("edge", uint64(nPhases))
		b.skipVarints(deg)
		sum.DAGEdges += deg
	}
	if b.err != nil {
		return nil, fmt.Errorf("core: decode summary: %w", b.err)
	}
	return sum, nil
}
