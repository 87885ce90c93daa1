// Package trace defines the event model consumed by the logical-structure
// algorithm: chares, entry methods, serial blocks (entry-method executions),
// dependency events (sends and receives) and idle records.
//
// The model mirrors what the paper's modified Charm++ tracing framework
// records (Sections 2.1 and 5): begin and end times of each entry method
// executed on each processor, messaging events with matched message
// identifiers, the chare and chare-array identifiers of each event, and
// enough SDAG information (per-entry serial numbers) to infer
// happened-before relationships between serial code sections.
package trace

import "fmt"

// Time is virtual time in nanoseconds. All simulators in this repository
// run on a deterministic virtual clock, so Time is an integer count rather
// than a wall-clock type. Index accepts only |t| < 2^62 (146 years either
// side of zero), which leaves every difference of two times representable.
type Time int64

// PE identifies a processor (processing element).
type PE int32

// ChareID identifies a chare. Application chares encapsulate sub-domains;
// runtime chares (for example the per-PE reduction managers) belong to the
// runtime system and are grouped per process rather than per sub-domain.
type ChareID int32

// NoChare marks an absent chare reference.
const NoChare ChareID = -1

// ArrayID identifies a chare array (an indexed collection of chares).
type ArrayID int32

// NoArray marks a chare that does not belong to any chare array.
const NoArray ArrayID = -1

// EntryID identifies an entry-method type (not an execution of one).
type EntryID int32

// MsgID identifies a message. A point-to-point message has exactly one send
// and one receive carrying the same MsgID; a broadcast has one send and many
// receives.
type MsgID int64

// NoMsg marks the absence of a message, for example on a serial block that
// was started locally rather than by a message delivery.
const NoMsg MsgID = -1

// EventID indexes into Trace.Events.
type EventID int32

// NoEvent marks an absent event reference.
const NoEvent EventID = -1

// BlockID indexes into Trace.Blocks.
type BlockID int32

// NoBlock marks an absent block reference.
const NoBlock BlockID = -1

// EventKind distinguishes dependency events.
type EventKind uint8

const (
	// Send is an entry-method invocation call: the source of a dependency.
	Send EventKind = iota
	// Recv is the delivery that begins executing the destination entry
	// method: the sink of a dependency.
	Recv
)

// String returns "send" or "recv".
func (k EventKind) String() string {
	switch k {
	case Send:
		return "send"
	case Recv:
		return "recv"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is a single dependency event: a send (remote method invocation call)
// or a receive (the matching delivery that starts the destination task).
type Event struct {
	ID    EventID
	Kind  EventKind
	Time  Time
	Chare ChareID // chare the event belongs to
	PE    PE      // processor it was recorded on
	Msg   MsgID   // message sent or received; NoMsg only for synthetic events
	Block BlockID // serial block containing the event
}

// Block is a serial block: one uninterrupted execution of an entry method on
// a chare. Events lists the block's dependency events in recorded order; a
// block triggered by a message delivery starts with the corresponding Recv.
type Block struct {
	ID    BlockID
	Chare ChareID
	PE    PE
	Entry EntryID
	Begin Time
	End   Time
	// Events are the block's dependency events, ordered by time. The order
	// within a serial block is determined explicitly by the developer and is
	// never changed by reordering.
	Events []EventID
}

// Duration returns the block's span in virtual time.
func (b *Block) Duration() Time { return b.End - b.Begin }

// Chare describes one chare.
type Chare struct {
	ID      ChareID
	Name    string
	Array   ArrayID // NoArray for singleton chares
	Index   int     // index within the chare array, -1 for singletons
	Runtime bool    // true for runtime-system chares
	Home    PE      // processor the chare lives on (initial placement)
}

// Entry describes an entry-method type.
type Entry struct {
	ID   EntryID
	Name string
	// SDAGSerial is the parsing-order number the Charm++ compiler assigns to
	// generated serial entry methods (Section 2.1). Entries close in
	// numbering may be close in control-flow order; -1 for non-SDAG entries.
	SDAGSerial int
	// AfterWhen is true for a serial entry that directly follows a `when`
	// clause: it is guaranteed to occur immediately after the dependencies
	// of that when clause are fulfilled.
	AfterWhen bool
}

// Idle records a span during which a processor had no task to execute.
type Idle struct {
	PE    PE
	Begin Time
	End   Time
}

// Duration returns the idle span length.
func (i Idle) Duration() Time { return i.End - i.Begin }
