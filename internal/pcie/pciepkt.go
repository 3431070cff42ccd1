package pcie

import (
	"fmt"

	"pciesim/internal/mem"
	"pciesim/internal/sim"
)

// PktKind distinguishes what a PciePkt carries.
type PktKind uint8

// Packet kinds: a transaction layer packet or one of the data link
// layer packet types the model implements. The flow-control kinds
// carry credit state for one FCClass (see credit.go).
const (
	KindTLP PktKind = iota
	KindAck
	KindNak
	KindInitFC1
	KindInitFC2
	KindUpdateFC
)

// String implements fmt.Stringer.
func (k PktKind) String() string {
	switch k {
	case KindTLP:
		return "TLP"
	case KindAck:
		return "ACK"
	case KindNak:
		return "NAK"
	case KindInitFC1:
		return "InitFC1"
	case KindInitFC2:
		return "InitFC2"
	case KindUpdateFC:
		return "UpdateFC"
	default:
		return fmt.Sprintf("PktKind(%d)", uint8(k))
	}
}

// isFC reports whether the kind is a flow-control DLLP.
func (k PktKind) isFC() bool {
	return k == KindInitFC1 || k == KindInitFC2 || k == KindUpdateFC
}

// PciePkt is the paper's pcie-pkt: "Since we transmit both DLLPs and
// TLPs across the same link, we create a new wrapper class, called
// pcie-pkt, to encapsulate both DLLPs and TLPs" (§V-C). A TLP wraps a
// gem5-style memory packet; ACK/NAK DLLPs carry only a sequence number.
type PciePkt struct {
	Kind PktKind
	// Seq is the data-link-layer sequence number: the TLP's own number,
	// or the cumulative sequence being ACKed/NAKed.
	Seq uint64
	// TLP is the wrapped transaction, nil for DLLPs.
	TLP *mem.Packet

	// Corrupted marks a TLP mangled in transit (error injection); the
	// receiver's CRC check catches it and responds with a NAK.
	Corrupted bool

	// FCCl/FCHdr/FCData are the payload of the flow-control DLLP kinds
	// (InitFC1/InitFC2/UpdateFC): the traffic class and the cumulative
	// header and data credits granted for it, 0 encoding an infinite
	// counter. Zero for every other kind.
	FCCl   FCClass
	FCHdr  uint64
	FCData uint64

	// acked marks a replay-buffer entry already released by an ACK so a
	// queued retransmission of it is skipped.
	acked bool
	// inFreshQ and inReplayQ mark a replay-buffer entry still held by a
	// transmit queue. A replay can queue the same entry in both, and the
	// entry returns to its interface's free list only once it is acked
	// and neither queue holds it.
	inFreshQ, inReplayQ bool
	// replayed marks a retransmission (for the replay-rate statistic).
	replayed bool
	// acceptedAt stamps when the TLP entered the replay buffer, for the
	// accept-to-ACK latency histogram.
	acceptedAt sim.Tick
	// queuedAt stamps when the TLP last entered a transmit queue
	// (freshQ at admission, replayQ at startReplay), the begin mark of
	// the txq-wait / replay-wait attribution segments.
	queuedAt sim.Tick
	// wire snapshots the TLP's wire size at admission. Replays read the
	// snapshot, not the live mem.Packet: the wrapped TLP may since have
	// been delivered, mutated into its response, and recycled through
	// the requestor's packet pool — a replay must transmit what was
	// originally stored, exactly like a real replay buffer does.
	wire int
}

// PayloadBytes returns the TLP payload size: writes carry their data
// toward the completer, reads carry it back in the response — "The
// maximum TLP payload size is 0 for a read request or a write response
// and is cache line size for a write request or read response" (§V-C).
func (p *PciePkt) PayloadBytes() int {
	if p.Kind != KindTLP {
		return 0
	}
	switch p.TLP.Cmd {
	case mem.WriteReq, mem.ReadResp:
		return p.TLP.Size
	default:
		return 0
	}
}

// WireBytes returns the bytes this packet occupies on the wire under
// the given overhead model: "Each pcie-pkt returns a size depending on
// whether it encapsulates a TLP or a DLLP" (§V-C). TLPs admitted to a
// link carry their size as a snapshot taken at admission; see the wire
// field.
func (p *PciePkt) WireBytes(o Overheads) int {
	if p.Kind == KindTLP {
		if p.wire > 0 {
			return p.wire
		}
		return o.TLPWireBytes(p.PayloadBytes())
	}
	return o.DLLPWireBytes()
}

// String implements fmt.Stringer.
func (p *PciePkt) String() string {
	if p.Kind == KindTLP {
		return fmt.Sprintf("%v seq=%d {%v}", p.Kind, p.Seq, p.TLP)
	}
	if p.Kind.isFC() {
		return fmt.Sprintf("%v %v hdr=%d data=%d", p.Kind, p.FCCl, p.FCHdr, p.FCData)
	}
	return fmt.Sprintf("%v seq=%d", p.Kind, p.Seq)
}
