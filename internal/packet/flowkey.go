// Package packet defines the flow and packet model shared by every layer of
// the OmniWindow reproduction: the 5-tuple flow key, the simulated packet
// with its TCP metadata, and the OmniWindow custom header that the data
// plane inserts between the Ethernet and IP headers (paper §8).
//
// The types here follow the gopacket convention of fixed-size, comparable
// key types: a FlowKey is a plain struct of scalars so it can be used
// directly as a map key and hashed without allocation.
package packet

import (
	"fmt"
	"net/netip"
)

// KeyBytes is the wire size of a serialized 5-tuple flow key:
// 4 (src IP) + 4 (dst IP) + 2 (src port) + 2 (dst port) + 1 (proto).
const KeyBytes = 13

// Protocol numbers used by the trace generator and queries.
const (
	ProtoTCP  uint8 = 6
	ProtoUDP  uint8 = 17
	ProtoICMP uint8 = 1
)

// FlowKey is an IPv4 5-tuple. It is comparable and allocation-free, so it
// serves both as a map key in the controller's key-value table and as the
// value hashed by the data-plane sketch instances.
type FlowKey struct {
	SrcIP   uint32
	DstIP   uint32
	SrcPort uint16
	DstPort uint16
	Proto   uint8
}

// Bytes serializes the key into its 13-byte canonical form (big endian),
// matching the flowkey field of the OmniWindow custom header.
func (k FlowKey) Bytes() [KeyBytes]byte {
	var b [KeyBytes]byte
	b[0] = byte(k.SrcIP >> 24)
	b[1] = byte(k.SrcIP >> 16)
	b[2] = byte(k.SrcIP >> 8)
	b[3] = byte(k.SrcIP)
	b[4] = byte(k.DstIP >> 24)
	b[5] = byte(k.DstIP >> 16)
	b[6] = byte(k.DstIP >> 8)
	b[7] = byte(k.DstIP)
	b[8] = byte(k.SrcPort >> 8)
	b[9] = byte(k.SrcPort)
	b[10] = byte(k.DstPort >> 8)
	b[11] = byte(k.DstPort)
	b[12] = k.Proto
	return b
}

// KeyFromBytes parses a key previously produced by Bytes.
func KeyFromBytes(b [KeyBytes]byte) FlowKey {
	return FlowKey{
		SrcIP:   uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]),
		DstIP:   uint32(b[4])<<24 | uint32(b[5])<<16 | uint32(b[6])<<8 | uint32(b[7]),
		SrcPort: uint16(b[8])<<8 | uint16(b[9]),
		DstPort: uint16(b[10])<<8 | uint16(b[11]),
		Proto:   b[12],
	}
}

// Reverse returns the key of the opposite direction of the same
// conversation (src and dst swapped).
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{
		SrcIP:   k.DstIP,
		DstIP:   k.SrcIP,
		SrcPort: k.DstPort,
		DstPort: k.SrcPort,
		Proto:   k.Proto,
	}
}

// SrcAddr returns the source address as a netip.Addr, for display.
func (k FlowKey) SrcAddr() netip.Addr {
	return netip.AddrFrom4([4]byte{byte(k.SrcIP >> 24), byte(k.SrcIP >> 16), byte(k.SrcIP >> 8), byte(k.SrcIP)})
}

// DstAddr returns the destination address as a netip.Addr, for display.
func (k FlowKey) DstAddr() netip.Addr {
	return netip.AddrFrom4([4]byte{byte(k.DstIP >> 24), byte(k.DstIP >> 16), byte(k.DstIP >> 8), byte(k.DstIP)})
}

// String renders the key as "src:port->dst:port/proto".
func (k FlowKey) String() string {
	return fmt.Sprintf("%s:%d->%s:%d/%d", k.SrcAddr(), k.SrcPort, k.DstAddr(), k.DstPort, k.Proto)
}

// IsZero reports whether the key is the zero 5-tuple, which the data plane
// uses as the "empty slot" sentinel in flowkey-tracking registers.
func (k FlowKey) IsZero() bool {
	return k == FlowKey{}
}

// Less orders flow keys by (SrcIP, DstIP, SrcPort, DstPort, Proto): the
// one deterministic key order every emitted key list and snapshot uses.
func (k FlowKey) Less(o FlowKey) bool {
	if k.SrcIP != o.SrcIP {
		return k.SrcIP < o.SrcIP
	}
	if k.DstIP != o.DstIP {
		return k.DstIP < o.DstIP
	}
	if k.SrcPort != o.SrcPort {
		return k.SrcPort < o.SrcPort
	}
	if k.DstPort != o.DstPort {
		return k.DstPort < o.DstPort
	}
	return k.Proto < o.Proto
}

// SrcHostKey collapses the 5-tuple to a source-host key (dst fields
// zeroed). Several queries (super-spreader, port scan sources) aggregate by
// source host rather than by full 5-tuple.
func (k FlowKey) SrcHostKey() FlowKey {
	return FlowKey{SrcIP: k.SrcIP, Proto: k.Proto}
}

// DstHostKey collapses the 5-tuple to a destination-host key. Victim-side
// queries (DDoS, SYN flood, Slowloris) aggregate by destination host.
func (k FlowKey) DstHostKey() FlowKey {
	return FlowKey{DstIP: k.DstIP, Proto: k.Proto}
}
