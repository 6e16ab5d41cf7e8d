// Package wire implements the packet-facing edge of the scheduling model
// (Fig 1): decoding Ethernet/IPv4/TCP/UDP headers into preallocated
// structs (the zero-allocation DecodingLayerParser style), extracting the
// 5-tuple flow key, and classifying packets into the per-flow queues the
// scheduler serves. It lets the examples and tests drive the scheduler
// with real frames instead of synthetic (flow, size) pairs.
//
// Decoding is deliberately minimal: exactly the fields the scheduler's
// flow classification needs, with strict length validation and no
// options/extension parsing beyond skipping IPv4 IHL correctly.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Protocol numbers and EtherTypes used by the classifier.
const (
	EtherTypeIPv4 = 0x0800

	ProtoTCP = 6
	ProtoUDP = 17

	ethHeaderLen  = 14
	ipv4MinHeader = 20
	udpHeaderLen  = 8
	tcpMinHeader  = 20
)

// Decode errors.
var (
	ErrTruncated   = errors.New("wire: truncated packet")
	ErrNotIPv4     = errors.New("wire: not an IPv4 packet")
	ErrBadIHL      = errors.New("wire: bad IPv4 header length")
	ErrUnsupported = errors.New("wire: unsupported transport protocol")
	// ErrFragment reports a non-first IPv4 fragment: it has no transport
	// header, so there are no ports to classify it by.
	ErrFragment = errors.New("wire: non-first IPv4 fragment")
)

// Ethernet is a decoded Ethernet II header.
type Ethernet struct {
	Dst       [6]byte
	Src       [6]byte
	EtherType uint16
}

// IPv4 is a decoded IPv4 header (no options retained).
type IPv4 struct {
	Src, Dst    [4]byte
	Protocol    uint8
	TotalLength uint16
	HeaderLen   int
}

// Transport is a decoded TCP/UDP port pair.
type Transport struct {
	SrcPort, DstPort uint16
}

// FiveTuple identifies a flow: addresses, ports, protocol.
type FiveTuple struct {
	SrcIP, DstIP     [4]byte
	SrcPort, DstPort uint16
	Protocol         uint8
}

// String renders the tuple like "10.0.0.1:80->10.0.0.2:12345/tcp".
func (t FiveTuple) String() string {
	proto := fmt.Sprintf("%d", t.Protocol)
	switch t.Protocol {
	case ProtoTCP:
		proto = "tcp"
	case ProtoUDP:
		proto = "udp"
	}
	return fmt.Sprintf("%d.%d.%d.%d:%d->%d.%d.%d.%d:%d/%s",
		t.SrcIP[0], t.SrcIP[1], t.SrcIP[2], t.SrcIP[3], t.SrcPort,
		t.DstIP[0], t.DstIP[1], t.DstIP[2], t.DstIP[3], t.DstPort, proto)
}

// Reverse returns the tuple of the opposite direction.
func (t FiveTuple) Reverse() FiveTuple {
	return FiveTuple{
		SrcIP: t.DstIP, DstIP: t.SrcIP,
		SrcPort: t.DstPort, DstPort: t.SrcPort,
		Protocol: t.Protocol,
	}
}

// FastHash returns a direction-symmetric hash (A->B == B->A), so both
// directions of a connection classify to the same bucket when desired —
// the same property gopacket's Flow.FastHash provides for load
// balancing.
func (t FiveTuple) FastHash() uint64 {
	fwd := t.dirHash(t.SrcIP, t.DstIP, t.SrcPort, t.DstPort)
	rev := t.dirHash(t.DstIP, t.SrcIP, t.DstPort, t.SrcPort)
	return fwd ^ rev
}

func (t FiveTuple) dirHash(a, b [4]byte, pa, pb uint16) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, x := range []uint64{
		uint64(binary.BigEndian.Uint32(a[:])),
		uint64(binary.BigEndian.Uint32(b[:])),
		uint64(pa)<<16 | uint64(pb),
		uint64(t.Protocol),
	} {
		h ^= x
		h *= prime
	}
	return h
}

// Decoder decodes frames into preallocated layer structs, avoiding
// per-packet allocation (the DecodingLayerParser pattern). The zero
// value is ready to use; it is not safe for concurrent use.
type Decoder struct {
	Eth   Ethernet
	IP    IPv4
	Trans Transport
}

// Decode parses an Ethernet/IPv4/{TCP,UDP} frame and returns its flow
// tuple and the frame length to schedule. The input slice is not
// retained.
func (d *Decoder) Decode(frame []byte) (FiveTuple, error) {
	if len(frame) < ethHeaderLen {
		return FiveTuple{}, fmt.Errorf("%w: %d bytes for Ethernet", ErrTruncated, len(frame))
	}
	copy(d.Eth.Dst[:], frame[0:6])
	copy(d.Eth.Src[:], frame[6:12])
	d.Eth.EtherType = binary.BigEndian.Uint16(frame[12:14])
	if d.Eth.EtherType != EtherTypeIPv4 {
		return FiveTuple{}, fmt.Errorf("%w: ethertype 0x%04x", ErrNotIPv4, d.Eth.EtherType)
	}

	ip := frame[ethHeaderLen:]
	if len(ip) < ipv4MinHeader {
		return FiveTuple{}, fmt.Errorf("%w: %d bytes for IPv4", ErrTruncated, len(ip))
	}
	if version := ip[0] >> 4; version != 4 {
		return FiveTuple{}, fmt.Errorf("%w: version %d", ErrNotIPv4, version)
	}
	ihl := int(ip[0]&0x0f) * 4
	if ihl < ipv4MinHeader || len(ip) < ihl {
		return FiveTuple{}, fmt.Errorf("%w: IHL %d", ErrBadIHL, ihl)
	}
	d.IP.HeaderLen = ihl
	d.IP.TotalLength = binary.BigEndian.Uint16(ip[2:4])
	d.IP.Protocol = ip[9]
	copy(d.IP.Src[:], ip[12:16])
	copy(d.IP.Dst[:], ip[16:20])
	// A fragment at a non-zero offset carries payload where the first
	// fragment (offset 0, MF set) carries the transport header.
	if off := binary.BigEndian.Uint16(ip[6:8]) & 0x1fff; off != 0 {
		return FiveTuple{}, fmt.Errorf("%w: offset %d", ErrFragment, off)
	}

	trans := ip[ihl:]
	switch d.IP.Protocol {
	case ProtoTCP:
		if len(trans) < tcpMinHeader {
			return FiveTuple{}, fmt.Errorf("%w: %d bytes for TCP", ErrTruncated, len(trans))
		}
	case ProtoUDP:
		if len(trans) < udpHeaderLen {
			return FiveTuple{}, fmt.Errorf("%w: %d bytes for UDP", ErrTruncated, len(trans))
		}
	default:
		return FiveTuple{}, fmt.Errorf("%w: protocol %d", ErrUnsupported, d.IP.Protocol)
	}
	d.Trans.SrcPort = binary.BigEndian.Uint16(trans[0:2])
	d.Trans.DstPort = binary.BigEndian.Uint16(trans[2:4])

	return FiveTuple{
		SrcIP: d.IP.Src, DstIP: d.IP.Dst,
		SrcPort: d.Trans.SrcPort, DstPort: d.Trans.DstPort,
		Protocol: d.IP.Protocol,
	}, nil
}

// BuildFrame serializes a minimal Ethernet/IPv4/{TCP,UDP} frame with the
// given tuple and payload length — the test-vector generator for the
// decoder and the examples' traffic source. The payload bytes are zero.
func BuildFrame(t FiveTuple, payloadLen int) []byte {
	transLen := udpHeaderLen
	if t.Protocol == ProtoTCP {
		transLen = tcpMinHeader
	}
	ipTotal := ipv4MinHeader + transLen + payloadLen
	frame := make([]byte, ethHeaderLen+ipTotal)

	// Ethernet: synthetic MACs derived from the IPs.
	copy(frame[0:6], []byte{2, 0, t.DstIP[0], t.DstIP[1], t.DstIP[2], t.DstIP[3]})
	copy(frame[6:12], []byte{2, 0, t.SrcIP[0], t.SrcIP[1], t.SrcIP[2], t.SrcIP[3]})
	binary.BigEndian.PutUint16(frame[12:14], EtherTypeIPv4)

	ip := frame[ethHeaderLen:]
	ip[0] = 0x45 // v4, IHL 5
	binary.BigEndian.PutUint16(ip[2:4], uint16(ipTotal))
	ip[8] = 64 // TTL
	ip[9] = t.Protocol
	copy(ip[12:16], t.SrcIP[:])
	copy(ip[16:20], t.DstIP[:])
	binary.BigEndian.PutUint16(ip[10:12], ipv4Checksum(ip[:ipv4MinHeader]))

	trans := ip[ipv4MinHeader:]
	binary.BigEndian.PutUint16(trans[0:2], t.SrcPort)
	binary.BigEndian.PutUint16(trans[2:4], t.DstPort)
	if t.Protocol == ProtoUDP {
		binary.BigEndian.PutUint16(trans[4:6], uint16(transLen+payloadLen))
	} else {
		trans[12] = byte(tcpMinHeader/4) << 4 // data offset
	}
	return frame
}

// ipv4Checksum computes the standard IPv4 header checksum over a header
// whose checksum field is zero.
func ipv4Checksum(header []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(header); i += 2 {
		if i == 10 {
			continue // checksum field itself
		}
		sum += uint32(binary.BigEndian.Uint16(header[i : i+2]))
	}
	for sum > 0xffff {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// ValidateIPv4Checksum reports whether the header checksum of a decoded
// frame is correct.
func ValidateIPv4Checksum(frame []byte) bool {
	if len(frame) < ethHeaderLen+ipv4MinHeader {
		return false
	}
	ip := frame[ethHeaderLen:]
	ihl := int(ip[0]&0x0f) * 4
	if ihl < ipv4MinHeader || len(ip) < ihl {
		return false
	}
	var sum uint32
	for i := 0; i+1 < ihl; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(ip[i : i+2]))
	}
	for sum > 0xffff {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return uint16(sum) == 0xffff
}
