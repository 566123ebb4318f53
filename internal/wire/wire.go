// Package wire serializes the OmniWindow custom header for transmission
// between switches and the controller. On hardware the header sits
// between the Ethernet and IP headers (paper §8); here it becomes the
// payload of UDP datagrams so a controller can run as an ordinary network
// service (see the collector server in internal/controller).
//
// Encoding is fixed-layout big-endian via encoding/binary — no reflection
// on the hot path, no allocations beyond the output buffer.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"omniwindow/internal/packet"
)

// Magic ("OW" in ASCII) and Version identify OmniWindow datagrams.
// Version 2 added the NACK sequence list and the CRC-32 trailer; version 3
// added the synchronization epoch carried by every stamp (switch-failure
// tolerance: stale-epoch stamps from rebooted switches are rejected).
const (
	Magic   uint16 = 0x4F57
	Version uint8  = 3
)

// Errors returned by Decode.
var (
	ErrBadMagic   = errors.New("wire: bad magic")
	ErrBadVersion = errors.New("wire: unsupported version")
	ErrTruncated  = errors.New("wire: truncated datagram")
	ErrChecksum   = errors.New("wire: checksum mismatch")
)

// afrSize is the encoded size of one AFR: key(13) + attr(8) +
// subwindow(8) + seq(4) + app(1) + flags(1) + distinct(32).
const afrSize = packet.KeyBytes + 8 + 8 + 4 + 1 + 1 + 32

// headerSize is the fixed prefix: magic(2) + version(1) + flag(1) +
// subwindow(8) + hasSub(1) + epoch(8) + index(4) + keycount(4) + app(1) +
// key(13) + userSignal(8) + hasUser(1) + nAFRs(2) + nRaw(2) + nSeqs(2).
const headerSize = 2 + 1 + 1 + 8 + 1 + 8 + 4 + 4 + 1 + packet.KeyBytes + 8 + 1 + 2 + 2 + 2

// sumSize is the CRC-32 (IEEE) trailer covering everything before it.
// In-flight truncation changes the frame length (caught by the count
// fields) and in-flight corruption breaks the checksum, so the fault
// layer's mangled datagrams are always detected, never silently merged.
const sumSize = 4

// MaxAFRsPerDatagram bounds records per datagram so encoded packets fit
// comfortably in one MTU-sized-ish datagram (the simulation is not bound
// by a real MTU; the bound keeps encodings sane).
const MaxAFRsPerDatagram = 128

// MaxSeqsPerDatagram bounds the missing-sequence list of one NACK; larger
// gap lists are chunked across datagrams (controller.NackPackets).
const MaxSeqsPerDatagram = 1024

// EncodedSize returns the byte size Encode will produce for p.
func EncodedSize(p *packet.Packet) int {
	return headerSize + len(p.OW.AFRs)*afrSize + len(p.OW.RawWords)*8 + len(p.OW.Seqs)*4 + sumSize
}

// Encode serializes p's OmniWindow header into buf, growing it as needed,
// and returns the resulting slice.
func Encode(buf []byte, p *packet.Packet) ([]byte, error) {
	if len(p.OW.AFRs) > MaxAFRsPerDatagram {
		return nil, fmt.Errorf("wire: %d AFRs exceed the %d per-datagram bound", len(p.OW.AFRs), MaxAFRsPerDatagram)
	}
	if len(p.OW.Seqs) > MaxSeqsPerDatagram {
		return nil, fmt.Errorf("wire: %d NACK seqs exceed the %d per-datagram bound", len(p.OW.Seqs), MaxSeqsPerDatagram)
	}
	need := EncodedSize(p)
	if cap(buf) < need {
		buf = make([]byte, 0, need)
	}
	buf = buf[:0]

	buf = binary.BigEndian.AppendUint16(buf, magicValue)
	buf = append(buf, Version, byte(p.OW.Flag))
	buf = binary.BigEndian.AppendUint64(buf, p.OW.SubWindow)
	buf = append(buf, b2u(p.OW.HasSubWindow))
	buf = binary.BigEndian.AppendUint64(buf, p.OW.Epoch)
	buf = binary.BigEndian.AppendUint32(buf, p.OW.Index)
	buf = binary.BigEndian.AppendUint32(buf, p.OW.KeyCount)
	buf = append(buf, p.OW.App)
	kb := p.OW.Key.Bytes()
	buf = append(buf, kb[:]...)
	buf = binary.BigEndian.AppendUint64(buf, p.OW.UserSignal)
	buf = append(buf, b2u(p.OW.HasUserSignal))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(p.OW.AFRs)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(p.OW.RawWords)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(p.OW.Seqs)))

	for i := range p.OW.AFRs {
		buf = appendAFR(buf, &p.OW.AFRs[i])
	}
	for _, w := range p.OW.RawWords {
		buf = binary.BigEndian.AppendUint64(buf, w)
	}
	for _, s := range p.OW.Seqs {
		buf = binary.BigEndian.AppendUint32(buf, s)
	}
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf, nil
}

// Decode parses a datagram produced by Encode into a fresh packet holding
// only the OmniWindow header (the simulated payload does not travel).
func Decode(data []byte) (*packet.Packet, error) {
	p := &packet.Packet{}
	if err := DecodeInto(p, data); err != nil {
		return nil, err
	}
	return p, nil
}

// DecodeInto parses a datagram produced by Encode into p, reusing p's
// slice capacity instead of allocating per frame — the collector's ingest
// workers decode every datagram into one long-lived packet, so the steady
// state allocates nothing. p's slices are reusable scratch: callers must
// never retain them past the next DecodeInto.
//
// On error p's contents are unspecified; it remains valid scratch for the
// next call. data is not retained.
func DecodeInto(p *packet.Packet, data []byte) error {
	if len(data) < headerSize+sumSize {
		return ErrTruncated
	}
	if binary.BigEndian.Uint16(data) != magicValue {
		return ErrBadMagic
	}
	if data[2] != Version {
		return ErrBadVersion
	}
	// Hold on to the slice capacity across the reset: every other field
	// zeroes like a fresh packet, matching Decode exactly.
	afrs := p.OW.AFRs[:0]
	raws := p.OW.RawWords[:0]
	seqs := p.OW.Seqs[:0]
	*p = packet.Packet{}
	p.OW.Flag = packet.OWFlag(data[3])
	p.OW.SubWindow = binary.BigEndian.Uint64(data[4:])
	p.OW.HasSubWindow = data[12] != 0
	p.OW.Epoch = binary.BigEndian.Uint64(data[13:])
	p.OW.Index = binary.BigEndian.Uint32(data[21:])
	p.OW.KeyCount = binary.BigEndian.Uint32(data[25:])
	p.OW.App = data[29]
	var kb [packet.KeyBytes]byte
	copy(kb[:], data[30:])
	p.OW.Key = packet.KeyFromBytes(kb)
	off := 30 + packet.KeyBytes
	p.OW.UserSignal = binary.BigEndian.Uint64(data[off:])
	p.OW.HasUserSignal = data[off+8] != 0
	nAFR := int(binary.BigEndian.Uint16(data[off+9:]))
	nRaw := int(binary.BigEndian.Uint16(data[off+11:]))
	nSeq := int(binary.BigEndian.Uint16(data[off+13:]))
	off += 15

	if len(data) != headerSize+nAFR*afrSize+nRaw*8+nSeq*4+sumSize {
		return ErrTruncated
	}
	body := data[:len(data)-sumSize]
	if binary.BigEndian.Uint32(data[len(body):]) != crc32.ChecksumIEEE(body) {
		return ErrChecksum
	}
	if nAFR > 0 {
		if cap(afrs) < nAFR {
			afrs = make([]packet.AFR, nAFR)
		}
		afrs = afrs[:nAFR]
		for i := 0; i < nAFR; i++ {
			decodeAFR(data[off:], &afrs[i])
			off += afrSize
		}
		p.OW.AFRs = afrs
	}
	if nRaw > 0 {
		if cap(raws) < nRaw {
			raws = make([]uint64, nRaw)
		}
		raws = raws[:nRaw]
		for i := range raws {
			raws[i] = binary.BigEndian.Uint64(data[off:])
			off += 8
		}
		p.OW.RawWords = raws
	}
	if nSeq > 0 {
		if cap(seqs) < nSeq {
			seqs = make([]uint32, nSeq)
		}
		seqs = seqs[:nSeq]
		for i := range seqs {
			seqs[i] = binary.BigEndian.Uint32(data[off:])
			off += 4
		}
		p.OW.Seqs = seqs
	}
	return nil
}

// magicValue aliases Magic internally.
const magicValue = Magic

// appendAFR serializes one AFR in the fixed afrSize layout shared by
// datagrams, WAL records and snapshots.
func appendAFR(buf []byte, r *packet.AFR) []byte {
	rk := r.Key.Bytes()
	buf = append(buf, rk[:]...)
	buf = binary.BigEndian.AppendUint64(buf, r.Attr)
	buf = binary.BigEndian.AppendUint64(buf, r.SubWindow)
	buf = binary.BigEndian.AppendUint32(buf, r.Seq)
	buf = append(buf, r.App, b2u(r.HasDistinct))
	for _, w := range r.Distinct {
		buf = binary.BigEndian.AppendUint64(buf, w)
	}
	return buf
}

// decodeAFR parses one afrSize-byte record. The caller guarantees
// len(data) >= afrSize.
func decodeAFR(data []byte, r *packet.AFR) {
	var kb [packet.KeyBytes]byte
	copy(kb[:], data)
	r.Key = packet.KeyFromBytes(kb)
	off := packet.KeyBytes
	r.Attr = binary.BigEndian.Uint64(data[off:])
	r.SubWindow = binary.BigEndian.Uint64(data[off+8:])
	r.Seq = binary.BigEndian.Uint32(data[off+16:])
	r.App = data[off+20]
	r.HasDistinct = data[off+21] != 0
	off += 22
	for w := range r.Distinct {
		r.Distinct[w] = binary.BigEndian.Uint64(data[off:])
		off += 8
	}
}

// Peek reads a datagram's routing fields — flag, header sub-window, key
// count and the per-record sub-windows of AFR payloads — without a full
// decode and without verifying the checksum. Admission control uses it to
// classify frames and to account records it is about to shed (recording
// WHICH sub-window lost data even when the frame itself is discarded).
// Because the CRC is not checked, a corrupted frame may peek to garbage;
// shed accounting is therefore advisory while ingest stays CRC-exact.
type Peek struct {
	// Flag is the OmniWindow frame type.
	Flag packet.OWFlag
	// SubWindow and KeyCount are the header fields (trigger frames).
	SubWindow uint64
	KeyCount  uint32
	// AFRSubWindows maps sub-window -> record count for AFR-bearing
	// frames (nil when the frame carries none).
	AFRSubWindows map[uint64]int
}

// PeekFlag reads only a datagram's frame type, allocation-free — the
// collector's reader triages every datagram (control vs data) and must not
// pay PeekDatagram's per-sub-window map for frames it is going to keep.
// ok is false when the frame is too short or not an OmniWindow datagram.
func PeekFlag(data []byte) (packet.OWFlag, bool) {
	if len(data) < headerSize || binary.BigEndian.Uint16(data) != magicValue || data[2] != Version {
		return 0, false
	}
	return packet.OWFlag(data[3]), true
}

// PeekDatagram inspects data; ok is false when the frame is too short or
// not an OmniWindow v2 datagram (such frames cannot be attributed).
func PeekDatagram(data []byte) (Peek, bool) {
	if len(data) < headerSize || binary.BigEndian.Uint16(data) != magicValue || data[2] != Version {
		return Peek{}, false
	}
	pk := Peek{
		Flag:      packet.OWFlag(data[3]),
		SubWindow: binary.BigEndian.Uint64(data[4:]),
		KeyCount:  binary.BigEndian.Uint32(data[25:]),
	}
	off := 30 + packet.KeyBytes
	nAFR := int(binary.BigEndian.Uint16(data[off+9:]))
	off = headerSize
	if nAFR > 0 && len(data) >= headerSize+nAFR*afrSize {
		pk.AFRSubWindows = make(map[uint64]int, 1)
		for i := 0; i < nAFR; i++ {
			sw := binary.BigEndian.Uint64(data[off+packet.KeyBytes+8:])
			pk.AFRSubWindows[sw]++
			off += afrSize
		}
	}
	return pk, true
}

func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}
