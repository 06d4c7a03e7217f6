package protocol

// This file defines the OPMX1 framed wire format used by the multiplexed
// transport (mux.go): length-prefixed frames carrying a type tag and a
// request ID, so one persistent connection can interleave many in-flight
// requests, stream the per-query items of a batch reply as they complete,
// and carry the generation handshake of the fleet serving tier. The layout
// is documented with a worked hex example in docs/FORMATS.md.
//
// Layout (all integers big-endian):
//
//	offset  size  field
//	0       4     frame length N = 9 + len(payload) (uint32)
//	4       1     frame type (FrameType)
//	5       8     request ID (uint64)
//	13      N-9   payload
//
// The length field counts every byte after itself, so a whole frame occupies
// 4+N bytes. Decoding is defensive: truncated, oversized and garbage frames
// return typed errors (ErrFrameTruncated, ErrFrameTooLarge, ErrFrameHeader,
// ErrFrameType) and never panic or allocate beyond the declared, validated
// payload bound — the contract FuzzDecodeFrame pins.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// FrameType tags one frame on the multiplexed wire.
type FrameType uint8

// Frame types.
const (
	// FrameHello opens a connection: the dialling side announces itself
	// (payload: a Hello message, whose header names the sender's codec
	// version).
	FrameHello FrameType = iota + 1
	// FrameWelcome answers a FrameHello: the accepting side's Hello, carrying
	// its data generation and content checksum for the fleet handshake.
	FrameWelcome
	// FrameMsg carries one protocol message (codec.go); requests and unary
	// replies are correlated by the request ID.
	FrameMsg
	// FrameStreamItem carries one item of a streaming reply (a BatchItem
	// message): batch replies stream per-query results as they complete
	// instead of buffering the whole batch.
	FrameStreamItem
	// FrameStreamEnd closes a streaming reply; its payload is empty.
	FrameStreamEnd
	// FrameErr reports a failure answering the request ID (payload: an
	// ErrorReply message). The connection stays usable.
	FrameErr
	// FrameGoAway tells the peer the sender is shutting down and will answer
	// no further requests on this connection.
	FrameGoAway
	// FramePing probes the peer's liveness on the identity stream: the serving
	// side answers inline (before admission control, so a saturated shard
	// still heartbeats) with a FramePong. The payload is empty.
	FramePing
	// FramePong answers a FramePing; the payload is the sender's current Hello
	// message, so every heartbeat refreshes the peer's identity — generation,
	// content checksum, partition shape — without a reconnect.
	FramePong

	maxFrameType = FramePong
)

// MaxFramePayload bounds a frame's payload. A declared length beyond it is
// rejected before any allocation, so a hostile or corrupt peer cannot make
// the receiver allocate unbounded memory.
const MaxFramePayload = 8 << 20

// frameIDLen + the type byte precede the payload inside the length-counted
// region; frameHeaderLen is the fixed on-wire prefix of every frame.
const (
	frameOverhead  = 9  // type byte + request ID, counted by the length field
	frameHeaderLen = 13 // length field + type byte + request ID
)

// Typed frame decoding errors.
var (
	// ErrFrameTruncated reports input that ends before the declared frame
	// does (including inputs shorter than a frame header).
	ErrFrameTruncated = errors.New("protocol: truncated frame")
	// ErrFrameTooLarge reports a declared payload beyond MaxFramePayload.
	ErrFrameTooLarge = errors.New("protocol: frame exceeds max payload")
	// ErrFrameHeader reports a length field too small to cover the type byte
	// and request ID — garbage that cannot be a frame at all.
	ErrFrameHeader = errors.New("protocol: malformed frame header")
	// ErrFrameType reports an unknown frame type byte.
	ErrFrameType = errors.New("protocol: unknown frame type")
)

// Frame is one decoded frame.
type Frame struct {
	Type    FrameType
	ID      uint64
	Payload []byte
}

// AppendFrame appends f's wire encoding to dst and returns the extended
// slice. It refuses oversized payloads.
//
//opaque:noalloc
func AppendFrame(dst []byte, f Frame) ([]byte, error) {
	if len(f.Payload) > MaxFramePayload {
		//opaque:allow(noalloc) refusal path: the frame is never sent, steady state never gets here
		return dst, fmt.Errorf("%w: payload %d > %d", ErrFrameTooLarge, len(f.Payload), MaxFramePayload)
	}
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(frameOverhead+len(f.Payload)))
	hdr[4] = byte(f.Type)
	binary.BigEndian.PutUint64(hdr[5:13], f.ID)
	dst = append(dst, hdr[:]...) //opaque:allow(noalloc) appends into the caller's reused write buffer; no growth once warm
	//opaque:allow(noalloc) same reused buffer as the header append above
	return append(dst, f.Payload...), nil
}

// DecodeFrame decodes one frame from the front of b, returning the frame and
// the number of bytes it occupied. The returned payload aliases b. Truncated,
// oversized and malformed inputs return typed errors; no input panics, and no
// call allocates beyond b itself.
//
//opaque:noalloc
func DecodeFrame(b []byte) (Frame, int, error) {
	if len(b) < frameHeaderLen {
		//opaque:allow(noalloc) rejection path for garbage input; a well-formed stream never takes it
		return Frame{}, 0, fmt.Errorf("%w: %d bytes, need at least %d", ErrFrameTruncated, len(b), frameHeaderLen)
	}
	n := binary.BigEndian.Uint32(b[0:4])
	if n < frameOverhead {
		//opaque:allow(noalloc) rejection path for garbage input; a well-formed stream never takes it
		return Frame{}, 0, fmt.Errorf("%w: declared length %d < %d", ErrFrameHeader, n, frameOverhead)
	}
	if n-frameOverhead > MaxFramePayload {
		//opaque:allow(noalloc) rejection path for garbage input; a well-formed stream never takes it
		return Frame{}, 0, fmt.Errorf("%w: declared payload %d > %d", ErrFrameTooLarge, n-frameOverhead, MaxFramePayload)
	}
	total := 4 + int(n)
	if len(b) < total {
		//opaque:allow(noalloc) rejection path for garbage input; a well-formed stream never takes it
		return Frame{}, 0, fmt.Errorf("%w: have %d bytes of a %d-byte frame", ErrFrameTruncated, len(b), total)
	}
	ft := FrameType(b[4])
	if ft == 0 || ft > maxFrameType {
		//opaque:allow(noalloc) rejection path for garbage input; a well-formed stream never takes it
		return Frame{}, 0, fmt.Errorf("%w: %d", ErrFrameType, b[4])
	}
	return Frame{
		Type:    ft,
		ID:      binary.BigEndian.Uint64(b[5:13]),
		Payload: b[frameHeaderLen:total],
	}, total, nil
}

// WriteFrame writes f to w as one frame.
func WriteFrame(w io.Writer, f Frame) error {
	buf, err := AppendFrame(make([]byte, 0, frameHeaderLen+len(f.Payload)), f)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// ReadFrame reads one frame from r. The declared length is validated before
// the payload is allocated, so a corrupt length prefix cannot trigger an
// oversized allocation. io.EOF is returned unwrapped when the stream ends
// cleanly between frames; a stream ending mid-frame returns
// ErrFrameTruncated.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[0:4]); err != nil {
		if err == io.EOF {
			return Frame{}, io.EOF
		}
		return Frame{}, fmt.Errorf("%w: reading length: %v", ErrFrameTruncated, err)
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n < frameOverhead {
		return Frame{}, fmt.Errorf("%w: declared length %d < %d", ErrFrameHeader, n, frameOverhead)
	}
	if n-frameOverhead > MaxFramePayload {
		return Frame{}, fmt.Errorf("%w: declared payload %d > %d", ErrFrameTooLarge, n-frameOverhead, MaxFramePayload)
	}
	if _, err := io.ReadFull(r, hdr[4:frameHeaderLen]); err != nil {
		return Frame{}, fmt.Errorf("%w: reading header: %v", ErrFrameTruncated, err)
	}
	ft := FrameType(hdr[4])
	if ft == 0 || ft > maxFrameType {
		return Frame{}, fmt.Errorf("%w: %d", ErrFrameType, hdr[4])
	}
	payload := make([]byte, n-frameOverhead)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Frame{}, fmt.Errorf("%w: reading payload: %v", ErrFrameTruncated, err)
	}
	return Frame{Type: ft, ID: binary.BigEndian.Uint64(hdr[5:13]), Payload: payload}, nil
}
