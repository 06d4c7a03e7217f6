package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// This file is the storage layer's binary persistence codec: a small,
// sticky-error reader/writer pair for versioned, checksummed binary sections.
// Preprocessed overlays (the contraction-hierarchy overlay of internal/ch is
// the first client) are persisted through it so every on-disk artefact of the
// system shares one envelope convention, documented in docs/FORMATS.md:
//
//	magic [4]byte | version uint16 | payload … | crc32 uint32
//
// All integers and floats are little-endian. The CRC-32 (IEEE) trailer covers
// the magic, the version and the whole payload, so a truncated or corrupted
// file is rejected at load time instead of producing a silently wrong index.

// BinaryWriter writes one versioned binary section. Errors are sticky: the
// first write failure is retained and every later call is a no-op, so callers
// write the whole payload unconditionally and check Close once.
type BinaryWriter struct {
	w   *bufio.Writer
	crc uint32
	err error
	buf [8]byte
}

// NewBinaryWriter starts a binary section on w with the given 4-byte magic
// and format version. The header is written (and checksummed) immediately.
func NewBinaryWriter(w io.Writer, magic string, version uint16) (*BinaryWriter, error) {
	if len(magic) != 4 {
		return nil, fmt.Errorf("storage: binary section magic must be 4 bytes, got %q", magic)
	}
	bw := &BinaryWriter{w: bufio.NewWriter(w)}
	bw.Block([]byte(magic))
	bw.U16(version)
	return bw, bw.err
}

// Block appends p to the section as raw payload bytes with one write and one
// checksum update. Callers that move many fields encode a block of them into
// p themselves: the per-field methods below fold each 2- to 8-byte field
// into the CRC on its own, and inputs that small take crc32's slow path.
func (bw *BinaryWriter) Block(p []byte) {
	if bw.err != nil {
		return
	}
	bw.crc = crc32.Update(bw.crc, crc32.IEEETable, p)
	_, bw.err = bw.w.Write(p)
}

// U16 writes a little-endian uint16.
func (bw *BinaryWriter) U16(v uint16) {
	binary.LittleEndian.PutUint16(bw.buf[:2], v)
	bw.Block(bw.buf[:2])
}

// U32 writes a little-endian uint32.
func (bw *BinaryWriter) U32(v uint32) {
	binary.LittleEndian.PutUint32(bw.buf[:4], v)
	bw.Block(bw.buf[:4])
}

// I32 writes a little-endian int32 (two's complement).
func (bw *BinaryWriter) I32(v int32) { bw.U32(uint32(v)) }

// U64 writes a little-endian uint64.
func (bw *BinaryWriter) U64(v uint64) {
	binary.LittleEndian.PutUint64(bw.buf[:8], v)
	bw.Block(bw.buf[:8])
}

// F64 writes a float64 as its little-endian IEEE-754 bit pattern.
func (bw *BinaryWriter) F64(v float64) { bw.U64(math.Float64bits(v)) }

// Close appends the CRC-32 trailer and flushes. It returns the first error
// encountered anywhere in the section, so a single check suffices.
func (bw *BinaryWriter) Close() error {
	if bw.err == nil {
		binary.LittleEndian.PutUint32(bw.buf[:4], bw.crc)
		if _, err := bw.w.Write(bw.buf[:4]); err != nil {
			bw.err = err
		}
	}
	if bw.err == nil {
		bw.err = bw.w.Flush()
	}
	return bw.err
}

// BinaryReader reads one versioned binary section written by BinaryWriter.
// Like the writer it is sticky-error: decode the whole payload
// unconditionally, then let Close verify the checksum and report the first
// failure.
type BinaryReader struct {
	r       *bufio.Reader
	crc     uint32
	err     error
	version uint16
	buf     [8]byte
}

// NewBinaryReader opens a binary section on r, validating the magic and that
// the file's version is at most maxVersion (newer files are rejected rather
// than misparsed; older versions are the caller's compatibility problem and
// exposed through Version).
func NewBinaryReader(r io.Reader, magic string, maxVersion uint16) (*BinaryReader, error) {
	if len(magic) != 4 {
		return nil, fmt.Errorf("storage: binary section magic must be 4 bytes, got %q", magic)
	}
	br := &BinaryReader{r: bufio.NewReader(r)}
	var got [4]byte
	br.Block(got[:])
	if br.err != nil {
		return nil, fmt.Errorf("storage: reading binary section header: %w", br.err)
	}
	if string(got[:]) != magic {
		return nil, fmt.Errorf("storage: bad magic %q (want %q) — not a %s file", got[:], magic, magic)
	}
	br.version = br.U16()
	if br.err != nil {
		return nil, fmt.Errorf("storage: reading binary section version: %w", br.err)
	}
	if br.version > maxVersion {
		return nil, fmt.Errorf("storage: %s file has version %d, newest understood is %d", magic, br.version, maxVersion)
	}
	return br, nil
}

// Version returns the version number found in the section header.
func (br *BinaryReader) Version() uint16 { return br.version }

// Err returns the first error encountered so far (nil while healthy). Close
// also reports it; Err lets decoders bail out of large loops early.
func (br *BinaryReader) Err() error { return br.err }

// Block fills p from the section with one read and one checksum update: the
// reading side of BinaryWriter.Block. A stream that ends before p is full
// sets the sticky error and leaves p's contents undefined.
func (br *BinaryReader) Block(p []byte) {
	if br.err != nil {
		return
	}
	if _, err := io.ReadFull(br.r, p); err != nil {
		br.err = err
		return
	}
	br.crc = crc32.Update(br.crc, crc32.IEEETable, p)
}

// U16 reads a little-endian uint16.
func (br *BinaryReader) U16() uint16 {
	br.Block(br.buf[:2])
	if br.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint16(br.buf[:2])
}

// U32 reads a little-endian uint32.
func (br *BinaryReader) U32() uint32 {
	br.Block(br.buf[:4])
	if br.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(br.buf[:4])
}

// I32 reads a little-endian int32.
func (br *BinaryReader) I32() int32 { return int32(br.U32()) }

// U64 reads a little-endian uint64.
func (br *BinaryReader) U64() uint64 {
	br.Block(br.buf[:8])
	if br.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(br.buf[:8])
}

// F64 reads a float64 from its little-endian IEEE-754 bit pattern.
func (br *BinaryReader) F64() float64 { return math.Float64frombits(br.U64()) }

// Close reads the CRC-32 trailer and verifies it against the running
// checksum, then confirms the stream ends there, returning the first error
// of the whole section (decode errors take precedence over checksum
// mismatch, which in turn precedes trailing garbage).
func (br *BinaryReader) Close() error {
	if br.err != nil {
		return br.err
	}
	computed := br.crc
	var trailer [4]byte
	if _, err := io.ReadFull(br.r, trailer[:]); err != nil {
		return fmt.Errorf("storage: reading checksum trailer: %w", err)
	}
	stored := binary.LittleEndian.Uint32(trailer[:])
	if stored != computed {
		return fmt.Errorf("storage: checksum mismatch: file says %08x, payload hashes to %08x (corrupted or truncated file)", stored, computed)
	}
	if _, err := br.r.ReadByte(); err != io.EOF {
		if err != nil {
			return fmt.Errorf("storage: checking for end of section: %w", err)
		}
		return fmt.Errorf("storage: trailing data after the checksum trailer (corrupted or concatenated file)")
	}
	return nil
}
