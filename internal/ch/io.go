package ch

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"opaque/internal/storage"
)

// The persisted overlay format ("OCH1", version 3), documented with a worked
// hex example in docs/FORMATS.md. The file stores exactly the preprocessing
// products that cannot be recomputed cheaply — ranks, levels and the arc
// arena — inside the storage layer's checksummed binary envelope
// (storage.BinaryWriter); the two upward CSR views are derived
// deterministically from those on load, so a loaded overlay is bit-for-bit
// the structure the builder produced.
//
// Version 3 added a partition section (flagPartitioned + a trailing
// node→cell assignment) that older builds wrote for partition-ordered
// overlays. Write never produces it; Read skips it, since the ranks and
// arena of such a file are a valid overlay as they stand. Version 2 files
// still load and behave exactly as before. Version 2 itself added the
// topology checksum and the customizable flag, and moved the graph-binding
// checksum to the incremental roadnet content checksum. Version 1 files bind
// with the retired checksum algorithm and cannot be verified against a graph
// any more; they are rejected by version, and re-running
// cmd/opaque-preprocess regenerates them.
//
// Every overlay this package builds is customizable, so Write always sets
// flagCustomizable and Read refuses a file without it: such a file holds a
// witness-pruned arena, written by an older build's default, whose shortcut
// set is valid for one metric only.
const (
	// OverlayMagic is the 4-byte magic of persisted CH overlays.
	OverlayMagic = "OCH1"
	// OverlayVersion is the newest overlay format version this build
	// understands (and the one Write produces). Version 2 files are still
	// accepted by Read.
	OverlayVersion = 3
	// overlayVersionCompat is the oldest version Read still accepts.
	overlayVersionCompat = 2
)

// Flag bits of the flags word.
const (
	// flagCustomizable marks an arena with one shortcut per in×out pair of
	// every contracted node. Required: Read refuses files without it.
	flagCustomizable = 1 << 0
	// flagPartitioned marks a legacy version-3 file carrying the partition
	// section: a cell count and the node→cell assignment after the arena
	// records. Read skips the section; Write never sets the flag.
	flagPartitioned = 1 << 1
)

// The rank, level and arena columns move through the envelope in blocks of
// up to blockBytes: one read or write and one CRC update per block instead
// of per 4- or 8-byte field. The bytes on disk are the same either way.
const (
	blockBytes = 64 << 10
	wordBytes  = 4  // one rank, level or legacy cell word
	arcBytes   = 24 // from, to, childA, childB (4 bytes each), cost (8)
)

// writeBlocks writes count records of size bytes each, one block at a time:
// encode fills p with the records first, first+1, … that fit in it.
func writeBlocks(bw *storage.BinaryWriter, buf []byte, count, size int, encode func(p []byte, first int)) {
	per := len(buf) / size
	for first := 0; first < count; first += per {
		p := buf[:min(count-first, per)*size]
		encode(p, first)
		bw.Block(p)
	}
}

// readBlocks reads count records of size bytes each, one block at a time,
// handing each block to decode in order. It stops quietly when the stream
// runs dry — the reader's sticky error reports that at Close — and at the
// first decode error, which it returns. So a header that declares more
// records than the file holds costs only the blocks actually read.
func readBlocks(br *storage.BinaryReader, buf []byte, count, size int, decode func(p []byte) error) error {
	per := len(buf) / size
	for first := 0; first < count; first += per {
		p := buf[:min(count-first, per)*size]
		if br.Block(p); br.Err() != nil {
			return nil
		}
		if err := decode(p); err != nil {
			return err
		}
	}
	return nil
}

// Write persists the overlay to w in the versioned OCH1 binary format.
func Write(o *Overlay, w io.Writer) error {
	bw, err := storage.NewBinaryWriter(w, OverlayMagic, OverlayVersion)
	if err != nil {
		return fmt.Errorf("ch: writing overlay header: %w", err)
	}
	bw.U32(uint32(o.n))
	bw.U32(uint32(o.graphArcs))
	bw.U64(o.checksum)
	bw.U64(o.topoSum)
	bw.U32(flagCustomizable)
	bw.U32(uint32(o.nOriginal))
	bw.U32(uint32(len(o.arcs)))
	buf := make([]byte, blockBytes)
	for _, words := range [][]int32{o.rank, o.level} {
		writeBlocks(bw, buf, len(words), wordBytes, func(p []byte, first int) {
			for i := 0; i < len(p); i += wordBytes {
				binary.LittleEndian.PutUint32(p[i:], uint32(words[first]))
				first++
			}
		})
	}
	writeBlocks(bw, buf, len(o.arcs), arcBytes, func(p []byte, first int) {
		for i := 0; i < len(p); i += arcBytes {
			a := &o.arcs[first]
			binary.LittleEndian.PutUint32(p[i:], uint32(a.from))
			binary.LittleEndian.PutUint32(p[i+4:], uint32(a.to))
			binary.LittleEndian.PutUint32(p[i+8:], uint32(a.childA))
			binary.LittleEndian.PutUint32(p[i+12:], uint32(a.childB))
			binary.LittleEndian.PutUint64(p[i+16:], math.Float64bits(a.cost))
			first++
		}
	})
	if err := bw.Close(); err != nil {
		return fmt.Errorf("ch: writing overlay: %w", err)
	}
	return nil
}

// Read loads an overlay previously persisted with Write, validating the
// envelope (magic, version, checksum trailer), the customizable flag and
// every structural invariant: in-range endpoints, ranks forming a
// permutation, finite non-negative costs, and unpack children that chain
// through a via node ranked below both endpoints. The upward CSR views are rebuilt from the arena, so the result
// is identical to the freshly built overlay. Bind it to a graph with
// Overlay.Matches before serving queries.
func Read(r io.Reader) (*Overlay, error) {
	br, err := storage.NewBinaryReader(r, OverlayMagic, OverlayVersion)
	if err != nil {
		return nil, fmt.Errorf("ch: reading overlay header: %w", err)
	}
	// The envelope only rejects versions from the future; below the compat
	// floor sits only the retired version 1 (dead checksum algorithm), so
	// anything else is a crafted or corrupted header.
	if br.Version() < overlayVersionCompat || br.Version() > OverlayVersion {
		return nil, fmt.Errorf("ch: unsupported overlay version %d (this build reads versions %d-%d)", br.Version(), overlayVersionCompat, OverlayVersion)
	}
	n := int(br.U32())
	graphArcs := int(br.U32())
	checksum := br.U64()
	topoSum := br.U64()
	flags := br.U32()
	nOriginal := int(br.U32())
	totalArcs := int(br.U32())
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("ch: reading overlay counts: %w", err)
	}
	if flags&flagCustomizable == 0 {
		return nil, fmt.Errorf("ch: overlay file is witness-pruned (flag bit 0 clear), which this build cannot serve or re-customize; rebuild it with opaque-preprocess")
	}
	if flags&flagPartitioned != 0 && br.Version() < 3 {
		return nil, fmt.Errorf("ch: version %d overlay claims a partition section, which version 3 introduced", br.Version())
	}
	const maxReasonable = 1 << 30
	if n <= 0 || n > maxReasonable || totalArcs < 0 || totalArcs > maxReasonable || nOriginal < 0 || nOriginal > totalArcs {
		return nil, fmt.Errorf("ch: implausible overlay counts (nodes=%d, arcs=%d, original=%d)", n, totalArcs, nOriginal)
	}
	// The arrays below grow by append as blocks are actually read, with
	// deliberately small initial capacities: a corrupted header whose count
	// fields are garbage (but within maxReasonable) must fail on the stream
	// running dry — a clean read error — instead of committing gigabytes up
	// front for data the file never contained.
	const initialCap = 1 << 16
	o := &Overlay{
		n:         n,
		nOriginal: nOriginal,
		rank:      make([]int32, 0, min(n, initialCap)),
		level:     make([]int32, 0, min(n, initialCap)),
		arcs:      make([]arc, 0, min(totalArcs, initialCap)),
		graphArcs: graphArcs,
		checksum:  checksum,
		topoSum:   topoSum,
	}
	buf := make([]byte, blockBytes)
	err = readBlocks(br, buf, n, wordBytes, func(p []byte) error {
		for i := 0; i < len(p); i += wordBytes {
			rk := binary.LittleEndian.Uint32(p[i:])
			if rk >= uint32(n) {
				return fmt.Errorf("ch: node %d has invalid rank %d", len(o.rank), rk)
			}
			o.rank = append(o.rank, int32(rk))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if br.Err() == nil {
		// Every rank is in range and on disk; now the O(n) permutation
		// check is safe to allocate for.
		seen := make([]bool, n)
		for v, rk := range o.rank {
			if seen[rk] {
				return nil, fmt.Errorf("ch: node %d has duplicate rank %d", v, rk)
			}
			seen[rk] = true
		}
	}
	// Levels carry no invariant to check, so their reader cannot fail.
	_ = readBlocks(br, buf, n, wordBytes, func(p []byte) error {
		for i := 0; i < len(p); i += wordBytes {
			o.level = append(o.level, int32(binary.LittleEndian.Uint32(p[i:])))
		}
		return nil
	})
	err = readBlocks(br, buf, totalArcs, arcBytes, func(p []byte) error {
		for i := 0; i < len(p); i += arcBytes {
			a := arc{
				from:   int32(binary.LittleEndian.Uint32(p[i:])),
				to:     int32(binary.LittleEndian.Uint32(p[i+4:])),
				childA: int32(binary.LittleEndian.Uint32(p[i+8:])),
				childB: int32(binary.LittleEndian.Uint32(p[i+12:])),
				cost:   math.Float64frombits(binary.LittleEndian.Uint64(p[i+16:])),
			}
			if a.from < 0 || int(a.from) >= n || a.to < 0 || int(a.to) >= n || a.from == a.to {
				return fmt.Errorf("ch: arc %d has invalid endpoints (%d→%d)", len(o.arcs), a.from, a.to)
			}
			if a.cost < 0 || math.IsNaN(a.cost) || math.IsInf(a.cost, 0) {
				return fmt.Errorf("ch: arc %d has invalid cost %v", len(o.arcs), a.cost)
			}
			o.arcs = append(o.arcs, a)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if flags&flagPartitioned != 0 {
		// The legacy partition section is n+1 words — a cell count, then
		// one cell per node — that describe nothing the overlay uses.
		_ = readBlocks(br, buf, n+1, wordBytes, func([]byte) error { return nil })
	}
	if err := br.Close(); err != nil {
		return nil, fmt.Errorf("ch: reading overlay: %w", err)
	}
	// Unpack provenance is validated after the whole arena is in memory:
	// customization may point an arc's children at *later* arena entries
	// (the triangle legs of a cheaper detour), so child references cannot be
	// checked while streaming. Termination of the unpack recursion is
	// guaranteed structurally instead — every child pair's via node ranks
	// strictly below both of the parent's endpoints.
	for i := range o.arcs {
		a := &o.arcs[i]
		hasChildren := a.childA >= 0 && a.childB >= 0
		if !hasChildren {
			if a.childA >= 0 || a.childB >= 0 {
				return nil, fmt.Errorf("ch: arc %d has half-set unpack children (%d, %d)", i, a.childA, a.childB)
			}
			if i >= nOriginal {
				return nil, fmt.Errorf("ch: shortcut arc %d has no unpack children", i)
			}
			continue
		}
		if int(a.childA) >= totalArcs || int(a.childB) >= totalArcs {
			return nil, fmt.Errorf("ch: arc %d has out-of-range unpack children (%d, %d)", i, a.childA, a.childB)
		}
		// The children must chain from→via→to, or unpacking would emit a
		// disconnected node sequence; the via must rank below both endpoints,
		// or unpacking could recurse forever.
		ca, cb := &o.arcs[a.childA], &o.arcs[a.childB]
		if ca.from != a.from || ca.to != cb.from || cb.to != a.to {
			return nil, fmt.Errorf("ch: arc %d (%d→%d) has non-chaining children %d→%d, %d→%d",
				i, a.from, a.to, ca.from, ca.to, cb.from, cb.to)
		}
		if via := ca.to; o.rank[via] >= o.rank[a.from] || o.rank[via] >= o.rank[a.to] {
			return nil, fmt.Errorf("ch: arc %d (%d→%d) unpacks via node %d, which does not rank below both endpoints", i, a.from, a.to, ca.to)
		}
	}
	o.buildCSR()
	return o, nil
}

// WriteFile persists the overlay to a file (created or truncated).
func WriteFile(o *Overlay, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("ch: creating overlay file: %w", err)
	}
	if err := Write(o, f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("ch: closing overlay file: %w", err)
	}
	return nil
}

// ReadFile loads an overlay from a file written by WriteFile.
func ReadFile(path string) (*Overlay, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ch: opening overlay file: %w", err)
	}
	defer f.Close()
	return Read(f)
}
