package ch

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"os"
	"strconv"
	"strings"
	"testing"

	"opaque/internal/roadnet"
	"opaque/internal/storage"
)

// threeCycle is the graph of docs/FORMATS.md's OCH1 worked example: the
// directed 3-cycle 0→1 (cost 3), 1→2 (cost 4), 2→0 (cost 5).
func threeCycle(t testing.TB) *roadnet.Graph {
	t.Helper()
	g := roadnet.NewGraph(3, 3)
	for i := 0; i < 3; i++ {
		g.AddNode(float64(i), 0)
	}
	g.MustAddEdge(0, 1, 3)
	g.MustAddEdge(1, 2, 4)
	g.MustAddEdge(2, 0, 5)
	g.Freeze()
	return g
}

// writeBytes returns o's OCH1 encoding.
func writeBytes(t testing.TB, o *Overlay) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(o, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// docListings returns the hex listings of the OCH1 worked example in
// docs/FORMATS.md, in document order, each with the offset of its first
// line. A listing line is an 8-digit hex offset, two spaces, up to sixteen
// hex bytes in a fixed 49-column field, then the annotation.
func docListings(t *testing.T) (listings [][]byte, offsets []int) {
	t.Helper()
	doc, err := os.ReadFile("../../docs/FORMATS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "## CH overlay binary format (OCH1")
	if !ok {
		t.Fatal("docs/FORMATS.md lost its OCH1 section")
	}
	_, section, ok = strings.Cut(section, "### Worked example\n")
	if !ok {
		t.Fatal("docs/FORMATS.md lost its OCH1 worked example")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	for {
		var listing string
		if _, listing, ok = strings.Cut(section, "```\n"); !ok {
			break
		}
		listing, section, _ = strings.Cut(listing, "```")
		var raw []byte
		start := -1
		for _, line := range strings.Split(strings.TrimSuffix(listing, "\n"), "\n") {
			off, err := strconv.ParseInt(line[:8], 16, 64)
			if err != nil {
				t.Fatalf("listing line %q has no hex offset", line)
			}
			if start < 0 {
				start = int(off)
			}
			if int(off) != start+len(raw) {
				t.Fatalf("listing line %q: offset %#x, want %#x", line, off, start+len(raw))
			}
			b, err := hex.DecodeString(strings.Join(strings.Fields(line[10:min(len(line), 59)]), ""))
			if err != nil {
				t.Fatalf("listing line %q: %v", line, err)
			}
			raw = append(raw, b...)
		}
		listings = append(listings, raw)
		offsets = append(offsets, start)
	}
	return listings, offsets
}

// TestOverlayWorkedExampleMatchesDocs pins docs/FORMATS.md's OCH1 dumps to
// the code: the 3-cycle's file as Write produces it — the same bytes whether
// the cycle is contracted flat or in partition order with cellOf = [0, 1, 1],
// since the partition shapes only the order — and the tail of the legacy
// partitioned file an older build wrote, which with flags = 3 at offset 0x1e
// is legacyPartitionedCycle.
func TestOverlayWorkedExampleMatchesDocs(t *testing.T) {
	listings, offsets := docListings(t)
	if len(listings) != 2 || offsets[0] != 0 {
		t.Fatalf("want the full dump and the legacy partitioned tail, got %d listings at offsets %v", len(listings), offsets)
	}
	g := threeCycle(t)
	o, err := BuildCustomizable(g)
	if err != nil {
		t.Fatal(err)
	}
	flat := writeBytes(t, o)
	if !bytes.Equal(flat, listings[0]) {
		t.Errorf("flat worked example drifted from the writer (%d bytes):\n got %x\nwant %x", len(flat), flat, listings[0])
	}
	if part := writeBytes(t, partitionedCycle(t, g)); !bytes.Equal(part, flat) {
		t.Errorf("partition-ordered 3-cycle writes %x, want the flat dump", part)
	}

	legacy, err := hex.DecodeString(legacyPartitionedCycle)
	if err != nil {
		t.Fatal(err)
	}
	tail := offsets[1]
	head := append([]byte(nil), flat[:min(tail, len(flat))]...)
	head[0x1e] = flagCustomizable | flagPartitioned
	if doc := append(head, listings[1]...); !bytes.Equal(doc, legacy) {
		t.Errorf("legacy partitioned example drifted from the fixture:\n doc %x\nwant %x", doc, legacy)
	}
}

// partitionedCycle contracts the 3-cycle in the order of the two-cell
// partition cellOf = [0, 1, 1], the build of legacyPartitionedCycle.
func partitionedCycle(t testing.TB, g *roadnet.Graph) *Overlay {
	t.Helper()
	p, err := roadnet.NewPartitionFromAssignment(g, []int32{0, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	o, err := BuildCustomizablePartitioned(g, p)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// legacyPartitionedCycle is the 3-cycle contracted in partition order as
// older builds wrote it: version 3, flags = 3 (customizable | partitioned),
// and after the arena the partition section cells = 2, cellOf = [0, 1, 1].
const legacyPartitionedCycle = "4f434831030003000000030000002edb454235772ccd144dbe4eccfa91f80300" +
	"0000030000000400000000000000020000000100000000000000020000000100" +
	"00000000000001000000ffffffffffffffff0000000000000840010000000200" +
	"0000ffffffffffffffff00000000000010400200000000000000ffffffffffff" +
	"ffff000000000000144002000000010000000200000000000000000000000000" +
	"20400200000000000000010000000100000068f86235"

// TestReadSkipsLegacyPartitionSection: a version-3 file with the partition
// section loads as the overlay its ranks and arena describe — arc for arc
// the same build as the new Write produces — and serves the cycle exactly.
func TestReadSkipsLegacyPartitionSection(t *testing.T) {
	raw, err := hex.DecodeString(legacyPartitionedCycle)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("legacy partitioned file: %v", err)
	}
	g := threeCycle(t)
	if got, want := writeBytes(t, loaded), writeBytes(t, partitionedCycle(t, g)); !bytes.Equal(got, want) {
		t.Fatalf("legacy file loads as %x, want the rebuilt overlay %x", got, want)
	}
	if err := loaded.Matches(g); err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, storage.NewMemoryGraph(g), loaded, 9, 1)
}

// witnessPrunedCycle is the 3-cycle's file as an older build wrote it by
// default: version 3, flags = 0, a witness-pruned arena.
const witnessPrunedCycle = "4f434831030003000000030000002edb454235772ccd144dbe4eccfa91f80000" +
	"0000030000000400000000000000020000000100000000000000020000000100" +
	"00000000000001000000ffffffffffffffff0000000000000840010000000200" +
	"0000ffffffffffffffff00000000000010400200000000000000ffffffffffff" +
	"ffff000000000000144002000000010000000200000000000000000000000000" +
	"204058bed494"

// TestReadRefusesWitnessPrunedFile: a file without the customizable flag
// holds a shortcut set valid for one metric only, and Read refuses it with a
// pointer at the tool that rebuilds it.
func TestReadRefusesWitnessPrunedFile(t *testing.T) {
	raw, err := hex.DecodeString(witnessPrunedCycle)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 166 {
		t.Fatalf("fixture is %d bytes, want 166", len(raw))
	}
	_, err = Read(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "witness-pruned") || !strings.Contains(err.Error(), "opaque-preprocess") {
		t.Fatalf("witness-pruned file: got %v, want a refusal naming opaque-preprocess", err)
	}
	// With bit 0 set and the trailer resealed, the same bytes load: the
	// refusal is the flag, not the arena.
	raw[0x1e] = flagCustomizable
	if _, err := Read(bytes.NewReader(seal(raw[:len(raw)-4]))); err != nil {
		t.Fatalf("same file with the customizable flag: %v", err)
	}
}

// seal appends the OCH1 envelope's CRC-32 trailer to body (magic, version
// and payload).
func seal(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
}

// FuzzReadOverlay feeds Read hostile bytes. The fuzzer mutates the sealed
// body — magic, version and payload — and the target recomputes the CRC
// trailer, so mutations reach the structural validation instead of dying at
// the checksum. Every file Read accepts must answer a point distance and a
// 2×2 many-to-many table on in-range nodes without panicking.
func FuzzReadOverlay(f *testing.F) {
	// Small seeds keep the fuzzer's minimisation of each new input short.
	for _, build := range []func() (*Overlay, error){
		func() (*Overlay, error) { return BuildCustomizable(threeCycle(f)) },
		func() (*Overlay, error) { return BuildCustomizable(randomIntCostGraph(f, 6, 4, 3)) },
		func() (*Overlay, error) {
			g := randomIntCostGraph(f, 8, 4, 4)
			p, err := roadnet.BuildPartition(g, roadnet.PartitionConfig{Cells: 2, Seed: 4})
			if err != nil {
				return nil, err
			}
			return BuildCustomizablePartitioned(g, p)
		},
	} {
		o, err := build()
		if err != nil {
			f.Fatal(err)
		}
		raw := writeBytes(f, o)
		f.Add(raw[:len(raw)-4])
	}
	legacy, err := hex.DecodeString(legacyPartitionedCycle)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy[:len(legacy)-4])
	f.Fuzz(func(t *testing.T, body []byte) {
		o, err := Read(bytes.NewReader(seal(body)))
		if err != nil {
			return
		}
		last := roadnet.NodeID(o.NumNodes() - 1)
		if _, _, err := pointDistance(NewMTM(o, nil), 0, last); err != nil {
			t.Fatalf("point distance on an accepted overlay: %v", err)
		}
		ends := []roadnet.NodeID{0, last}
		if _, _, err := NewMTM(o, nil).Distances(ends, ends); err != nil {
			t.Fatalf("2x2 table on an accepted overlay: %v", err)
		}
	})
}
