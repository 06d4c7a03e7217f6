package protocol

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"opaque/internal/roadnet"
)

// TestHeldReplyRelaysBytes pins the held form: the header fields are the
// reply's, the held reply re-encodes to exactly the payload it was read from
// — alone, carried by a ServerReply and inside a BatchItem — and decodes to
// the reply itself.
func TestHeldReplyRelaysBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, rep := range []ServerReply{
		randomReply(rng, 3, 3, false),
		randomReply(rng, 16, 16, false),
		randomReply(rng, 4, 2, true),
		{QueryID: 5},
	} {
		payload, err := AppendMessage(nil, rep, 987)
		if err != nil {
			t.Fatal(err)
		}
		held, deadline, err := ReadHeldReply(payload)
		if err != nil {
			t.Fatalf("query %d: %v", rep.QueryID, err)
		}
		if !sameHeader(held, rep) || deadline != 987 {
			t.Fatalf("query %d: held header %+v (deadline %d) differs from the reply", rep.QueryID, held, deadline)
		}
		again, err := AppendMessage(nil, held, 987)
		if err != nil || !bytes.Equal(again, payload) {
			t.Fatalf("query %d: held reply re-encoded to %d bytes (err %v), read from %d", rep.QueryID, len(again), err, len(payload))
		}
		// A ServerReply carrying the held reply has no Paths of its own and
		// encodes as the held bytes, never as an empty table.
		carried := held.Reply()
		if again, err := AppendMessage(nil, carried, 987); carried.Paths != nil || err != nil || !bytes.Equal(again, payload) {
			t.Fatalf("query %d: reply carrying the held bytes re-encoded to %d bytes (err %v), read from %d", rep.QueryID, len(again), err, len(payload))
		}
		got, err := held.Decode(nil)
		if err != nil || !reflect.DeepEqual(got, rep) {
			t.Fatalf("query %d: held reply decoded to %+v (err %v)", rep.QueryID, got, err)
		}
		viaReply, err := AppendMessage(nil, BatchItem{BatchID: 3, Index: 1, Reply: rep}, 0)
		if err != nil {
			t.Fatal(err)
		}
		viaHeld, err := AppendMessage(nil, BatchItem{BatchID: 3, Index: 1, Reply: held.Reply()}, 0)
		if err != nil || !bytes.Equal(viaHeld, viaReply) {
			t.Fatalf("query %d: item carrying the held reply encodes differently (err %v)", rep.QueryID, err)
		}
	}
	if _, err := AppendMessage(nil, HeldReply{}, 0); err == nil {
		t.Error("a HeldReply holding nothing encoded")
	}
	if _, err := (HeldReply{}).Decode(nil); err == nil {
		t.Error("a HeldReply holding nothing decoded")
	}
	query, err := AppendMessage(nil, ServerQuery{QueryID: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadHeldReply(query); !errors.Is(err, ErrPayloadMalformed) {
		t.Errorf("holding a ServerQuery payload: %v, want ErrPayloadMalformed", err)
	}
}

// TestHeldReplyDefersTableErrors: the header read validates the header only,
// so a reply with a corrupt table is held — and fails, typed, where it is
// decoded.
func TestHeldReplyDefersTableErrors(t *testing.T) {
	payload, err := AppendMessage(nil, randomReply(rand.New(rand.NewSource(8)), 3, 3, false), 0)
	if err != nil {
		t.Fatal(err)
	}
	held, _, err := ReadHeldReply(append(payload, 0))
	if err != nil {
		t.Fatalf("header read refused a reply whose header is intact: %v", err)
	}
	if _, err := held.Decode(nil); !errors.Is(err, ErrPayloadMalformed) {
		t.Fatalf("decoding a table with a trailing byte: %v, want ErrPayloadMalformed", err)
	}
	if _, _, err := ReadHeldReply(payload[:payloadHeaderLen+3]); !errors.Is(err, ErrPayloadTruncated) {
		t.Fatalf("holding a reply cut inside its header: %v, want ErrPayloadTruncated", err)
	}
}

// TestRelayAllocs pins the relay's allocation contract: reading a recorded
// 16×16 reply's header allocates nothing, and neither does writing the held
// reply into a reused buffer.
func TestRelayAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	rep, _ := recordedReply(t, 16)
	payload, err := AppendMessage(nil, rep, 0)
	if err != nil {
		t.Fatal(err)
	}
	var held HeldReply
	read := testing.AllocsPerRun(50, func() {
		if held, _, err = ReadHeldReply(payload); err != nil {
			t.Fatal(err)
		}
	})
	if read > 0 {
		t.Errorf("header read allocated %v times, want 0", read)
	}
	// By pointer, as the transport hands a streamed item to the encoder:
	// boxing the value into an interface would be an allocation of its own.
	buf := make([]byte, 0, 2*len(payload))
	write := testing.AllocsPerRun(50, func() {
		if buf, err = AppendMessage(buf[:0], &held, 0); err != nil {
			t.Fatal(err)
		}
	})
	if write > 0 {
		t.Errorf("re-encoding the held reply allocated %v times, want 0", write)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("re-encoded held reply differs from the payload it was read from")
	}
}

// TestReplyEncodeAllocs pins the server's side of the contract: encoding a
// fresh recorded reply — the prefix trees, their attach points and, bound
// to its map, the out-arc ordinals — into a reused buffer allocates nothing,
// for the 3×3 and the 16×16 reply in both path forms.
func TestReplyEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, side := range []int{3, 16} {
		rep, g := recordedReply(t, side)
		for _, m := range []*roadnet.Graph{nil, g} {
			rep.Map = m
			buf, err := AppendMessage(nil, &rep, 0)
			if err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(50, func() {
				if buf, err = AppendMessage(buf[:0], &rep, 0); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 0 {
				t.Errorf("encoding the %d×%d reply (bound %v) allocated %v times, want 0", side, side, m != nil, allocs)
			}
		}
	}
}

// TestCellReadAllocs pins the cell reader's allocation contract: reading one
// cell of a recorded 16×16 reply allocates only the returned path, and an
// unreachable cell allocates nothing, in both path forms.
func TestCellReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and defeats sync.Pool reuse")
	}
	rep, g := recordedReply(t, 16)
	found := slices.IndexFunc(rep.Paths, func(p CandidatePath) bool { return p.Found })
	if found < 0 {
		t.Fatal("recorded reply has no reachable cell")
	}
	// The recorded map is connected; an unreachable cell is made by clearing
	// a found bit and the cell's path, as a server would send it.
	lost := slices.IndexFunc(rep.Paths, func(p CandidatePath) bool { return !p.Found })
	if lost < 0 {
		lost = len(rep.Paths) - 1
		if lost == found {
			t.Fatal("recorded reply has one cell")
		}
		rep.Paths[lost].Found, rep.Paths[lost].Nodes = false, nil
	}
	for _, m := range []*roadnet.Graph{nil, g} {
		rep.Map = m
		payload, err := AppendMessage(nil, rep, 0)
		if err != nil {
			t.Fatal(err)
		}
		held, _, err := ReadHeldReply(payload)
		if err != nil {
			t.Fatal(err)
		}
		read := func(c int) func() {
			reply := held.Reply()
			var cell [1]CandidatePath
			at := [][2]int{{c / 16, c % 16}}
			return func() {
				if err := reply.ReadCells(m, cell[:], at); err != nil {
					t.Fatal(err)
				}
			}
		}
		read(found)() // warm the scratch pool
		if allocs := testing.AllocsPerRun(50, read(found)); allocs > 1 {
			t.Errorf("bound %v: reading a reachable cell allocated %v times, want 1 (the path)", m != nil, allocs)
		}
		if allocs := testing.AllocsPerRun(50, read(lost)); allocs > 0 {
			t.Errorf("bound %v: reading an unreachable cell allocated %v times, want 0", m != nil, allocs)
		}
	}
}
