package protocol

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// TestHeldReplyRelaysBytes pins the held form: the header fields are the
// reply's, the held reply re-encodes to exactly the payload it was read from
// — alone and inside a BatchItem — and decodes to the reply itself.
func TestHeldReplyRelaysBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, rep := range []ServerReply{
		randomReply(rng, 3, 3, false),
		randomReply(rng, 16, 16, false),
		randomReply(rng, 4, 2, true),
		{QueryID: 5, Profile: "am-peak"},
	} {
		payload, err := AppendMessage(nil, rep, 987)
		if err != nil {
			t.Fatal(err)
		}
		held, deadline, err := ReadHeldReply(payload)
		if err != nil {
			t.Fatalf("query %d: %v", rep.QueryID, err)
		}
		if held.QueryID != rep.QueryID || held.Degraded != rep.Degraded || held.Generation != rep.Generation ||
			held.ContentSum != rep.ContentSum || held.Profile != rep.Profile || deadline != 987 {
			t.Fatalf("query %d: held header %+v (deadline %d) differs from the reply", rep.QueryID, held, deadline)
		}
		again, err := AppendMessage(nil, held, 987)
		if err != nil || !bytes.Equal(again, payload) {
			t.Fatalf("query %d: held reply re-encoded to %d bytes (err %v), read from %d", rep.QueryID, len(again), err, len(payload))
		}
		got, err := held.Decode()
		if err != nil || !reflect.DeepEqual(got, rep) {
			t.Fatalf("query %d: held reply decoded to %+v (err %v)", rep.QueryID, got, err)
		}
		viaReply, err := AppendMessage(nil, BatchItem{BatchID: 3, Index: 1, Reply: rep}, 0)
		if err != nil {
			t.Fatal(err)
		}
		viaHeld, err := AppendMessage(nil, BatchItem{BatchID: 3, Index: 1, Held: held}, 0)
		if err != nil || !bytes.Equal(viaHeld, viaReply) {
			t.Fatalf("query %d: item carrying the held reply encodes differently (err %v)", rep.QueryID, err)
		}
	}
	if _, err := AppendMessage(nil, HeldReply{}, 0); err == nil {
		t.Error("a HeldReply holding nothing encoded")
	}
	if _, err := (HeldReply{}).Decode(); err == nil {
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
	if _, err := held.Decode(); !errors.Is(err, ErrPayloadMalformed) {
		t.Fatalf("decoding a table with a trailing byte: %v, want ErrPayloadMalformed", err)
	}
	if _, _, err := ReadHeldReply(payload[:payloadHeaderLen+3]); !errors.Is(err, ErrPayloadTruncated) {
		t.Fatalf("holding a reply cut inside its header: %v, want ErrPayloadTruncated", err)
	}
}

// TestRelayAllocs pins the relay's allocation contract: reading a recorded
// 16×16 reply's header allocates at most its profile string, and writing the
// held reply into a reused buffer allocates nothing.
func TestRelayAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	rep := recordedReply(t, 16)
	rep.Profile = "am-peak"
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
	if read > 1 {
		t.Errorf("header read allocated %v times, want at most 1 (the profile string)", read)
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
