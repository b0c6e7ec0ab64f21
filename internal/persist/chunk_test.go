package persist

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// chunkPayload builds a compressible test payload: repeated text with a
// counter, shaped like the codec bytes chunking exists for.
func chunkPayload(n int) []byte {
	var b bytes.Buffer
	for b.Len() < n {
		b.WriteString("jaguar,puma,memphis,lima,")
	}
	return b.Bytes()[:n]
}

func readAllChunks(t *testing.T, stream []byte) ([]byte, int) {
	t.Helper()
	r := bytes.NewReader(stream)
	var raw []byte
	wire := 0
	for {
		chunk, w, err := ReadChunk(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("ReadChunk: %v", err)
		}
		raw = append(raw, chunk...)
		wire += w
	}
	return raw, wire
}

func TestChunkRoundTrip(t *testing.T) {
	for _, size := range []int{0, 1, 100, DefaultChunkBytes, DefaultChunkBytes + 1, 3*DefaultChunkBytes - 7} {
		payload := chunkPayload(size)
		var out bytes.Buffer
		wire, err := WriteChunked(&out, payload, 0, 0)
		if err != nil {
			t.Fatalf("WriteChunked(size %d): %v", size, err)
		}
		if wire != int64(out.Len()) {
			t.Errorf("Wire = %d, stream has %d bytes", wire, out.Len())
		}
		got, gotWire := readAllChunks(t, out.Bytes())
		if !bytes.Equal(got, payload) {
			t.Fatalf("round trip of %d bytes corrupted the payload", size)
		}
		if gotWire != out.Len() {
			t.Errorf("reader consumed %d wire bytes, stream has %d", gotWire, out.Len())
		}
		if size >= 100 && int64(out.Len()) >= int64(size) {
			t.Errorf("stream of %d repetitive bytes did not shrink (%d on the wire)", size, out.Len())
		}
	}
}

func TestChunkResumeOffset(t *testing.T) {
	// A reader that accumulated the first two chunks resumes at their raw
	// size: the re-requested stream must contain exactly the remainder.
	payload := chunkPayload(1000)
	const chunk = 256
	var full bytes.Buffer
	if _, err := WriteChunked(&full, payload, 0, chunk); err != nil {
		t.Fatal(err)
	}
	resumeAt := 2 * chunk
	var rest bytes.Buffer
	if _, err := WriteChunked(&rest, payload, resumeAt, chunk); err != nil {
		t.Fatal(err)
	}
	got, _ := readAllChunks(t, rest.Bytes())
	if !bytes.Equal(got, payload[resumeAt:]) {
		t.Fatal("resumed stream does not continue from the requested raw offset")
	}
}

func TestChunkStoredFallback(t *testing.T) {
	// Incompressible (random-ish) payloads must be framed stored, not grown
	// by a futile gzip pass.
	payload := make([]byte, 4096)
	st := uint32(0x9e3779b9)
	for i := range payload {
		st = st*1664525 + 1013904223
		payload[i] = byte(st >> 24)
	}
	var out bytes.Buffer
	if _, err := WriteChunked(&out, payload, 0, 0); err != nil {
		t.Fatal(err)
	}
	if out.Len() > len(payload)+16 {
		t.Errorf("incompressible chunk grew from %d to %d bytes on the wire", len(payload), out.Len())
	}
	if flag := out.Bytes()[0]; flag != chunkStored {
		t.Errorf("incompressible chunk framed with flag %d, want stored", flag)
	}
	got, _ := readAllChunks(t, out.Bytes())
	if !bytes.Equal(got, payload) {
		t.Fatal("stored-fallback round trip corrupted the payload")
	}
}

func TestChunkCorruption(t *testing.T) {
	payload := chunkPayload(512)
	var out bytes.Buffer
	if _, err := WriteChunked(&out, payload, 0, 0); err != nil {
		t.Fatal(err)
	}
	stream := out.Bytes()

	t.Run("bit flip fails the checksum", func(t *testing.T) {
		bad := append([]byte(nil), stream...)
		bad[len(bad)/2] ^= 0x40
		if _, _, err := ReadChunk(bytes.NewReader(bad)); err == nil {
			t.Fatal("corrupted chunk decoded cleanly")
		}
	})
	t.Run("truncation is an error, not EOF", func(t *testing.T) {
		// Clean end is the io.EOF identity; a torn frame must be anything
		// else (it may wrap io.EOF for context, but never equal it).
		for _, cut := range []int{1, 5, len(stream) / 2, len(stream) - 1} {
			_, _, err := ReadChunk(bytes.NewReader(stream[:cut]))
			if err == nil || err == io.EOF {
				t.Fatalf("chunk cut at %d bytes returned %v, want a descriptive error", cut, err)
			}
		}
	})
	t.Run("clean end is io.EOF", func(t *testing.T) {
		if _, _, err := ReadChunk(bytes.NewReader(nil)); err != io.EOF {
			t.Fatalf("empty stream = %v, want io.EOF", err)
		}
	})
	t.Run("lying length prefix fails without huge allocation", func(t *testing.T) {
		bad := []byte{chunkStored, 0xff, 0xff, 0xff, 0x03, 0xff, 0xff, 0xff, 0x03, 'x'}
		if _, _, err := ReadChunk(bytes.NewReader(bad)); err == nil ||
			!strings.Contains(err.Error(), "truncated") {
			t.Fatalf("lying prefix = %v, want a truncation error", err)
		}
	})
	t.Run("oversized claim is rejected", func(t *testing.T) {
		bad := []byte{chunkStored, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
		if _, _, err := ReadChunk(bytes.NewReader(bad)); err == nil ||
			!strings.Contains(err.Error(), "limit") {
			t.Fatalf("oversized claim = %v, want a limit error", err)
		}
	})
}

func FuzzReadChunk(f *testing.F) {
	var seed bytes.Buffer
	WriteChunked(&seed, chunkPayload(300), 0, 128) //nolint:errcheck // corpus seeding
	f.Add(seed.Bytes())
	// Too short for gzip to pay: framed stored.
	var stored bytes.Buffer
	WriteChunked(&stored, chunkPayload(5), 0, 0) //nolint:errcheck // corpus seeding
	f.Add(stored.Bytes())
	f.Add([]byte{chunkGzip, 4, 0, 0, 0, 2, 0, 0, 0, 'x', 'y', 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		// The decoder must never panic and never allocate unboundedly, no
		// matter the input; errors are the expected outcome for junk.
		r := bytes.NewReader(data)
		for {
			if _, _, err := ReadChunk(r); err != nil {
				break
			}
		}
	})
}
