package persist

// Chunked snapshot framing. The replication leader streams a marshaled
// snapshot to bootstrapping followers as a sequence of independently
// CRC-checked, independently compressed chunks, so a follower whose stream
// dies mid-transfer can resume from the last fully received chunk instead of
// re-downloading the whole snapshot — and so the bytes on the wire shrink by
// the codec's gzip ratio without giving up resumability (one gzip stream
// over the whole body would tie every byte to the stream state before it).
//
// Chunk frame layout:
//
//	byte    flag       0 = stored, 1 = gzip
//	uint32  rawLen     chunk size before compression
//	uint32  encLen     bytes that follow (== rawLen when stored)
//	[]byte  payload    encLen bytes
//	uint32  crc        CRC-32 (IEEE) of payload as transmitted
//
// Offsets in the resume protocol are raw (uncompressed) snapshot offsets:
// the writer cuts chunks at fixed DefaultChunkBytes boundaries, so a reader
// that has accumulated N raw bytes of whole chunks can hand N back to the
// leader and receive exactly the frames it is missing.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// DefaultChunkBytes is the raw size the leader cuts snapshot chunks at. Big
// enough that per-chunk gzip headers and CRC trailers are noise, small
// enough that a dropped connection wastes at most one chunk of progress.
const DefaultChunkBytes = 256 << 10

// maxChunkBytes bounds both lengths a chunk header may claim, so a corrupt
// or hostile header cannot make the reader allocate gigabytes before the
// CRC check has a chance to fail.
const maxChunkBytes = 64 << 20

const (
	chunkStored = 0
	chunkGzip   = 1
)

// ChunkWriter frames raw byte runs into chunk frames on w, gzip-compressing
// each payload and keeping it stored when compression does not shrink it,
// so the encoding is chosen per chunk from the measured ratio. It reuses
// one gzip encoder and one scratch buffer across chunks. Wire accumulates
// the framed bytes actually written, which the bench emitter compares
// against the raw snapshot size.
type ChunkWriter struct {
	w    io.Writer
	gz   *gzip.Writer
	buf  bytes.Buffer
	head []byte
	// Wire counts bytes written to w, frames included.
	Wire int64
}

// NewChunkWriter returns a ChunkWriter over w.
func NewChunkWriter(w io.Writer) *ChunkWriter {
	return &ChunkWriter{w: w}
}

// WriteChunk frames one raw chunk, gzip-compressed when that shrinks it and
// stored otherwise. raw must not exceed maxChunkBytes.
func (cw *ChunkWriter) WriteChunk(raw []byte) error {
	if len(raw) > maxChunkBytes {
		return fmt.Errorf("persist: chunk of %d bytes exceeds limit %d", len(raw), maxChunkBytes)
	}
	flag := byte(chunkStored)
	payload := raw
	if len(raw) > 0 {
		cw.buf.Reset()
		if cw.gz == nil {
			cw.gz = gzip.NewWriter(&cw.buf)
		} else {
			cw.gz.Reset(&cw.buf)
		}
		if _, err := cw.gz.Write(raw); err != nil {
			return fmt.Errorf("persist: chunk compress: %w", err)
		}
		if err := cw.gz.Close(); err != nil {
			return fmt.Errorf("persist: chunk compress: %w", err)
		}
		if cw.buf.Len() < len(raw) {
			flag = chunkGzip
			payload = cw.buf.Bytes()
		}
	}
	h := cw.head[:0]
	h = append(h, flag)
	h = binary.LittleEndian.AppendUint32(h, uint32(len(raw)))
	h = binary.LittleEndian.AppendUint32(h, uint32(len(payload)))
	cw.head = h
	if _, err := cw.w.Write(h); err != nil {
		return err
	}
	if _, err := cw.w.Write(payload); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	if _, err := cw.w.Write(crc[:]); err != nil {
		return err
	}
	cw.Wire += int64(len(h) + len(payload) + 4)
	return nil
}

// WriteChunked cuts buf into chunkBytes-sized chunks (DefaultChunkBytes when
// non-positive) starting at raw offset from, and frames each onto w. It
// returns the framed byte count. The leader's snapshot handler is this plus
// HTTP headers.
func WriteChunked(w io.Writer, buf []byte, from int, chunkBytes int) (int64, error) {
	if chunkBytes <= 0 {
		chunkBytes = DefaultChunkBytes
	}
	cw := NewChunkWriter(w)
	for off := from; off < len(buf); off += chunkBytes {
		end := min(off+chunkBytes, len(buf))
		if err := cw.WriteChunk(buf[off:end]); err != nil {
			return cw.Wire, err
		}
	}
	return cw.Wire, nil
}

// ReadChunk reads one chunk frame from r, verifies its CRC, and returns the
// decoded raw payload plus the number of wire bytes the frame occupied. A
// clean end of stream (no bytes at all) returns io.EOF; a frame cut short or
// failing its checksum returns a descriptive error — the resume signal.
func ReadChunk(r io.Reader) (raw []byte, wire int, err error) {
	var head [9]byte
	if _, err := io.ReadFull(r, head[:1]); err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		return nil, 0, fmt.Errorf("persist: truncated chunk header: %w", err)
	}
	flag := head[0]
	if flag != chunkStored && flag != chunkGzip {
		return nil, 0, fmt.Errorf("persist: unknown chunk flag %d", flag)
	}
	if _, err := io.ReadFull(r, head[1:]); err != nil {
		return nil, 0, fmt.Errorf("persist: truncated chunk header: %w", err)
	}
	rawLen := binary.LittleEndian.Uint32(head[1:5])
	encLen := binary.LittleEndian.Uint32(head[5:9])
	if rawLen > maxChunkBytes || encLen > maxChunkBytes {
		return nil, 0, fmt.Errorf("persist: chunk lengths %d/%d exceed limit %d", rawLen, encLen, maxChunkBytes)
	}
	// Grow with the bytes that actually arrive rather than trusting the
	// length prefix: a lying prefix on a short stream must fail after
	// reading what exists, not allocate tens of megabytes first.
	var body bytes.Buffer
	if _, err := io.CopyN(&body, r, int64(encLen)+4); err != nil {
		return nil, 0, fmt.Errorf("persist: truncated chunk body: %w", err)
	}
	buf := body.Bytes()
	payload, crc := buf[:encLen], binary.LittleEndian.Uint32(buf[encLen:])
	if got := crc32.ChecksumIEEE(payload); got != crc {
		return nil, 0, fmt.Errorf("persist: chunk checksum mismatch")
	}
	wire = 9 + int(encLen) + 4
	if flag == chunkStored {
		if rawLen != encLen {
			return nil, 0, fmt.Errorf("persist: stored chunk lengths disagree (%d raw, %d encoded)", rawLen, encLen)
		}
		return payload, wire, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(payload))
	if err != nil {
		return nil, 0, fmt.Errorf("persist: chunk decompress: %w", err)
	}
	raw = make([]byte, 0, rawLen)
	out := bytes.NewBuffer(raw)
	// +1 so a payload inflating past its declared rawLen is detected rather
	// than silently truncated.
	if _, err := io.Copy(out, io.LimitReader(zr, int64(rawLen)+1)); err != nil {
		return nil, 0, fmt.Errorf("persist: chunk decompress: %w", err)
	}
	if err := zr.Close(); err != nil {
		return nil, 0, fmt.Errorf("persist: chunk decompress: %w", err)
	}
	if out.Len() != int(rawLen) {
		return nil, 0, fmt.Errorf("persist: chunk inflated to %d bytes, header claims %d", out.Len(), rawLen)
	}
	return out.Bytes(), wire, nil
}
