// Package wire implements the length-prefixed binary framing shared by
// transport sessions and cache entries: one frame is a 4-byte
// big-endian length prefix followed by that many bytes of
// DEFLATE-compressed payload. The payload is an opaque byte string to
// this package — the runtime package puts JSON hellos, batch envelopes
// and cached results inside — so the framing,
// its size guards and its fuzz surface live in one place for the stdio
// and TCP transports alike.
//
// Both directions of a frame are bounded: the length prefix is
// validated against MaxFrameBytes before a single payload byte is
// allocated or read, and decompression stops at MaxPayloadBytes — a
// corrupt or hostile stream can make a reader fail, never allocate
// without bound. Read errors carry the 1-based frame index so a
// session failure names the exact frame that broke it.
package wire

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

const (
	// MaxFrameBytes bounds the on-wire (compressed) body of one frame.
	// A length prefix above it fails the read before any allocation.
	MaxFrameBytes = 64 << 20
	// MaxPayloadBytes bounds the decompressed payload of one frame, so
	// a malicious deflate stream cannot expand without bound.
	MaxPayloadBytes = 256 << 20
	// headerLen is the length prefix size.
	headerLen = 4
)

// bodyChunk is the step readBody grows its buffer by: memory is
// committed as bytes actually arrive, so a truncated stream whose
// prefix claims MaxFrameBytes costs one chunk, not the claim.
const bodyChunk = 1 << 20

// maxSpareBody caps the compressed-body buffer the spare writer keeps
// between frames, so one huge frame does not pin its buffer for the
// life of the process.
const maxSpareBody = 4 << 20

// frameWriter is a reusable compressor and its output buffer. Reset
// leaves a flate.Writer equivalent to a fresh NewWriter, so frames from
// a reused writer are byte-identical to fresh ones.
type frameWriter struct {
	fw   *flate.Writer
	body bytes.Buffer
}

// spareWriter holds one idle frameWriter. A flate.Writer carries about
// 1 MB of state, so WriteFrame resets the spare instead of building one
// per frame; a frame that finds the slot empty (another frame is
// compressing) builds its own and drops it after. One spare, not a
// sync.Pool: a pool keeps an idle writer per P alive across a GC
// cycle, which raised a cold -quick report's peak RSS by about 1.5 MB,
// while frames are short enough that one spare serves nearly all.
var spareWriter = make(chan *frameWriter, 1)

func newFrameWriter() *frameWriter {
	fw, err := flate.NewWriter(io.Discard, flate.BestSpeed)
	if err != nil {
		panic(err) // BestSpeed is a valid level
	}
	return &frameWriter{fw: fw}
}

// WriteFrame compresses payload and writes it as one frame, returning
// the number of bytes put on the wire (prefix included).
func WriteFrame(w io.Writer, payload []byte) (int, error) {
	if len(payload) > MaxPayloadBytes {
		return 0, fmt.Errorf("wire: frame payload %d bytes exceeds limit %d", len(payload), MaxPayloadBytes)
	}
	var fw *frameWriter
	select {
	case fw = <-spareWriter:
	default:
		fw = newFrameWriter()
	}
	defer func() {
		if fw.body.Cap() <= maxSpareBody {
			select {
			case spareWriter <- fw:
			default:
			}
		}
	}()
	fw.body.Reset()
	fw.fw.Reset(&fw.body)
	if _, err := fw.fw.Write(payload); err != nil {
		return 0, fmt.Errorf("wire: frame compress: %w", err)
	}
	if err := fw.fw.Close(); err != nil {
		return 0, fmt.Errorf("wire: frame compress: %w", err)
	}
	body := fw.body.Bytes()
	if len(body) > MaxFrameBytes {
		return 0, fmt.Errorf("wire: frame body %d bytes exceeds limit %d", len(body), MaxFrameBytes)
	}
	var hdr [headerLen]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	n, err := w.Write(body)
	return headerLen + n, err
}

// ReadFrame reads one frame and returns its decompressed payload plus
// the number of wire bytes consumed. frame is the 1-based frame index
// used in error messages. A clean EOF at a frame boundary returns
// io.EOF unwrapped, so callers can end sessions cleanly; EOF inside a
// frame is a truncation error.
func ReadFrame(r io.Reader, frame int) ([]byte, int, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		return nil, 0, fmt.Errorf("wire: frame %d: reading length prefix: %w", frame, err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFrameBytes {
		return nil, 0, fmt.Errorf("wire: frame %d: length prefix %d outside (0, %d]", frame, n, MaxFrameBytes)
	}
	body, err := readBody(r, int(n))
	if err != nil {
		return nil, 0, fmt.Errorf("wire: frame %d: reading %d-byte body: %w", frame, n, err)
	}
	payload, err := inflate(body)
	if err != nil {
		return nil, 0, fmt.Errorf("wire: frame %d: %w", frame, err)
	}
	return payload, headerLen + int(n), nil
}

// readBody reads exactly n bytes, growing the buffer chunk by chunk so
// a lying length prefix over a short stream never commits more memory
// than the stream delivers.
func readBody(r io.Reader, n int) ([]byte, error) {
	chunk := bodyChunk
	if chunk > n {
		chunk = n
	}
	body := make([]byte, 0, chunk)
	for len(body) < n {
		m := n - len(body)
		if m > bodyChunk {
			m = bodyChunk
		}
		off := len(body)
		body = append(body, make([]byte, m)...)
		if _, err := io.ReadFull(r, body[off:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return body, nil
}

// frameReader is one reusable decompressor, reset onto each frame body
// through flate.Resetter instead of allocating a fresh inflater.
type frameReader struct {
	src bytes.Reader
	fr  io.ReadCloser
}

var readerPool = sync.Pool{New: func() any {
	r := &frameReader{}
	r.fr = flate.NewReader(&r.src)
	return r
}}

// inflate decompresses one frame body, bounded by MaxPayloadBytes.
func inflate(body []byte) ([]byte, error) {
	r := readerPool.Get().(*frameReader)
	defer func() {
		r.src.Reset(nil)
		readerPool.Put(r)
	}()
	r.src.Reset(body)
	if err := r.fr.(flate.Resetter).Reset(&r.src, nil); err != nil {
		return nil, fmt.Errorf("decompress: %w", err)
	}
	// Size the output for a typical compression ratio up front (never
	// past one read chunk), so small payloads inflate without regrowth.
	var out bytes.Buffer
	out.Grow(min(4*len(body), bodyChunk))
	n, err := out.ReadFrom(io.LimitReader(r.fr, MaxPayloadBytes+1))
	if err != nil {
		return nil, fmt.Errorf("decompress: %w", err)
	}
	if n > MaxPayloadBytes {
		return nil, fmt.Errorf("decompress: payload exceeds limit %d", int64(MaxPayloadBytes))
	}
	return out.Bytes(), nil
}

// ErrTruncated reports whether a ReadFrame error was caused by the
// stream ending inside a frame (as opposed to a corrupt or oversized
// one) — a worker crash mid-write looks like this, and coordinators
// treat it exactly like a connection error.
func ErrTruncated(err error) bool {
	return errors.Is(err, io.ErrUnexpectedEOF)
}
