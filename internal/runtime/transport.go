package runtime

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"fedgpo/internal/runtime/wire"
)

// ProtoVersion is the wire protocol this build speaks. Coordinator and
// worker build from one module and always ship together, so a session
// speaks exactly this protocol or is rejected at the hello: every frame
// in both directions — the hello included — is a wire-package frame
// (length-prefixed, DEFLATE-compressed) whose payload is JSON. Request
// frames batch several specs into one envelope, responses stream back
// one spec per frame, and both may carry pretrain snapshots (Snaps).
// Version 7 is the first whose workers write FGC2 cache entries, so a
// worker sharing a cache directory with the coordinator cannot be a
// build that reads or writes the older entry generation.
const ProtoVersion = 7

// WireHello is the first frame of every wire session, sent by the
// worker the moment the session opens — before any request arrives.
// The coordinator validates it during Dial: a protocol or key-version
// mismatch rejects the endpoint outright, because a worker computing
// results under a different cache-key scheme would publish them into
// the shared cache under keys this coordinator trusts.
type WireHello struct {
	// Hello marks the frame; it is always true (a frame without it is
	// not a handshake — most likely a non-worker process on the far
	// side).
	Hello bool `json:"hello"`
	// Proto is the worker's wire-protocol version; it must equal the
	// coordinator's ProtoVersion.
	Proto int `json:"proto"`
	// KeyVersion is the worker's cache-key scheme version (keyVersion in
	// job.go). Coordinator and worker must agree or cached results
	// written by one are semantically wrong for the other.
	KeyVersion string `json:"keyVersion"`
	// Capacity is how many wire sessions the worker can usefully serve
	// concurrently: 1 for a stdio subprocess, the serve pool's size for
	// a listening worker. The coordinator opens that many sessions.
	Capacity int `json:"capacity"`
	// CacheDir is the worker's run-cache directory ("" when the worker
	// caches in memory only). When it names the same directory as the
	// coordinator's, results arriving over this session are already
	// persisted and the coordinator skips re-writing them.
	CacheDir string `json:"cacheDir,omitempty"`
}

// Conn is one established wire session to a worker: hello already
// received and validated, request envelopes and response envelopes
// flowing as frames. A Conn is used by one coordinator session loop at
// a time and need not be safe for concurrent use. Close releases the
// session's resources (for a subprocess, reaping it; for a socket,
// closing it).
type Conn interface {
	// Hello returns the worker's validated handshake frame.
	Hello() WireHello
	// SendBatch writes one request envelope frame carrying reqs.
	SendBatch(reqs []WireRequest) error
	// RecvBatch reads the next response envelope frame.
	RecvBatch() ([]WireResponse, error)
	// Close ends the session.
	Close() error
}

// WireStatser is implemented by sessions that meter raw bytes moved on
// the wire (hello frame included). The coordinator folds the
// totals into its per-endpoint stats.
type WireStatser interface {
	WireStats() (sent, recv int64)
}

// Transport dials wire sessions to one worker endpoint. The
// coordinator is transport-agnostic: everything above Dial — work
// distribution, in-flight tracking, retry, budget forwarding — is the
// same whether the far side is a subprocess pipe or a TCP socket.
type Transport interface {
	// Name identifies the endpoint in errors and per-endpoint stats
	// (e.g. "stdio:fedgpo-worker", "tcp:host:port").
	Name() string
	// Dial opens one wire session, performing and validating the hello
	// handshake before returning.
	Dial() (Conn, error)
	// Sessions is the number of concurrent sessions the coordinator
	// should run against this endpoint, or 0 to learn it from the
	// hello's advertised capacity (one probe session is dialed first).
	Sessions() int
}

// deadlineReader is implemented by connections that support read
// deadlines (net.Conn); wireConn uses it to bound RecvBatch when the
// transport carries a reply timeout. Pipe-backed sessions don't
// implement it and RecvBatch blocks until the pipe closes — for a local
// subprocess, crash detection via pipe EOF makes that safe.
type deadlineReader interface {
	SetReadDeadline(t time.Time) error
}

// countReader / countWriter meter the raw bytes a session moves, so
// WireStats covers the hello and every frame.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// wireConn is a coordinator-side wire session over any reader/writer
// pair, shared by the stdio and TCP transports.
type wireConn struct {
	hello   WireHello
	cr      *countReader
	cw      *countWriter
	rawRead any // the original read side, checked for deadlineReader
	timeout time.Duration
	closer  func() error
	frames  int // frames read, hello included, for frame-indexed errors
}

// newWireConn wraps an open byte stream into a wire session: it reads
// and validates the worker's hello frame and returns the ready Conn.
// closer runs exactly once, on Close (or here, if the handshake fails).
func newWireConn(r io.Reader, w io.Writer, timeout time.Duration, closer func() error) (Conn, error) {
	c := &wireConn{
		cr:      &countReader{r: r},
		cw:      &countWriter{w: w},
		rawRead: r,
		timeout: timeout,
		closer:  closer,
	}
	if err := c.handshake(); err != nil {
		if closer != nil {
			_ = closer()
		}
		return nil, err
	}
	return c, nil
}

// handshake reads and validates the worker's hello frame. A stream
// that ends before a whole frame arrives is a worker that died or
// closed early; any other framing failure — a plain-JSON hello line
// from a protocol-5 build, an unrelated service on the port — means
// the peer does not speak this protocol at all.
func (c *wireConn) handshake() error {
	payload, err := c.readFrame()
	if err == io.EOF || wire.ErrTruncated(err) {
		return fmt.Errorf("runtime: transport handshake: reading hello: %w", err)
	}
	if err != nil {
		return fmt.Errorf("runtime: transport handshake: reading hello: peer is not a protocol-%d worker: %w", ProtoVersion, err)
	}
	var h WireHello
	if err := json.Unmarshal(payload, &h); err != nil || !h.Hello {
		return fmt.Errorf("runtime: transport handshake: first frame is not a hello: peer is not a protocol-%d worker", ProtoVersion)
	}
	if h.Proto != ProtoVersion {
		return fmt.Errorf("runtime: transport handshake: worker speaks wire protocol %d, coordinator %d", h.Proto, ProtoVersion)
	}
	if h.KeyVersion != keyVersion {
		return fmt.Errorf("runtime: transport handshake: worker cache-key scheme %q, coordinator %q — results would poison the shared cache", h.KeyVersion, keyVersion)
	}
	if h.Capacity < 1 {
		h.Capacity = 1
	}
	c.hello = h
	return nil
}

// readFrame reads the next frame's payload, bounded by the transport's
// reply timeout when the connection supports deadlines.
func (c *wireConn) readFrame() ([]byte, error) {
	if dr, ok := c.rawRead.(deadlineReader); ok && c.timeout > 0 {
		if err := dr.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
			return nil, err
		}
	}
	c.frames++
	payload, _, err := wire.ReadFrame(c.cr, c.frames)
	return payload, err
}

// Hello returns the validated handshake frame.
func (c *wireConn) Hello() WireHello { return c.hello }

// WireStats returns the session's cumulative raw bytes written and
// read, hello included.
func (c *wireConn) WireStats() (sent, recv int64) { return c.cw.n, c.cr.n }

// SendBatch writes one request envelope frame.
func (c *wireConn) SendBatch(reqs []WireRequest) error {
	b, err := json.Marshal(wireEnvelope{Reqs: reqs})
	if err != nil {
		return fmt.Errorf("runtime: encoding request envelope: %w", err)
	}
	_, err = wire.WriteFrame(c.cw, b)
	return err
}

// RecvBatch reads one response envelope frame.
func (c *wireConn) RecvBatch() ([]WireResponse, error) {
	payload, err := c.readFrame()
	if err != nil {
		return nil, err
	}
	var env wireEnvelope
	if err := json.Unmarshal(payload, &env); err != nil {
		return nil, fmt.Errorf("runtime: response envelope (frame %d): %w", c.frames, err)
	}
	return env.Resps, nil
}

// Close ends the session.
func (c *wireConn) Close() error {
	if c.closer == nil {
		return nil
	}
	return c.closer()
}
