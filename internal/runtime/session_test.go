package runtime

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"fedgpo/internal/fl"
	"fedgpo/internal/runtime/wire"
)

// writeJSONFrame writes v as one wire frame, the encoding of every
// message on a session.
func writeJSONFrame(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = wire.WriteFrame(w, b)
	return err
}

// readJSONFrame reads one wire frame and decodes its JSON payload.
func readJSONFrame(r io.Reader, frame int, v any) error {
	payload, _, err := wire.ReadFrame(r, frame)
	if err != nil {
		return err
	}
	return json.Unmarshal(payload, v)
}

// v5HelloLine is a plain-JSON hello line of the kind protocol-3 to -5
// workers opened their sessions with, before any binary frame.
const v5HelloLine = `{"hello":true,"proto":3,"keyVersion":"v3","capacity":1}` + "\n"

// pipeSession wires a coordinator-side Conn to a worker goroutine over
// in-process pipes, returning the established Conn and a wait func
// that joins the worker and returns its ServeSession error.
func pipeSession(t *testing.T, opt WorkerOptions, run func(key string, spec json.RawMessage) Result) (Conn, func() error) {
	t.Helper()
	cr, ww := io.Pipe() // worker writes -> coordinator reads
	wr, cw := io.Pipe() // coordinator writes -> worker reads
	errc := make(chan error, 1)
	go func() {
		err := ServeSession(wr, ww, run, opt)
		_ = ww.Close()
		errc <- err
	}()
	conn, err := newWireConn(cr, cw, 0, func() error { return cw.Close() })
	if err != nil {
		t.Fatalf("newWireConn: %v", err)
	}
	return conn, func() error {
		_ = cw.Close()
		select {
		case err := <-errc:
			return err
		case <-time.After(5 * time.Second):
			return io.ErrNoProgress
		}
	}
}

func echoRun(key string, spec json.RawMessage) Result {
	var s stubSpec
	if err := json.Unmarshal(spec, &s); err != nil {
		return Result{Key: key, Err: err.Error()}
	}
	return Result{Key: key, Sim: fl.Result{PPW: s.PPW}}
}

// A session opens with the worker's framed hello; a request envelope
// of several specs comes back as one streamed response frame per spec
// in request order, and the byte meters see traffic both ways (hello
// included).
func TestWireSessionBatchesAndStreams(t *testing.T) {
	conn, wait := pipeSession(t, WorkerOptions{Capacity: 2}, echoRun)
	defer conn.Close()
	if h := conn.Hello(); h.Proto != ProtoVersion || h.KeyVersion != keyVersion || h.Capacity != 2 {
		t.Errorf("hello = %+v, want proto %d, capacity 2", h, ProtoVersion)
	}

	jobs := specJobs(5)
	reqs := make([]WireRequest, len(jobs))
	for i, j := range jobs {
		reqs[i] = WireRequest{Key: j.Key(), Spec: j.Payload}
	}
	if err := conn.SendBatch(reqs); err != nil {
		t.Fatalf("SendBatch: %v", err)
	}
	for i := range reqs {
		resps, err := conn.RecvBatch()
		if err != nil {
			t.Fatalf("RecvBatch %d: %v", i, err)
		}
		// ServeSession answers each spec the moment it finishes, so a
		// 5-spec request envelope yields 5 single-response frames.
		if len(resps) != 1 {
			t.Fatalf("frame %d carried %d responses, want 1 (streamed per spec)", i, len(resps))
		}
		if resps[0].Key != reqs[i].Key {
			t.Errorf("frame %d answered %q, want %q (request order)", i, resps[0].Key, reqs[i].Key)
		}
		if resps[0].Result.Sim.PPW != float64(i) {
			t.Errorf("frame %d PPW = %v, want %v", i, resps[0].Result.Sim.PPW, float64(i))
		}
	}

	ws, ok := conn.(WireStatser)
	if !ok {
		t.Fatal("session does not meter wire bytes")
	}
	sent, recv := ws.WireStats()
	if sent <= 0 || recv <= 0 {
		t.Errorf("WireStats = (%d, %d), want both positive after a batch", sent, recv)
	}
	if err := wait(); err != nil {
		t.Errorf("worker session: %v", err)
	}
}

// Snapshot shipping (introduced by protocol 5): artifacts pushed with
// a request install on the worker before the request runs, and
// artifacts a job builds return with its response.
func TestWireSessionV5SnapshotRoundTrip(t *testing.T) {
	var mu sync.Mutex
	var order []string
	run := func(key string, spec json.RawMessage) Result {
		mu.Lock()
		order = append(order, "run:"+key)
		mu.Unlock()
		var s snapSpec
		if err := json.Unmarshal(spec, &s); err != nil {
			return Result{Key: key, Err: err.Error()}
		}
		res := Result{Key: key, Sim: fl.Result{PPW: s.PPW}}
		if s.Snap != "" {
			res.Snaps = []SnapshotArtifact{{Key: s.Snap, Data: snapArtifact}}
		}
		return res
	}
	conn, wait := pipeSession(t, WorkerOptions{
		Capacity: 1,
		Install: func(key string, data json.RawMessage) error {
			mu.Lock()
			order = append(order, "install:"+key)
			mu.Unlock()
			return nil
		},
	}, run)
	defer conn.Close()

	builder := snapJob(0, "pk", "pk") // builds the snapshot
	consumer := snapJob(1, "pk", "")  // gets it pushed
	reqs := []WireRequest{
		{Key: builder.Key(), Spec: builder.Payload},
		{Key: consumer.Key(), Spec: consumer.Payload,
			Snaps: []SnapshotArtifact{{Key: "pk", Data: snapArtifact}}},
	}
	if err := conn.SendBatch(reqs); err != nil {
		t.Fatal(err)
	}
	resps, err := conn.RecvBatch()
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 1 || len(resps[0].Snaps) != 1 || resps[0].Snaps[0].Key != "pk" ||
		string(resps[0].Snaps[0].Data) != string(snapArtifact) {
		t.Errorf("builder response snaps = %+v, want the built artifact under key pk", resps[0].Snaps)
	}
	if resps, err = conn.RecvBatch(); err != nil {
		t.Fatal(err)
	}
	if len(resps[0].Snaps) != 0 {
		t.Errorf("consumer response carried %d snaps, want none (it built nothing)", len(resps[0].Snaps))
	}
	mu.Lock()
	got := append([]string(nil), order...)
	mu.Unlock()
	want := []string{"run:" + builder.Key(), "install:pk", "run:" + consumer.Key()}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("event order = %v, want %v (installs precede the request that shipped them)", got, want)
	}
	if err := wait(); err != nil {
		t.Errorf("worker session: %v", err)
	}
}

// A two-endpoint TCP fleet must produce results identical to the
// in-process pool, with per-endpoint accounting that reconciles with
// the batch: every job dispatched once as one spec, batched into no
// more frames than specs, and bytes metered on every endpoint that ran
// jobs.
func TestTCPFleetMatchesPoolAndReconciles(t *testing.T) {
	addrA, shutdownA := tcpServe(t, 2, "")
	addrB, shutdownB := tcpServe(t, 2, "")

	jobs := specJobs(24)
	want := NewPoolBackend(4).Run(jobs, nil)

	c := NewProcBackend(ProcConfig{Workers: []string{addrA, addrB}})
	results := c.Run(jobs, nil)
	for i := range want {
		if results[i].Err != want[i].Err || results[i].Sim.PPW != want[i].Sim.PPW {
			t.Errorf("job %d on the fleet = %+v, want %+v", i, results[i], want[i])
		}
	}

	var dispatched, frames, specs int64
	for _, ep := range c.EndpointStats() {
		dispatched += ep.Dispatched
		frames += ep.Frames
		specs += ep.Specs
		if ep.Retried != 0 || ep.Failed != 0 {
			t.Errorf("endpoint %s: retried=%d failed=%d on a healthy fleet", ep.Endpoint, ep.Retried, ep.Failed)
		}
		if ep.Dispatched > 0 && (ep.BytesSent <= 0 || ep.BytesRecv <= 0) {
			t.Errorf("endpoint %s moved %d jobs but metered (%d, %d) bytes", ep.Endpoint, ep.Dispatched, ep.BytesSent, ep.BytesRecv)
		}
	}
	if dispatched != int64(len(jobs)) || specs != int64(len(jobs)) {
		t.Errorf("fleet dispatched %d jobs as %d specs, want %d of each", dispatched, specs, len(jobs))
	}
	if frames > specs {
		t.Errorf("fleet sent %d frames for %d specs; frames cannot exceed specs", frames, specs)
	}
	for _, shutdown := range []func() error{shutdownA, shutdownB} {
		if err := shutdown(); err != nil {
			t.Errorf("graceful drain: %v", err)
		}
	}
}

// When one endpoint of a two-endpoint fleet dies mid-batch, the other
// must absorb its jobs and the dead endpoint's retry and failover
// counters must record the handoff.
func TestTCPFleetFailoverAccounting(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var conns sync.Map
	answered := make(chan struct{}, 64)
	// The schedule is pinned by handshake so it holds under
	// race-detector load: every survivor cell and the flaky endpoint's
	// first cell block until the kill goroutine has closed the flaky
	// listener and every accepted conn. The survivor therefore cannot
	// drain the queue before the flaky endpoint holds a job in flight,
	// and the flaky worker's response write is guaranteed to fail — the
	// coordinator must requeue that job (retry) and, with the listener
	// gone, hand it off (failover).
	killed := make(chan struct{})
	go func() {
		for {
			nc, err := lis.Accept()
			if err != nil {
				return
			}
			conns.Store(nc, struct{}{})
			go func(nc net.Conn) {
				_ = ServeSession(nc, nc, func(key string, spec json.RawMessage) Result {
					answered <- struct{}{}
					<-killed
					return echoRun(key, spec)
				}, WorkerOptions{Capacity: 1})
			}(nc)
		}
	}()

	survivorLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- Serve(ctx, survivorLis, ServeConfig{
			Capacity: 1,
			Run: func(key string, spec json.RawMessage) Result {
				<-killed
				return echoRun(key, spec)
			},
		})
	}()
	jobs := specJobs(12)
	c := NewProcBackend(ProcConfig{Workers: []string{lis.Addr().String(), survivorLis.Addr().String()}})
	go func() {
		<-answered
		_ = lis.Close()
		conns.Range(func(k, _ any) bool {
			_ = k.(net.Conn).Close()
			return true
		})
		close(killed)
	}()
	results := c.Run(jobs, nil)
	for i, r := range results {
		if r.Err != "" || r.Sim.PPW != float64(i) {
			t.Errorf("job %d = %+v after endpoint death", i, r)
		}
	}
	flakyName := "tcp:" + lis.Addr().String()
	for _, ep := range c.EndpointStats() {
		if ep.Endpoint == flakyName {
			if ep.Retried == 0 {
				t.Errorf("dead endpoint recorded no retry")
			}
			if ep.Failed == 0 {
				t.Errorf("dead endpoint recorded no failover handoff")
			}
		} else if ep.Failed != 0 {
			t.Errorf("surviving endpoint %s recorded %d failed", ep.Endpoint, ep.Failed)
		}
	}
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Errorf("graceful drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("survivor did not drain")
	}
}

// WireBytesPerCell must meter framed, compressed envelopes: on
// repetitive payloads a cell costs fewer wire bytes than its request
// and response JSON alone. An empty request set is an error.
func TestWireBytesPerCellMeters(t *testing.T) {
	jobs := specJobs(16)
	reqs := make([]WireRequest, len(jobs))
	resps := make([]WireResponse, len(jobs))
	rawJSON := 0
	for i, j := range jobs {
		reqs[i] = WireRequest{Key: j.Key(), Spec: j.Payload}
		resps[i] = WireResponse{Key: j.Key(), Result: Result{Key: j.Key(), Sim: fl.Result{PPW: float64(i)}}}
		for _, v := range []any{reqs[i], resps[i]} {
			b, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			rawJSON += len(b)
		}
	}
	perCell, err := WireBytesPerCell(reqs, resps, 8)
	if err != nil {
		t.Fatal(err)
	}
	raw := float64(rawJSON) / float64(len(jobs))
	if perCell <= 0 || perCell >= raw {
		t.Errorf("framed %.0f B/cell vs raw JSON %.0f B/cell; batched compressed framing must cost less", perCell, raw)
	}
	if _, err := WireBytesPerCell(nil, nil, 8); err == nil {
		t.Error("empty request set must error, not divide by zero")
	}
}

// FuzzHandshake feeds arbitrary worker output to the coordinator's
// handshake: it must return an error or a validated hello, never
// panic. Whatever starts like a plain-JSON hello line (the protocol-5
// handshake) is rejected as a foreign peer.
func FuzzHandshake(f *testing.F) {
	var valid bytes.Buffer
	if err := writeJSONFrame(&valid, WireHello{Hello: true, Proto: ProtoVersion, KeyVersion: keyVersion, Capacity: 2}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-3])
	f.Add([]byte(v5HelloLine))
	f.Fuzz(func(t *testing.T, b []byte) {
		conn, err := newWireConn(bytes.NewReader(b), io.Discard, 0, nil)
		if err != nil {
			if len(b) >= 4 && b[0] == '{' && !strings.Contains(err.Error(), fmt.Sprintf("not a protocol-%d worker", ProtoVersion)) {
				t.Errorf("JSON-line hello rejected with %q, want a not-a-protocol-%d-worker error", err, ProtoVersion)
			}
			return
		}
		h := conn.Hello()
		if !h.Hello || h.Proto != ProtoVersion || h.KeyVersion != keyVersion || h.Capacity < 1 {
			t.Errorf("handshake accepted an invalid hello %+v", h)
		}
	})
}
