package wire

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"io"
	"strings"
	"sync"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		[]byte("{}"),
		[]byte(strings.Repeat(`{"key":"v3|sim|...","spec":{"fleet":20}},`, 500)),
		bytes.Repeat([]byte{0}, 3*bodyChunk+17), // spans several read chunks
		[]byte("x"),
	}
	var buf bytes.Buffer
	written := make([]int, len(payloads))
	for i, p := range payloads {
		n, err := WriteFrame(&buf, p)
		if err != nil {
			t.Fatalf("WriteFrame(%d): %v", i, err)
		}
		if n < headerLen+1 {
			t.Fatalf("WriteFrame(%d) reported %d wire bytes", i, n)
		}
		written[i] = n
	}
	r := bytes.NewReader(buf.Bytes())
	for i, p := range payloads {
		got, n, err := ReadFrame(r, i+1)
		if err != nil {
			t.Fatalf("ReadFrame(%d): %v", i, err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: payload mismatch (%d vs %d bytes)", i, len(got), len(p))
		}
		if n != written[i] {
			t.Fatalf("frame %d: read %d wire bytes, wrote %d", i, n, written[i])
		}
	}
	if _, _, err := ReadFrame(r, len(payloads)+1); err != io.EOF {
		t.Fatalf("clean frame boundary: got %v, want io.EOF", err)
	}
}

func TestFrameCompresses(t *testing.T) {
	// Batched JSON is highly repetitive; the whole point of the
	// framing is that it ships far fewer bytes than the raw payload.
	payload := []byte(strings.Repeat(`{"key":"v3|sim|fleet=20|alpha=iid","result":{"ppw":1.25}}`+"\n", 200))
	var buf bytes.Buffer
	n, err := WriteFrame(&buf, payload)
	if err != nil {
		t.Fatal(err)
	}
	if n*2 > len(payload) {
		t.Fatalf("frame of %d-byte payload took %d wire bytes; want at least 2x compression", len(payload), n)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, []byte(`{"reqs":[]}`)); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for cut := 1; cut < len(whole); cut++ {
		_, _, err := ReadFrame(bytes.NewReader(whole[:cut]), 7)
		if err == nil || err == io.EOF {
			t.Fatalf("truncated at %d/%d bytes: got %v, want error", cut, len(whole), err)
		}
		if !strings.Contains(err.Error(), "frame 7") {
			t.Fatalf("truncated frame error not frame-indexed: %v", err)
		}
		if !ErrTruncated(err) && cut >= headerLen {
			t.Fatalf("truncated body at %d bytes not reported as truncation: %v", cut, err)
		}
	}
}

func TestReadFrameOversizedPrefix(t *testing.T) {
	for _, n := range []uint32{0, MaxFrameBytes + 1, 1<<32 - 1} {
		var hdr [headerLen]byte
		binary.BigEndian.PutUint32(hdr[:], n)
		_, _, err := ReadFrame(bytes.NewReader(hdr[:]), 3)
		if err == nil {
			t.Fatalf("length prefix %d: want error", n)
		}
		if !strings.Contains(err.Error(), "frame 3") {
			t.Fatalf("length prefix %d: error not frame-indexed: %v", n, err)
		}
	}
}

func TestReadFrameCorruptBody(t *testing.T) {
	body := []byte("this is not a deflate stream....")
	var hdr [headerLen]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	_, _, err := ReadFrame(bytes.NewReader(append(hdr[:], body...)), 2)
	if err == nil {
		t.Fatal("corrupt body: want error")
	}
	if !strings.Contains(err.Error(), "frame 2") {
		t.Fatalf("corrupt body error not frame-indexed: %v", err)
	}
}

func TestEmptyPayloadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadFrame(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty payload round-tripped to %d bytes", len(got))
	}
}

// freshFrame is a frame built with one new BestSpeed flate.Writer.
func freshFrame(t *testing.T, payload []byte) []byte {
	t.Helper()
	var body bytes.Buffer
	fw, err := flate.NewWriter(&body, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	var hdr [headerLen]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(body.Len()))
	return append(hdr[:], body.Bytes()...)
}

// A reused, reset writer produces exactly the bytes a fresh writer
// does, whatever the writer compressed before. Several goroutines
// write at once, so frames also come from writers built while the
// spare was taken, and -race checks the hand-off.
func TestReusedWriterFramesMatchFreshWriter(t *testing.T) {
	payloads := [][]byte{
		[]byte(strings.Repeat(`{"key":"v3|sim|fleet=20","ppw":1.25},`, 300)),
		nil,
		bytes.Repeat([]byte{7, 0, 1}, 2*bodyChunk),
		[]byte("x"),
		[]byte(strings.Repeat(`{"key":"v3|sim|fleet=20","ppw":1.25},`, 300)),
	}
	want := make([][]byte, len(payloads))
	for i, p := range payloads {
		want[i] = freshFrame(t, p)
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i, p := range payloads {
					var buf bytes.Buffer
					if _, err := WriteFrame(&buf, p); err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(buf.Bytes(), want[i]) {
						t.Errorf("round %d payload %d: reused-writer frame (%d B) differs from a fresh writer's (%d B)", round, i, buf.Len(), len(want[i]))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// A reader whose last frame was corrupt inflates the next good frame
// correctly: Reset clears the failed stream's state. Several goroutines
// share the reader pool, so under -race this also checks that no reader state
// leaks between concurrent frames.
func TestReusedReaderRecoversAfterCorruptFrame(t *testing.T) {
	good := []byte(strings.Repeat(`{"history":[1,2,3]}`, 200))
	var frame bytes.Buffer
	if _, err := WriteFrame(&frame, good); err != nil {
		t.Fatal(err)
	}
	// Same length prefix, body bytes flipped mid-stream.
	corrupt := append([]byte(nil), frame.Bytes()...)
	for i := headerLen + 2; i < len(corrupt); i += 3 {
		corrupt[i] ^= 0x5A
	}
	// A stream cut short inside the deflate data.
	short := append([]byte(nil), frame.Bytes()[:headerLen+(frame.Len()-headerLen)/2]...)
	binary.BigEndian.PutUint32(short[:headerLen], uint32(len(short)-headerLen))

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, bad := range [][]byte{corrupt, short} {
					if _, _, err := ReadFrame(bytes.NewReader(bad), 1); err == nil {
						t.Error("corrupt frame decoded")
						return
					}
				}
				got, _, err := ReadFrame(bytes.NewReader(frame.Bytes()), 2)
				if err != nil || !bytes.Equal(got, good) {
					t.Errorf("good frame after a corrupt one: %d bytes, %v", len(got), err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
