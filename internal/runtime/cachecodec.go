package runtime

import (
	"bytes"
	"container/list"
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"time"

	"fedgpo/internal/runtime/wire"
	"fedgpo/internal/telemetry"
)

// cacheMagic opens every binary cache entry. The format generation is
// baked into the magic — a layout change bumps the digit and old
// readers treat new files as foreign (a miss), never as garbage that
// parses. FGC1 entries carried every payload as JSON; FGC2 carries a
// Result through the binary Result codec (resultcodec.go).
const cacheMagic = "FGC2"

// staleEnvelope reports whether b is an entry of an older cache
// generation — a cell some earlier build cached, to be re-simulated
// and overwritten like any miss, not counted as corruption.
func staleEnvelope(b []byte) bool {
	return len(b) >= len(cacheMagic) && string(b[:3]) == cacheMagic[:3] &&
		b[3] >= '1' && b[3] < cacheMagic[3]
}

// binExt names on-disk cache entries. Any other file in the directory
// — an orphaned put-* temp file aside — is ignored by reads and Prune.
const binExt = ".binz"

// maxCacheKeyLen bounds the clear-text key header of a binary entry,
// so a corrupt length prefix can never drive a large allocation. Real
// canonical keys are well under 4 KiB even for matrix-generated
// scenario specs.
const maxCacheKeyLen = 1 << 20

// encodeBinaryEnvelope renders one binary cache entry:
//
//	"FGC2" | uvarint(len(key)) | key bytes | wire frame(payload)
//
// The canonical key stays uncompressed so a reader can reject a
// foreign entry (hash collision, copied file) before inflating a
// single payload byte, and so on-disk entries remain greppable by key.
// The payload rides one wire-package frame — the same bounded,
// DEFLATE-compressed length-prefixed framing the transport plane uses.
func encodeBinaryEnvelope(key string, payload []byte) ([]byte, error) {
	if len(key) == 0 || len(key) > maxCacheKeyLen {
		return nil, fmt.Errorf("runtime: cache envelope key length %d outside (0, %d]", len(key), maxCacheKeyLen)
	}
	var buf bytes.Buffer
	buf.Grow(len(cacheMagic) + binary.MaxVarintLen64 + len(key) + len(payload)/2)
	buf.WriteString(cacheMagic)
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(key)))
	buf.Write(tmp[:n])
	buf.WriteString(key)
	if _, err := wire.WriteFrame(&buf, payload); err != nil {
		return nil, fmt.Errorf("runtime: cache envelope: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeBinaryEnvelope parses a binary cache entry and returns its
// payload when the envelope is well formed and carries wantKey.
// Anything else — wrong magic, truncation at any offset, a foreign
// key, a corrupt frame — reports ok == false: a cache read degrades to
// a miss, never an error. The key comparison happens before the
// payload frame is inflated, so foreign entries cost a header read.
func decodeBinaryEnvelope(b []byte, wantKey string) (payload []byte, ok bool) {
	if len(b) < len(cacheMagic) || string(b[:len(cacheMagic)]) != cacheMagic {
		return nil, false
	}
	b = b[len(cacheMagic):]
	keyLen, n := binary.Uvarint(b)
	if n <= 0 || keyLen == 0 || keyLen > maxCacheKeyLen || uint64(len(b)-n) < keyLen {
		return nil, false
	}
	key := b[n : n+int(keyLen)]
	if string(key) != wantKey {
		return nil, false
	}
	body := bytes.NewReader(b[n+int(keyLen):])
	payload, _, err := wire.ReadFrame(body, 1)
	if err != nil || body.Len() != 0 {
		// Trailing bytes after the payload frame mean the file is not an
		// envelope this writer produced; treat it as corrupt.
		return nil, false
	}
	return payload, true
}

// CacheBytesPerCell measures what one cached result costs on disk as a
// binary envelope, averaged over the given results — the bench meter
// behind the cache_bytes_per_cell trajectory metric.
func CacheBytesPerCell(results []Result) (float64, error) {
	if len(results) == 0 {
		return 0, nil
	}
	total := 0
	for _, r := range results {
		payload, err := encodeResult(&r)
		if err != nil {
			return 0, err
		}
		bin, err := encodeBinaryEnvelope(r.Key, payload)
		if err != nil {
			return 0, err
		}
		total += len(bin)
	}
	return float64(total) / float64(len(results)), nil
}

// payloadLRU is the in-process decoded-payload layer: a byte-capped
// LRU over the payload bytes of disk hits, so cells touched repeatedly
// within one run (pretrain snapshots, ForceRun trace re-runs,
// multi-figure sweeps sharing cells) read and inflate their envelope
// once. It caches payloads of hits only — never write-through — so a
// corrupted disk entry is still discovered by the next fresh read path
// and in-memory copies never outlive an explicit drop (Prune removes
// evicted hashes from the layer too). Methods are not locked; Cache
// serializes access under its own payload mutex.
type payloadLRU struct {
	max  int64
	size int64
	ll   list.List                // front = most recently used
	idx  map[string]*list.Element // hash -> element
}

// payloadEntry is one cached decoded payload.
type payloadEntry struct {
	hash    string
	payload []byte
}

func newPayloadLRU(maxBytes int64) *payloadLRU {
	return &payloadLRU{max: maxBytes, idx: make(map[string]*list.Element)}
}

// get returns the payload bytes cached for hash, refreshing its LRU
// position. Callers must not mutate the returned slice.
func (p *payloadLRU) get(hash string) ([]byte, bool) {
	el, ok := p.idx[hash]
	if !ok {
		return nil, false
	}
	p.ll.MoveToFront(el)
	return el.Value.(*payloadEntry).payload, true
}

// put caches payload under hash, evicting least-recently-used entries
// until the layer fits its byte cap. A payload larger than the whole
// cap is not cached at all.
func (p *payloadLRU) put(hash string, payload []byte) {
	if p.max <= 0 || int64(len(payload)) > p.max {
		return
	}
	if el, ok := p.idx[hash]; ok {
		e := el.Value.(*payloadEntry)
		p.size += int64(len(payload)) - int64(len(e.payload))
		e.payload = payload
		p.ll.MoveToFront(el)
	} else {
		p.idx[hash] = p.ll.PushFront(&payloadEntry{hash: hash, payload: payload})
		p.size += int64(len(payload))
	}
	for p.size > p.max {
		el := p.ll.Back()
		if el == nil {
			break
		}
		p.remove(el)
	}
}

// drop evicts hash from the layer (no-op when absent).
func (p *payloadLRU) drop(hash string) {
	if el, ok := p.idx[hash]; ok {
		p.remove(el)
	}
}

func (p *payloadLRU) remove(el *list.Element) {
	e := el.Value.(*payloadEntry)
	p.ll.Remove(el)
	delete(p.idx, e.hash)
	p.size -= int64(len(e.payload))
}

// touchFlushThreshold is the pending-touch count past which the cache
// flushes asynchronously instead of waiting for executor shutdown, so
// a long-lived worker's LRU mtimes stay bounded-stale.
const touchFlushThreshold = 512

// toucher coalesces mtime touches off the cache hit path: hits queue
// their entry's hash, duplicate queues within one flush window collapse
// to a single syscall, and the pending set drains either asynchronously
// past a threshold or synchronously at executor shutdown / Prune. Losing
// queued touches (process kill) only skews future LRU eviction order —
// the same best-effort contract the old inline Chtimes had.
type toucher struct {
	mu      sync.Mutex
	pending map[string]struct{}
}

// queue marks hash as touched, reporting whether an identical touch
// was already pending (coalesced).
func (t *toucher) queue(hash string) (coalesced bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pending == nil {
		t.pending = make(map[string]struct{})
	}
	if _, ok := t.pending[hash]; ok {
		return true
	}
	t.pending[hash] = struct{}{}
	return false
}

// drain takes the pending set, leaving the toucher empty.
func (t *toucher) drain() map[string]struct{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.pending
	t.pending = nil
	return p
}

// pendingLen reports the current pending-touch count.
func (t *toucher) pendingLen() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.pending)
}

// flushTouches applies every pending mtime touch now and returns the
// number of entries touched. Files removed since the touch was queued
// are skipped silently.
func (c *Cache) flushTouches() int {
	pending := c.touch.drain()
	if len(pending) == 0 {
		return 0
	}
	now := time.Now()
	touched := 0
	for hash := range pending {
		if os.Chtimes(c.path(hash), now, now) == nil {
			touched++
		}
	}
	c.col.Count(func(cc *telemetry.Counters) { cc.CacheTouches += int64(touched) })
	return touched
}
