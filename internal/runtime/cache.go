package runtime

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"fedgpo/internal/telemetry"
)

// DefaultPayloadCacheBytes is the byte cap on the decoded-payload
// layer: large enough to hold every snapshot and trace artifact a
// paper-scale sweep re-reads, small enough that a report over a
// multi-gigabyte cache directory never mirrors it into process memory.
const DefaultPayloadCacheBytes = 64 << 20

// lookup source classes, in priority order of the read path.
const (
	srcMiss    = iota // no entry in any layer
	srcMem     = iota // memory-only mode map hit
	srcPayload = iota // decoded-payload layer hit (no disk read)
	srcDisk    = iota // envelope read from disk
	srcCorrupt = iota // a file existed but failed validation; discarded
)

// Cache is the content-addressed run cache. Payloads are encoded by Go
// type: a Result through the binary Result codec, any other value as
// JSON. Without a directory the cache keeps payloads in an in-memory
// map of key-hash to payload bytes; with one, entries live in
// <dir>/<hash>.binz binary envelopes.
// Disk hits pass through a byte-capped decoded-payload LRU so cells
// re-read within one run cost one file read, and LRU mtime touches are
// queued and coalesced off the hit path (flushed at executor shutdown,
// Prune, or asynchronously past a threshold). It is safe for
// concurrent use.
type Cache struct {
	mu  sync.RWMutex
	mem map[string][]byte // hash -> payload bytes (memory-only mode)
	dir string
	col *telemetry.Collector

	payloadMu sync.Mutex
	payloads  *payloadLRU

	touch   toucher
	flushWG sync.WaitGroup // in-flight async touch flushes
}

// SetCollector attaches a telemetry collector recording cache-level
// events: per-read source counters (mem/payload/disk hits, misses,
// corrupt discards), read/decode/write phase time, touch-flush
// activity, and Prune evictions. A nil collector disables recording.
func (c *Cache) SetCollector(col *telemetry.Collector) { c.col = col }

// SetPayloadCacheBytes resizes the decoded-payload layer's byte cap
// (<= 0 disables the layer). The layer is cleared on resize.
func (c *Cache) SetPayloadCacheBytes(maxBytes int64) {
	c.payloadMu.Lock()
	c.payloads = newPayloadLRU(maxBytes)
	c.payloadMu.Unlock()
}

// NewCache returns a cache. dir == "" keeps entries in memory only;
// otherwise entries persist under dir (created if missing).
func NewCache(dir string) (*Cache, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("runtime: cache dir: %w", err)
		}
	}
	return &Cache{
		mem:      make(map[string][]byte),
		dir:      dir,
		payloads: newPayloadLRU(DefaultPayloadCacheBytes),
	}, nil
}

// Dir returns the on-disk directory, or "" for a memory-only cache.
func (c *Cache) Dir() string { return c.dir }

// Get looks the key up and decodes the payload into v on a hit.
func (c *Cache) Get(key string, v any) bool {
	return c.GetHashed(key, HashKey(key), v)
}

// GetHashed is Get for callers that already hold the key's content
// address — a batch executor hashes each canonical key exactly once
// and reuses the digest across its lookup and write-back instead of
// re-running SHA-256 per cache touch. hash must equal HashKey(key).
func (c *Cache) GetHashed(key, hash string, v any) bool {
	start := time.Now()
	src := c.get(key, hash, v)
	c.col.RecordPhase(telemetry.PhaseCacheRead, time.Since(start))
	c.col.Count(func(cc *telemetry.Counters) {
		switch src {
		case srcMem:
			cc.CacheMemHits++
		case srcPayload:
			cc.CachePayloadHits++
		case srcDisk:
			cc.CacheDiskHits++
		case srcCorrupt:
			cc.CacheCorrupt++
		default:
			cc.CacheMisses++
		}
	})
	return src == srcMem || src == srcPayload || src == srcDisk
}

// get is Get's lookup body; the returned source classifies which layer
// served the read (or how it failed). The disk read path is the
// decoded-payload layer, then the binary envelope.
func (c *Cache) get(key, hash string, v any) int {
	if c.dir == "" {
		c.mu.RLock()
		payload, ok := c.mem[hash]
		c.mu.RUnlock()
		if !ok {
			return srcMiss
		}
		if !c.decodeTimed(payload, v) {
			return srcCorrupt
		}
		return srcMem
	}
	c.payloadMu.Lock()
	payload, ok := c.payloads.get(hash)
	c.payloadMu.Unlock()
	if ok {
		if c.decodeTimed(payload, v) {
			c.queueTouch(hash)
			return srcPayload
		}
		// The layer only holds payloads that already decoded once,
		// so this is unreachable short of caller-side type skew; drop the
		// entry and fall through to disk.
		c.payloadMu.Lock()
		c.payloads.drop(hash)
		c.payloadMu.Unlock()
	}
	b, err := os.ReadFile(c.path(hash))
	if err != nil {
		return srcMiss
	}
	// A corrupted or foreign file — truncated, wrong magic, an envelope
	// whose key does not match (hash collision) — is a miss, not an
	// error: the cell just re-runs. An older generation's entry is
	// counted as a plain miss rather than as corruption.
	payload, ok = decodeBinaryEnvelope(b, key)
	if !ok && staleEnvelope(b) {
		return srcMiss
	}
	if !ok || !c.decodeTimed(payload, v) {
		return srcCorrupt
	}
	c.cachePayload(hash, payload)
	c.queueTouch(hash)
	return srcDisk
}

// decodeTimed decodes payload into v under the cacheDecode phase
// timer, so envelope I/O and payload decode are separable in a profile.
func (c *Cache) decodeTimed(payload []byte, v any) bool {
	start := time.Now()
	err := decodePayload(payload, v)
	c.col.RecordPhase(telemetry.PhaseCacheDecode, time.Since(start))
	return err == nil
}

// cachePayload admits a disk hit's payload bytes to the decoded-payload
// layer. Only disk hits are admitted — never Put write-through — so a
// corrupted disk entry is still caught by the next uncached read.
func (c *Cache) cachePayload(hash string, payload []byte) {
	c.payloadMu.Lock()
	c.payloads.put(hash, payload)
	c.payloadMu.Unlock()
}

// queueTouch records that hash's entry was used, deferring the mtime
// write. Past touchFlushThreshold pending entries the queue drains on
// a background goroutine so long-lived workers keep mtimes fresh
// without ever paying the syscall on a hit path.
func (c *Cache) queueTouch(hash string) {
	if c.touch.queue(hash) {
		c.col.Count(func(cc *telemetry.Counters) { cc.CacheTouchesCoalesced++ })
		return
	}
	if c.touch.pendingLen() >= touchFlushThreshold {
		c.flushWG.Add(1)
		go func() {
			defer c.flushWG.Done()
			c.flushTouches()
		}()
	}
}

// FlushTouches applies every queued LRU mtime touch and waits for any
// in-flight background flush, returning how many entries this call
// touched. The executor calls it at Close; Prune calls it before
// scanning so eviction order reflects every recorded use.
func (c *Cache) FlushTouches() int {
	n := c.flushTouches()
	c.flushWG.Wait()
	return n
}

// Prune enforces a byte budget on the on-disk cache: entries are
// removed oldest-mtime-first until the surviving total is at most
// maxBytes, and orphaned put-* temp files (writers killed mid-publish)
// are cleared. Queued touches are flushed first,
// so mtime order is LRU order over every recorded use; removed hashes
// are also dropped from the decoded-payload layer so an evicted entry
// cannot be served from memory. It returns the number of entries
// removed (temp files not counted). Memory-only caches and
// maxBytes <= 0 are no-ops. Call it at startup, before workers share
// the directory — it does not coordinate with concurrent writers
// beyond each removal being atomic.
func (c *Cache) Prune(maxBytes int64) (int, error) {
	if c.dir == "" || maxBytes <= 0 {
		return 0, nil
	}
	c.FlushTouches()
	dirents, err := os.ReadDir(c.dir)
	if err != nil {
		return 0, fmt.Errorf("runtime: cache prune: %w", err)
	}
	type entry struct {
		path  string
		hash  string
		mtime time.Time
		size  int64
	}
	entries := make([]entry, 0, len(dirents))
	for _, de := range dirents {
		if de.IsDir() {
			continue
		}
		// Clear orphaned put-* temp files (a writer killed between
		// CreateTemp and the rename publish — e.g. a worker subprocess
		// cut down mid-Put). They are invisible to Get, so at startup
		// they are pure garbage that would otherwise accumulate outside
		// the byte budget forever.
		if strings.HasPrefix(de.Name(), "put-") {
			_ = os.Remove(filepath.Join(c.dir, de.Name()))
			continue
		}
		if filepath.Ext(de.Name()) != binExt {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue // deleted under us: nothing to evict
		}
		entries = append(entries, entry{
			path:  filepath.Join(c.dir, de.Name()),
			hash:  strings.TrimSuffix(de.Name(), binExt),
			mtime: info.ModTime(),
			size:  info.Size(),
		})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].mtime.After(entries[j].mtime) })
	var total int64
	removed := 0
	for _, e := range entries {
		total += e.size
		if total <= maxBytes {
			continue
		}
		if err := os.Remove(e.path); err == nil || os.IsNotExist(err) {
			removed++
			c.payloadMu.Lock()
			c.payloads.drop(e.hash)
			c.payloadMu.Unlock()
		}
	}
	c.col.Count(func(cc *telemetry.Counters) { cc.Evictions += int64(removed) })
	return removed, nil
}

// Put stores v under the key, in memory or (when configured) on disk.
func (c *Cache) Put(key string, v any) error {
	return c.PutHashed(key, HashKey(key), v)
}

// PutHashed is Put for callers that already hold the key's content
// address; hash must equal HashKey(key). On-disk entries are written
// as binary envelopes.
func (c *Cache) PutHashed(key, hash string, v any) error {
	start := time.Now()
	defer func() { c.col.RecordPhase(telemetry.PhaseCacheWrite, time.Since(start)) }()
	payload, err := encodePayload(v)
	if err != nil {
		return fmt.Errorf("runtime: cache payload: %w", err)
	}
	if c.dir == "" {
		c.mu.Lock()
		c.mem[hash] = payload
		c.mu.Unlock()
		return nil
	}
	// An overwrite invalidates whatever the decoded-payload layer holds
	// for this hash; the next disk hit re-admits the fresh bytes.
	c.payloadMu.Lock()
	c.payloads.drop(hash)
	c.payloadMu.Unlock()
	return c.writeBinary(key, hash, payload)
}

// writeBinary publishes a binary envelope for (key, payload)
// atomically: a concurrent reader sees either nothing or the complete
// entry, never a torn write.
func (c *Cache) writeBinary(key, hash string, payload []byte) error {
	b, err := encodeBinaryEnvelope(key, payload)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.dir, "put-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), c.path(hash))
}

func (c *Cache) path(hash string) string {
	return filepath.Join(c.dir, hash+binExt)
}
