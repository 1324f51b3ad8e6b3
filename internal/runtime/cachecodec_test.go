package runtime

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"fedgpo/internal/fl"
	"fedgpo/internal/telemetry"
)

func TestBinaryEnvelopeRoundTrip(t *testing.T) {
	key := "v3|sim|scenario|ctrl|seed=9"
	payload := []byte(`{"key":"v3|sim|scenario|ctrl|seed=9","sim":{"ppw":1.25}}`)
	b, err := encodeBinaryEnvelope(key, payload)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := decodeBinaryEnvelope(b, key)
	if !ok {
		t.Fatal("well-formed envelope did not decode")
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("payload mutated: %q", got)
	}
	// The clear-text key must be visible in the raw file bytes — that is
	// what keeps cache directories greppable by canonical key.
	if !bytes.Contains(b, []byte(key)) {
		t.Error("canonical key not stored in clear text")
	}
	if _, ok := decodeBinaryEnvelope(b, "v3|sim|other|ctrl|seed=9"); ok {
		t.Error("foreign key must not decode")
	}
	// Every truncation is a clean rejection, whichever field it lands in.
	for n := 0; n < len(b); n++ {
		if _, ok := decodeBinaryEnvelope(b[:n], key); ok {
			t.Fatalf("truncation at %d/%d decoded", n, len(b))
		}
	}
	// Trailing garbage means the file is not one of ours.
	if _, ok := decodeBinaryEnvelope(append(append([]byte{}, b...), 0xFF), key); ok {
		t.Error("envelope with trailing bytes decoded")
	}
	if _, err := encodeBinaryEnvelope("", payload); err == nil {
		t.Error("empty key must not encode")
	}
}

// The envelope reader's contract is total: any byte string either
// decodes to the payload stored under the wanted key or reports a
// miss — never a panic, whatever the corruption.
func FuzzDecodeBinaryEnvelope(f *testing.F) {
	key := "v3|sim|scenario-3|static/(8,10,20)|seed=3"
	valid, err := encodeBinaryEnvelope(key, []byte(`{"sim":{"ppw":4.5,"converged":true}}`))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("FGC1"))
	f.Add([]byte("FGC1\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Add([]byte(`{"key":"` + key + `","payload":{}}`)) // legacy JSON bytes
	foreign, _ := encodeBinaryEnvelope("other", []byte(`{}`))
	f.Add(foreign)
	f.Fuzz(func(t *testing.T, b []byte) {
		// The only guarantees: never panic, and anything that decodes is a
		// structurally valid envelope for the wanted key — re-encoding its
		// payload round-trips. (Payload JSON validity is the unmarshal
		// layer's job; Cache.get classifies that failure as corrupt.)
		payload, ok := decodeBinaryEnvelope(b, key)
		if !ok {
			return
		}
		re, err := encodeBinaryEnvelope(key, payload)
		if err != nil {
			t.Fatalf("decoded payload does not re-encode: %v", err)
		}
		back, ok := decodeBinaryEnvelope(re, key)
		if !ok || !bytes.Equal(back, payload) {
			t.Errorf("payload does not round-trip: %q vs %q", back, payload)
		}
	})
}

// Arbitrary bytes in a .binz file must degrade to a cache miss through
// the full Get path: the cell re-runs, the run never errors.
func TestCacheGetSurvivesArbitraryEnvelopeBytes(t *testing.T) {
	key := "fuzzlike|cell"
	hash := HashKey(key)
	for _, raw := range [][]byte{
		{},
		[]byte("FGC1"),
		[]byte("FGC1\x05ab"),
		[]byte("FGC2\x03abc\x00\x00\x00\x01x"),
		bytes.Repeat([]byte{0xAA}, 512),
	} {
		dir := t.TempDir()
		cache, err := NewCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, hash+binExt), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		var got Result
		if cache.Get(key, &got) {
			t.Errorf("bytes %q served a hit", raw)
		}
	}
}

// AppendKey + HashKeyBytes + ShardOfHashed are the executor's per-job
// key resolution; once the shared buffer has grown they must not
// allocate at all — the zero-alloc guard behind the bench's
// key_allocs_per_op metric.
func TestKeyResolutionZeroAllocs(t *testing.T) {
	job := Job{Kind: "sim", Scenario: "scenario-3", Controller: "static/(8,10,20)", Seed: 3}
	buf := make([]byte, 0, 256)
	var shard int
	allocs := testing.AllocsPerRun(100, func() {
		buf = job.AppendKey(buf[:0])
		sum := HashKeyBytes(buf)
		shard = ShardOfHashed(sum, 8)
	})
	if allocs != 0 {
		t.Errorf("key resolution allocates %.1f objects per op, want 0", allocs)
	}
	_ = shard
}

// legacyJSONEnvelope renders the <hash>.json entry format older builds
// wrote: the canonical key beside the payload in one JSON object.
func legacyJSONEnvelope(t *testing.T, key string, payload []byte) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Key     string          `json:"key"`
		Payload json.RawMessage `json:"payload"`
	}{key, payload})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// A legacy <hash>.json entry left by an older build is not a cache
// entry: a rerun over such a directory counts clean misses (not
// corrupt reads), re-simulates every cell into fresh .binz entries,
// and leaves the old files alone.
func TestLegacyJSONCacheEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	jobs := make([]Job, 4)
	for i := range jobs {
		i := i
		jobs[i] = Job{Kind: "sim", Scenario: fmt.Sprintf("legacy-%d", i), Seed: int64(i), Run: func() Result {
			runs.Add(1)
			return Result{Sim: fl.Result{PPW: float64(i) + 0.5}}
		}}
	}
	if NewExecutor(2, cache).RunAll(jobs); runs.Load() != int64(len(jobs)) {
		t.Fatalf("cold run executed %d cells, want %d", runs.Load(), len(jobs))
	}
	// Rewrite every entry in the legacy JSON envelope format.
	for _, j := range jobs {
		hash := j.Hash()
		b, err := os.ReadFile(filepath.Join(dir, hash+binExt))
		if err != nil {
			t.Fatal(err)
		}
		payload, ok := decodeBinaryEnvelope(b, j.Key())
		if !ok {
			t.Fatal("cold entry did not decode")
		}
		if err := os.WriteFile(filepath.Join(dir, hash+".json"), legacyJSONEnvelope(t, j.Key(), payload), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(dir, hash+binExt)); err != nil {
			t.Fatal(err)
		}
	}

	rerunCache, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.NewCollector()
	rerunCache.SetCollector(col)
	results := NewExecutor(2, rerunCache).RunAll(jobs)
	if runs.Load() != 2*int64(len(jobs)) {
		t.Errorf("rerun executed %d cells, want all %d re-simulated", runs.Load()-int64(len(jobs)), len(jobs))
	}
	for i, r := range results {
		if r.Cached || r.Sim.PPW != float64(i)+0.5 {
			t.Errorf("result %d = %+v, want a fresh simulation", i, r)
		}
	}
	c := col.Snapshot().Counters
	if c.CacheMisses != int64(len(jobs)) || c.CacheDiskHits != 0 || c.CacheCorrupt != 0 {
		t.Errorf("rerun counters = %d misses / %d disk hits / %d corrupt, want %d/0/0",
			c.CacheMisses, c.CacheDiskHits, c.CacheCorrupt, len(jobs))
	}
	for _, j := range jobs {
		hash := j.Hash()
		if _, err := os.Stat(filepath.Join(dir, hash+binExt)); err != nil {
			t.Errorf("entry %s not rewritten as .binz: %v", hash[:8], err)
		}
		if _, err := os.Stat(filepath.Join(dir, hash+".json")); err != nil {
			t.Errorf("legacy file %s touched: %v", hash[:8], err)
		}
	}
}

// Prune's byte budget covers .binz entries only: a legacy .json file
// in a directory written by an older build is neither counted against
// the budget nor evicted, so binary entries are pruned exactly as if
// it were absent.
func TestCachePruneMixedFormats(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Three binary entries, oldest first, padded to a common size so the
	// budget arithmetic is exact.
	pad := bytes.Repeat([]byte("x"), 2048)
	keys := make([]string, 3)
	paths := make([]string, 3)
	var entrySize int64
	for i := range keys {
		keys[i] = fmt.Sprintf("mixed|cell-%d", i)
		hash := HashKey(keys[i])
		if err := cache.PutHashed(keys[i], hash, Result{Key: keys[i], Sim: fl.Result{PPW: float64(i)}, Err: string(pad)}); err != nil {
			t.Fatal(err)
		}
		paths[i] = filepath.Join(dir, hash+binExt)
		info, err := os.Stat(paths[i])
		if err != nil {
			t.Fatal(err)
		}
		entrySize = info.Size()
		mt := time.Now().Add(time.Duration(i-len(keys)) * time.Hour)
		if err := os.Chtimes(paths[i], mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	// The legacy file is the oldest and largest file in the directory.
	legacy := filepath.Join(dir, HashKey("mixed|legacy")+".json")
	if err := os.WriteFile(legacy, legacyJSONEnvelope(t, "mixed|legacy", bytes.Repeat([]byte("1"), 8192)), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-24 * time.Hour)
	if err := os.Chtimes(legacy, old, old); err != nil {
		t.Fatal(err)
	}

	// Budget for exactly the two newest binary entries.
	removed, err := cache.Prune(2 * entrySize)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Errorf("pruned %d entries, want 1", removed)
	}
	for i, wantAlive := range []bool{false, true, true} {
		_, err := os.Stat(paths[i])
		if alive := err == nil; alive != wantAlive {
			t.Errorf("entry %d alive=%v, want %v", i, alive, wantAlive)
		}
	}
	if _, err := os.Stat(legacy); err != nil {
		t.Errorf("legacy .json file evicted: %v", err)
	}
}

// A disk hit's payload bytes are retained by the decoded-payload
// layer, so re-reading a cell within one process never re-reads the
// file; Prune drops evicted hashes from the layer so an evicted entry
// cannot be served from memory.
func TestPayloadLayerServesRereadsAndHonorsPrune(t *testing.T) {
	dir := t.TempDir()
	writer, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := "payload|cell"
	if err := writer.Put(key, Result{Key: key, Sim: fl.Result{PPW: 7.5}}); err != nil {
		t.Fatal(err)
	}

	reader, _ := NewCache(dir)
	col := telemetry.NewCollector()
	reader.SetCollector(col)
	var got Result
	if !reader.Get(key, &got) || got.Sim.PPW != 7.5 {
		t.Fatalf("first read should hit from disk: %+v", got)
	}
	// Remove the file out from under the cache: the payload layer must
	// still serve the re-read.
	if err := os.Remove(filepath.Join(dir, HashKey(key)+binExt)); err != nil {
		t.Fatal(err)
	}
	got = Result{}
	if !reader.Get(key, &got) || got.Sim.PPW != 7.5 {
		t.Fatalf("re-read should hit from the payload layer: %+v", got)
	}
	c := col.Snapshot().Counters
	if c.CacheDiskHits != 1 || c.CachePayloadHits != 1 {
		t.Errorf("counters = %d disk / %d payload hits, want 1/1", c.CacheDiskHits, c.CachePayloadHits)
	}

	// With the layer disabled every read goes to disk — and the removed
	// file is now an honest miss.
	reader.SetPayloadCacheBytes(0)
	if reader.Get(key, &got) {
		t.Error("disabled payload layer must not serve the removed entry")
	}

	// Prune must drop evicted hashes from the layer: re-create, read
	// (admitting to the layer), then evict everything.
	reader2, _ := NewCache(dir)
	if err := writer.Put(key, Result{Key: key, Sim: fl.Result{PPW: 7.5}}); err != nil {
		t.Fatal(err)
	}
	if !reader2.Get(key, &got) {
		t.Fatal("re-created entry should hit")
	}
	if _, err := reader2.Prune(1); err != nil {
		t.Fatal(err)
	}
	if reader2.Get(key, &got) {
		t.Error("pruned entry served from the payload layer")
	}
}

// Hits queue their LRU mtime touch instead of paying the syscall
// inline; duplicates coalesce, and FlushTouches applies the pending
// set so Prune-visible mtimes reflect every recorded use.
func TestTouchCoalescingAndFlush(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := "touch|cell"
	hash := HashKey(key)
	if err := cache.Put(key, Result{Key: key, Sim: fl.Result{PPW: 1}}); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-24 * time.Hour)
	if err := os.Chtimes(cache.path(hash), old, old); err != nil {
		t.Fatal(err)
	}
	col := telemetry.NewCollector()
	cache.SetCollector(col)
	var got Result
	for i := 0; i < 3; i++ {
		if !cache.Get(key, &got) {
			t.Fatal("entry should hit")
		}
	}
	// The touch is deferred: mtime unchanged until the flush.
	info, err := os.Stat(cache.path(hash))
	if err != nil {
		t.Fatal(err)
	}
	if !info.ModTime().Equal(old) {
		t.Errorf("mtime moved before flush: %v", info.ModTime())
	}
	if n := cache.FlushTouches(); n != 1 {
		t.Errorf("flushed %d touches, want 1 (coalesced)", n)
	}
	info, err = os.Stat(cache.path(hash))
	if err != nil {
		t.Fatal(err)
	}
	if !info.ModTime().After(old) {
		t.Error("mtime not refreshed by flush")
	}
	c := col.Snapshot().Counters
	if c.CacheTouches != 1 || c.CacheTouchesCoalesced != 2 {
		t.Errorf("touch counters = %d flushed / %d coalesced, want 1/2", c.CacheTouches, c.CacheTouchesCoalesced)
	}
	// Nothing pending: a second flush is a no-op.
	if n := cache.FlushTouches(); n != 0 {
		t.Errorf("idle flush touched %d entries, want 0", n)
	}
}

// The binary envelope must actually be smaller than the result's own
// JSON payload on representative round histories — the compression
// the cache_bytes_per_cell ceiling relies on.
func TestBinaryEnvelopeSmallerThanJSON(t *testing.T) {
	history := make([]fl.RoundRecord, 200)
	for i := range history {
		history[i] = fl.RoundRecord{
			Round: i + 1, Accuracy: 0.5 + float64(i)/1000,
			RoundSeconds: 12.5, EnergyJ: 480.25, PlannedK: 10, AggregatedK: 9,
		}
	}
	res := Result{
		Key: "v3|sim|size-check|static/(8,10,20)|seed=1",
		Sim: fl.Result{PPW: 4.2, Converged: true, History: history},
	}
	payload, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	binBytes, err := CacheBytesPerCell([]Result{res})
	if err != nil {
		t.Fatal(err)
	}
	if binBytes == 0 {
		t.Fatal("size meter returned zero")
	}
	if binBytes >= float64(len(payload)) {
		t.Errorf("binary envelope (%.0f B) not smaller than the payload JSON (%d B)", binBytes, len(payload))
	}
}
