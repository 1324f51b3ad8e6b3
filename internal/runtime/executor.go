package runtime

import (
	"sync"

	"fedgpo/internal/telemetry"
)

// Progress describes one completed job within a batch.
type Progress struct {
	// Done is the number of jobs completed so far in this batch; Total
	// the batch size.
	Done, Total int
	// Key is the completed job's canonical key.
	Key string
	// Cached reports whether the job was served from the run cache.
	Cached bool
	// Failed reports whether the job body panicked.
	Failed bool
}

// Stats is a view of the job-level counters in the executor's
// telemetry collector, taken from one Snapshot so the fields are
// mutually consistent even mid-batch.
type Stats struct {
	// Hits counts jobs served from the run cache — by this executor
	// directly or, under the procs backend, by a worker subprocess
	// reading the shared cache directory (Counters.CacheHits).
	Hits int64
	// Runs counts jobs whose body actually executed: cache misses plus
	// all jobs when no cache is attached (Counters.SimsExecuted).
	Runs int64
	// Errors counts jobs whose body panicked or whose worker shard
	// failed (Counters.JobErrors).
	Errors int64
	// Endpoints holds the per-endpoint dispatch counters when the
	// backend is a shard coordinator sharing the collector (nil for
	// in-process backends).
	Endpoints []EndpointStats
}

// Executor runs job batches: it serves cache hits, hands the misses to
// its execution backend, persists completed results, and keeps
// deterministic result ordering with per-job panic isolation.
type Executor struct {
	backend    Backend
	cache      *Cache
	col        *telemetry.Collector
	progressMu sync.Mutex
	onProgress func(Progress)
}

// NewExecutor returns an executor on the in-process pool backend with
// the given worker count (workers <= 0 selects GOMAXPROCS) and
// optional run cache (nil runs every job).
func NewExecutor(workers int, cache *Cache) *Executor {
	return NewExecutorBackend(NewPoolBackend(workers), cache)
}

// NewExecutorBackend returns an executor on an explicit execution
// backend with an optional run cache (nil runs every job). It counts
// into a fresh telemetry collector, shared with the backend when the
// backend records into one; SetCollector swaps it.
func NewExecutorBackend(backend Backend, cache *Cache) *Executor {
	e := &Executor{backend: backend, cache: cache}
	e.SetCollector(telemetry.NewCollector())
	return e
}

// Workers returns the backend's parallelism.
func (e *Executor) Workers() int { return e.backend.Workers() }

// Cache returns the attached run cache (nil when uncached).
func (e *Executor) Cache() *Cache { return e.cache }

// Backend returns the execution backend.
func (e *Executor) Backend() Backend { return e.backend }

// SetProgress installs a callback fired once per completed job.
// Callbacks are serialized; fn need not be safe for concurrent use.
func (e *Executor) SetProgress(fn func(Progress)) { e.onProgress = fn }

// SetCollector replaces the executor's telemetry collector (col must
// be non-nil) and hands it to the backend when the backend records
// into one (the coordinator's per-endpoint dispatch counters), so one
// collector holds the run's whole account. The executor counts each
// job as a cache hit, an executed sim or an error into it, and folds
// in each result's per-job telemetry — local or carried back over the
// wire.
func (e *Executor) SetCollector(col *telemetry.Collector) {
	e.col = col
	if b, ok := e.backend.(interface{ SetCollector(*telemetry.Collector) }); ok {
		b.SetCollector(col)
	}
}

// Close flushes deferred cache maintenance — today the queued LRU
// mtime touches coalesced off the hit path. It does not shut the
// backend down (backends own their own lifecycle) and the executor
// remains usable afterwards; call it when a run's batches are done so
// eviction order on disk reflects every hit this process served.
func (e *Executor) Close() error {
	if e.cache != nil {
		e.cache.FlushTouches()
	}
	return nil
}

// Stats returns the job-level counters and per-endpoint dispatch
// counters read from one snapshot of the executor's collector.
func (e *Executor) Stats() Stats {
	m := e.col.Snapshot()
	return Stats{
		Hits:      m.Counters.CacheHits,
		Runs:      m.Counters.SimsExecuted,
		Errors:    m.Counters.JobErrors,
		Endpoints: m.Endpoints,
	}
}

// count records one completed result in the collector — a cache hit
// or an executed sim, and an error when it failed — and folds in the
// result's per-job telemetry.
func (e *Executor) count(r Result) {
	e.col.Count(func(c *telemetry.Counters) {
		if r.Cached {
			c.CacheHits++
		} else {
			c.SimsExecuted++
		}
		if r.Err != "" {
			c.JobErrors++
		}
	})
	if r.Telemetry != nil {
		e.col.Add(*r.Telemetry)
	}
}

// RunAll executes the batch and returns results in job order:
// results[i] always belongs to jobs[i], regardless of backend,
// parallelism or scheduling. Cache hits are served without touching
// the backend; a job that fails yields a Result with Err set and the
// remaining jobs are unaffected. Jobs sharing a canonical key run once:
// every later duplicate gets a copy of the first one's result, counted
// as a cache hit, and progress still fires once per job.
func (e *Executor) RunAll(jobs []Job) []Result {
	results := make([]Result, len(jobs))
	if len(jobs) == 0 {
		return results
	}
	completed := 0
	report := func(r Result) {
		if e.onProgress == nil {
			return
		}
		// Done is incremented inside the critical section so events are
		// delivered in monotonically increasing Done order.
		e.progressMu.Lock()
		completed++
		e.onProgress(Progress{
			Done:   completed,
			Total:  len(jobs),
			Key:    r.Key,
			Cached: r.Cached,
			Failed: r.Err != "",
		})
		e.progressMu.Unlock()
	}

	// Resolve each job's canonical key and content address exactly once
	// for the whole batch: the key assembly and SHA-256 digest are on
	// the warm-rerun hot path (every lookup and write-back needs them),
	// and per-touch recomputation was measurable on paper-scale batches.
	// The key is built into one reused buffer and hashed in place
	// (AppendKey + HashKeyBytes allocate nothing once the buffer fits),
	// so the only per-job allocations left are the key and hash strings
	// the cache API retains.
	keys := make([]string, len(jobs))
	hashes := make([]string, len(jobs))
	var keyBuf []byte
	for i := range jobs {
		keyBuf = jobs[i].AppendKey(keyBuf[:0])
		keys[i] = string(keyBuf)
		hashes[i] = HexHash(HashKeyBytes(keyBuf))
	}

	// Collapse duplicate keys: uniq lists one job index per distinct
	// hash (a ForceRun duplicate stands for its group, so the run it
	// asks for still happens), and dups maps that index to the rest.
	uniq := make([]int, 0, len(jobs))
	var dups map[int][]int
	first := make(map[string]int, len(jobs))
	for i := range jobs {
		k, seen := first[hashes[i]]
		if !seen {
			first[hashes[i]] = len(uniq)
			uniq = append(uniq, i)
			continue
		}
		if dups == nil {
			dups = make(map[int][]int)
		}
		if prev := uniq[k]; jobs[i].ForceRun && !jobs[prev].ForceRun {
			uniq[k] = i
			dups[i] = append(dups[prev], prev)
			delete(dups, prev)
			continue
		}
		dups[uniq[k]] = append(dups[uniq[k]], i)
	}
	// finish records the result of the job at index i and hands a copy
	// to each of its duplicates.
	finish := func(i int, r Result) {
		e.count(r)
		report(r)
		for _, d := range dups[i] {
			c := r
			c.Cached, c.Persisted, c.Telemetry, c.Snaps = true, false, nil, nil
			results[d] = c
			e.count(c)
			report(c)
		}
	}

	// Serve cache hits first — checked in parallel (a warm disk-cache
	// rerun is otherwise bottlenecked on serial file reads), reported
	// in job order.
	hits := e.cacheHits(jobs, uniq, keys, hashes)
	missIdx := make([]int, 0, len(uniq))
	for k, i := range uniq {
		if hits[k] != nil {
			results[i] = *hits[k]
			finish(i, results[i])
			continue
		}
		missIdx = append(missIdx, i)
	}
	if len(missIdx) == 0 {
		return results
	}

	miss := make([]Job, len(missIdx))
	for k, i := range missIdx {
		miss[k] = jobs[i]
	}
	out := e.backend.Run(miss, func(k int, r Result) {
		i := missIdx[k]
		if e.cache != nil && r.Err == "" && !r.Persisted {
			// A failed disk write only costs a future re-run. Results a
			// worker already published to the shared cache directory are
			// marked Persisted and skipped — re-serializing every
			// multi-hundred-round history on the coordinator would double
			// the cache-write I/O. With a memory-only cache this Put is
			// what makes a worker's result visible to this process at all.
			_ = e.cache.PutHashed(keys[i], hashes[i], r)
		}
		finish(i, r)
	})
	for k, i := range missIdx {
		results[i] = out[k]
	}
	return results
}

// cacheHits looks the jobs at the batch indices idx up in the run
// cache concurrently and returns the hits parallel to idx (nil = miss
// or no cache). keys and hashes are the batch's precomputed canonical
// keys and content addresses, parallel to jobs. The lookup fan-out
// respects the backend's configured parallelism — a -parallel 1 run
// stays single-threaded through warm batches too, lookups (disk read +
// payload decode) included.
func (e *Executor) cacheHits(jobs []Job, idx []int, keys, hashes []string) []*Result {
	hits := make([]*Result, len(idx))
	if e.cache == nil {
		return hits
	}
	workers := e.backend.Workers()
	if workers > len(idx) {
		workers = len(idx)
	}
	if workers < 1 {
		workers = 1
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				i := idx[k]
				if jobs[i].ForceRun {
					continue
				}
				var cached Result
				if e.cache.GetHashed(keys[i], hashes[i], &cached) && cached.Err == "" {
					cached.Cached = true
					hits[k] = &cached
				}
			}
		}()
	}
	for k := range idx {
		next <- k
	}
	close(next)
	wg.Wait()
	return hits
}
