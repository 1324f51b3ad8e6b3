package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fedgpo/internal/runtime"
	"fedgpo/internal/telemetry"
)

// span is one timed interval of a traced pass, recorded around a call
// into the program's public API. Times are nanoseconds since the
// tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Class is the experiment id of an "exp" span and the contender
	// class of a "cell" or "worker.exec" span.
	Class string `json:"class,omitempty"`
	Start int64  `json:"start"`
	End   int64  `json:"end"`
	// Cell spans carry the result's own accounting: Plan+Observe time,
	// pretrain phase time and rounds executed.
	CtrlS     float64 `json:"ctrl_s,omitempty"`
	PretrainS float64 `json:"pretrain_s,omitempty"`
	Rounds    int     `json:"rounds,omitempty"`
}

func (s *span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps a traced pass's spans in memory until the pass ends.
// A nil tracer records nothing, so untraced passes share the code.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	// curExp / curBatch are the running experiment's and backend
	// batch's span ids: experiments run one at a time and each submits
	// its batches one after another, so they parent the spans below.
	curExp   atomic.Int64
	curBatch atomic.Int64
	// cells counts the jobs that reached the backend.
	cells atomic.Int64
	mu    sync.Mutex
	spans []*span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name, class string, parent int64) *span {
	if t == nil {
		return nil
	}
	return &span{ID: t.nextID.Add(1), Parent: parent, Name: name, Class: class,
		Start: int64(time.Since(t.t0))}
}

func (t *tracer) beginExp(id string) *span {
	if t == nil {
		return nil
	}
	s := t.begin("exp", id, 0)
	t.curExp.Store(s.ID)
	return s
}

// batch returns the running backend batch's span id.
func (t *tracer) batch() int64 {
	if t == nil {
		return 0
	}
	return t.curBatch.Load()
}

func (t *tracer) end(s *span) {
	if t == nil {
		return
	}
	s.End = int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// endCell closes a cell span with the result's own accounting.
func (t *tracer) endCell(s *span, r runtime.Result) {
	if t == nil {
		return
	}
	s.CtrlS = controllerSec(r.Sim)
	s.Rounds = r.Sim.RoundsExecuted
	if r.Telemetry != nil {
		s.PretrainS = r.Telemetry.Phases[telemetry.PhasePretrain].Seconds
	}
	t.end(s)
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// timedBackend wraps the execution backend handed to
// exp.NewRuntimeWithBackend: one "backend" span per batch and, for
// backends that call Job.Run in this process, one "cell" span per job.
// The coordinator and its endpoints see the wrapped backend's
// collector, cache and endpoint counters exactly as they would the
// bare one.
type timedBackend struct {
	inner runtime.Backend
	tr    *tracer
}

func (t *tracer) wrapBackend(b runtime.Backend) *timedBackend {
	return &timedBackend{inner: b, tr: t}
}

func (b *timedBackend) Workers() int { return b.inner.Workers() }

func (b *timedBackend) Run(jobs []runtime.Job, done func(int, runtime.Result)) []runtime.Result {
	batch := b.tr.begin("backend", "", b.tr.curExp.Load())
	b.tr.curBatch.Store(batch.ID)
	b.tr.cells.Add(int64(len(jobs)))
	wrapped := make([]runtime.Job, len(jobs))
	for i, j := range jobs {
		run, class := j.Run, cellClass(j)
		j.Run = func() runtime.Result {
			s := b.tr.begin("cell", class, batch.ID)
			r := run()
			b.tr.endCell(s, r)
			return r
		}
		wrapped[i] = j
	}
	out := b.inner.Run(wrapped, done)
	b.tr.end(batch)
	return out
}

func (b *timedBackend) SetCollector(col *telemetry.Collector) {
	if c, ok := b.inner.(interface {
		SetCollector(*telemetry.Collector)
	}); ok {
		c.SetCollector(col)
	}
}

func (b *timedBackend) SetCache(cache *runtime.Cache) {
	if c, ok := b.inner.(interface{ SetCache(*runtime.Cache) }); ok {
		c.SetCache(cache)
	}
}

func (b *timedBackend) EndpointStats() []runtime.EndpointStats {
	if es, ok := b.inner.(runtime.EndpointStatser); ok {
		return es.EndpointStats()
	}
	return nil
}

// cacheProbe holds the direct runtime.Cache timings of a traced pass.
type cacheProbe struct {
	getUS, putUS  []float64
	bytesPerEntry float64
}

// probeCache times runtime.Cache directly on this pass's results:
// every result is read from the pass's cache and Put into a fresh
// on-disk cache under dir, then every key is read back through a
// second fresh cache on the same directory, so each Get is a disk hit
// (envelope read, inflate, unmarshal) whatever the workload's own
// cache mode.
func probeCache(tr *tracer, cache *runtime.Cache, keys []string, dir string) (cacheProbe, error) {
	var p cacheProbe
	put, err := runtime.NewCache(dir)
	if err != nil {
		return p, err
	}
	for _, k := range keys {
		var r runtime.Result
		if !cache.Get(k, &r) {
			continue
		}
		s := tr.begin("cache.put", "", 0)
		err := put.Put(k, r)
		tr.end(s)
		if err != nil {
			return p, err
		}
		p.putUS = append(p.putUS, s.seconds()*1e6)
	}
	get, err := runtime.NewCache(dir)
	if err != nil {
		return p, err
	}
	for _, k := range keys {
		var r runtime.Result
		s := tr.begin("cache.get", "", 0)
		ok := get.Get(k, &r)
		tr.end(s)
		if ok {
			p.getUS = append(p.getUS, s.seconds()*1e6)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return p, err
	}
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
	}
	if len(entries) > 0 {
		p.bytesPerEntry = float64(total) / float64(len(entries))
	}
	return p, nil
}

// layerInputs are the runtime-side counters a traced pass folds in
// next to its spans.
type layerInputs struct {
	metrics  telemetry.Metrics
	stats    runtime.Stats
	workers  int
	fleet    bool
	pretrain int64
	probes   cacheProbe
	allocMB  float64
	gcs      uint32
}

// cellClasses are the contender classes of the cell.* and ctrl.*
// metrics, always all reported.
var cellClasses = []string{"static", "fedgpo-warm", "fedgpo-cold", "bo", "ga", "fedex", "abs", "probe"}

// layers reduces the spans and counters of a traced pass to the
// per-layer metrics. A layer a workload bypasses reads 0.
func (t *tracer) layers(in layerInputs) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := map[string]float64{}
	var expS, batchS, cellS, ctrlS, pretrainS, execS, decodeS float64
	var rounds int
	for _, c := range cellClasses {
		m["cell."+c+"_s"] = 0
		m["ctrl."+c+"_s"] = 0
	}
	for _, s := range t.spans {
		switch s.Name {
		case "exp":
			m["exp."+s.Class+"_s"] = s.seconds()
			expS += s.seconds()
		case "backend":
			batchS += s.seconds()
		case "cell", "worker.exec":
			m["cell."+s.Class+"_s"] += s.seconds()
			m["ctrl."+s.Class+"_s"] += s.CtrlS
			cellS += s.seconds()
			ctrlS += s.CtrlS
			pretrainS += s.PretrainS
			rounds += s.Rounds
			if s.Name == "worker.exec" {
				execS += s.seconds()
			}
		case "worker.decode":
			decodeS += s.seconds()
		}
	}
	m["exp.self_s"] = expS - batchS

	m["core.pretrain_s"] = pretrainS
	m["core.pretrain_runs"] = float64(in.pretrain)
	m["fl.kernel_s"] = cellS - pretrainS - ctrlS
	m["fl.rounds"] = float64(rounds)
	m["fl.ns_per_round"] = 0
	if rounds > 0 {
		m["fl.ns_per_round"] = m["fl.kernel_s"] * 1e9 / float64(rounds)
	}

	m["runtime.pool.busy_s"] = batchS
	m["runtime.pool.cells"] = float64(t.cells.Load())
	m["runtime.pool.idle_frac"] = 0
	m["runtime.coord.idle_frac"] = 0
	if batchS > 0 {
		capacity := batchS * float64(in.workers)
		m["runtime.pool.idle_frac"] = 1 - cellS/capacity
		if in.fleet {
			m["runtime.coord.idle_frac"] = 1 - execS/capacity
		}
	}

	c := in.metrics.Counters
	m["runtime.cache.hits_mem"] = float64(c.CacheMemHits)
	m["runtime.cache.hits_disk"] = float64(c.CacheDiskHits)
	m["runtime.cache.hits_payload"] = float64(c.CachePayloadHits)
	m["runtime.cache.misses"] = float64(c.CacheMisses)
	m["runtime.cache.corrupt"] = float64(c.CacheCorrupt)
	m["runtime.cache.writes"] = float64(in.metrics.Phases[telemetry.PhaseCacheWrite].Count)
	m["runtime.cache.get_p50_us"] = quantile(in.probes.getUS, 0.5)
	m["runtime.cache.get_p90_us"] = quantile(in.probes.getUS, 0.9)
	m["runtime.cache.put_p50_us"] = quantile(in.probes.putUS, 0.5)
	m["runtime.cache.bytes_per_entry"] = in.probes.bytesPerEntry

	var sent, recv, frames, specs, snaps, hits, misses, stolen int64
	for _, ep := range in.stats.Endpoints {
		sent += ep.BytesSent
		recv += ep.BytesRecv
		frames += ep.Frames
		specs += ep.Specs
		snaps += ep.SnapBytesSent
		hits += ep.AffinityHits
		misses += ep.AffinityMisses
		stolen += ep.Stolen
	}
	m["runtime.wire.bytes_sent"] = float64(sent)
	m["runtime.wire.bytes_recv"] = float64(recv)
	m["runtime.wire.frames"] = float64(frames)
	m["runtime.wire.specs_per_frame"] = 0
	if frames > 0 {
		m["runtime.wire.specs_per_frame"] = float64(specs) / float64(frames)
	}
	m["runtime.wire.snapshot_bytes"] = float64(snaps)
	m["runtime.wire.affinity_hits"] = float64(hits)
	m["runtime.wire.affinity_misses"] = float64(misses)
	m["runtime.wire.stolen"] = float64(stolen)
	m["runtime.wire.retries"] = float64(c.Retries)
	m["runtime.wire.failovers"] = float64(c.Failovers)
	m["worker.exec_s"] = execS
	m["worker.decode_s"] = decodeS

	m["go.alloc_mb"] = in.allocMB
	m["go.gc_count"] = float64(in.gcs)
	return m
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
