// Package runtime is the parallel experiment runtime: it executes
// independent simulation cells ("jobs") across a sharded worker pool
// and memoizes completed cells in a content-addressed run cache, so
// that regenerating a report or sweep only simulates cells whose
// configuration actually changed.
//
// # Jobs, canonical keys and spec addressing
//
// A Job names one simulation cell — a (scenario, controller, seed)
// triple plus a Kind tag distinguishing job families that carry
// different payloads ("sim" for plain runs, "sec54" for the overhead
// probe, "oracle" for Table 5's prediction-accuracy probe, ...). The
// naming fields are canonical strings built by the caller from every
// input that influences the cell's outcome: the scenario descriptor
// serializes fleet size, round budget, partition, variance models and
// deadline; the controller descriptor serializes the policy family and
// its full configuration (for configurable controllers, the JSON
// encoding of their config struct). Job.Key joins these fields with a
// version prefix; bump keyVersion whenever result semantics change so
// stale cache entries can never be replayed.
//
// Jobs are spec-addressed: alongside the key fields, Job.Payload
// carries the serialized JobSpec (exp package) the cell was built
// from — a self-contained JSON description (scenario spec, declared
// contender, seed, probe knobs) from which any process derives both
// the same canonical key and the same result. The key fields and the
// payload are two projections of one spec: the executor addresses the
// cache with the former, the procs backend ships the latter across
// the process boundary, and the worker on the far side re-derives the
// key from the decoded spec and refuses mismatches, so a foreign spec
// can never poison a cache entry it does not name.
//
// # Scenario-spec schema
//
// Since v3 the scenario half of a key is itself data-driven: the
// JobSpec's "scenario" block is an exp.ScenarioSpec composing five
// sub-specs, each with its own JSON codec, validation and
// canonical-key contribution:
//
//	{
//	  "name":         "realistic",           // display only, never hashed
//	  "workload":     { ... },               // full workload struct
//	  "fleet":        {"mix": {"high":30,"mid":70,"low":100}, "size": 200},
//	  "partition":    {"kind": "iid" | "dirichlet", "alpha": 0.1, "seed": 42},
//	  "network":      {"kind": "stable" | "unstable",
//	                   "meanMbps": 0, "stdMbps": 0, "floorMbps": 0},
//	  "interference": {"kind": "none" | "web-browsing" | "heavy-game",
//	                   "activeFraction": 0.5},
//	  "deadline":     {"kind": "none" | "fixed" | "auto",
//	                   "seconds": 0, "margin": 1.35, "slackSec": 15},
//	  "maxRounds":    400
//	}
//
// Zero values resolve to the paper defaults (30/70/100 mix at 200
// devices, IID data, stable channel, no co-runner, no deadline, 400
// rounds). The scenario key concatenates each sub-spec's resolved
// parameters —
//
//	<workload>/fleet=H30:M70:L100/rounds=400/part=iid/
//	net=gauss(mean=80,std=8,floor=1,tx=0.8,weak=1.9)/intf=none/deadline=0/agg=30
//
// — so two specs differing in any outcome-relevant field hash to
// distinct cells even when they share a display name, while
// resolved-default equivalences (zero value vs explicit paper
// default) share one cell. The display name is deliberately absent: a
// matrix-generated deployment that happens to equal a paper preset
// reuses the preset's cached cells.
//
// # Execution model and backends
//
// Executor.RunAll serves each batch in two steps: cache hits are
// answered directly (looked up concurrently, reported in job order),
// and the misses are handed to the executor's Backend. Results always
// come back in job order — results[i] belongs to jobs[i] regardless
// of backend, parallelism or scheduling — and a failed job yields a
// Result with Err set while the rest of the batch completes. Progress
// callbacks fire once per completed job (serialized by a mutex) and
// report done/total counts plus whether the cell was served from
// cache. Stats is a view of one snapshot of the executor's telemetry
// collector, so hits/runs/errors are always mutually consistent even
// mid-batch.
//
// Two backends exist:
//
//   - PoolBackend (default): the sharded in-process pool. N workers
//     (default GOMAXPROCS) pull job indices from a shared channel and
//     run the job bodies with per-job panic isolation.
//
//   - Coordinator: the distributed shard coordinator
//     behind the CLIs' -backend=procs and -workers flags. It executes
//     batches across worker endpoints reached through Transports —
//     local subprocess pools, remote TCP worker pools, or both in one
//     fleet — and is itself transport-agnostic: work distribution,
//     in-flight tracking, retry and budget forwarding live above the
//     Transport seam.
//
// # Transports
//
// A Transport dials wire sessions (Conn: Hello/SendBatch/RecvBatch/
// Close) to one worker endpoint:
//
//   - StdioTransport spawns one fedgpo-worker subprocess per session
//     and speaks the protocol over its stdin/stdout; the coordinator
//     runs cfg.Procs concurrent sessions against it. One process per
//     session: a crashed worker fails only its own session, and a
//     retry lands on a fresh process.
//
//   - TCPTransport connects to a long-lived remote pool started with
//     `fedgpo-worker -listen host:port` (one wire session per TCP
//     connection). The coordinator learns how many sessions to open
//     from the capacity the pool's hello advertises, and the pool
//     drains gracefully on SIGTERM: in-flight jobs finish and deliver
//     their responses before the process exits.
//
// # Wire protocol
//
// Coordinator and worker build from one module and always ship
// together, so there is exactly one protocol (ProtoVersion, 7) and no
// negotiation. Every message in both directions is one frame of the
// wire package's binary framing: a 4-byte big-endian length prefix
// followed by that many bytes of DEFLATE-compressed JSON, bounded on
// both axes (wire.MaxFrameBytes on the wire, wire.MaxPayloadBytes
// decompressed) before anything is allocated.
//
// The worker speaks first. Its first frame is the hello
//
//	{"hello": true, "proto": 7, "keyVersion": "v3",
//	 "capacity": N, "cacheDir": "<worker's -cachedir>"}
//
// which the coordinator validates before dispatching anything. Any
// other proto, or a cache-key scheme other than the coordinator's,
// rejects the endpoint outright — a worker computing cells under a
// different key layout would otherwise publish wrong results into the
// shared cache — and a peer whose first bytes are not a frame (an
// older build's plain-JSON hello line, an unrelated service on the
// port) is rejected as not a protocol-7 worker. The advertised
// cacheDir decides write-back ownership: results from a worker sharing
// the coordinator's cache directory arrive marked Persisted (the
// worker already published them), while results from workers caching
// elsewhere — typical for remote pools — are written by the
// coordinator's executor, so warm -cachedir reruns are hit-only no
// matter where the cells originally ran.
//
// After the hello the coordinator sends request envelopes,
// {"reqs": [...]}, and the worker answers with response envelopes,
// {"resps": [...]}. Requests batch to amortize per-frame dispatch: the
// coordinator packs up to each session's fair share of the batch
// (capped at 16 specs) into one envelope. Responses stream: the worker
// answers every spec the moment it finishes, one single-response
// envelope each, in request order — so a worker death mid-frame costs
// only the specs it had not yet answered. Each request is a
// WireRequest:
//
//	{"key": "<canonical job key>", "spec": <serialized JobSpec>,
//	 "snaps": [<pretrain snapshot artifacts>, omitted when empty]}
//
// and each reply a WireResponse, strictly one per request in request
// order:
//
//	{"key": "<canonical job key>", "result": <result JSON>, "cached": bool,
//	 "metrics": <telemetry.Metrics JSON, omitted when absent>,
//	 "snaps": [<snapshots the job built>, omitted when empty]}
//
// The worker decodes the spec, verifies it addresses the dispatched
// key, and executes it through its own Executor — same cache check,
// same panic isolation, same cache write-back as the pool path. The
// "cached" field travels beside the result because Result.Cached is
// deliberately excluded from result JSON; the coordinator folds it
// into its own hit/run statistics. The "metrics" field carries the
// worker's per-job telemetry snapshot the same way — Result.Telemetry
// is likewise excluded from result JSON, so neither field can ever
// reach a cache entry. A malformed frame fails the session naming the
// offending frame index. Worker stderr passes through to the
// coordinator's stderr. ServeSession implements the worker side and
// Serve the TCP accept loop, so any binary can join the protocol.
//
// A request carries no execution knobs: a session runs its cells one
// at a time, each exactly as its spec says, so the coordinator's only
// parallelism lever is the session count.
//
// # Dispatch, retry and failover
//
// The coordinator feeds endpoints work-queue style: every session
// pulls the next unstarted job as it finishes the last, so a slow or
// remote endpoint never straggles the batch the way PR 3's static
// key-partitioned shards could (ShardOf remains available for stable
// partitioning needs). Sessions dial lazily — no subprocess or
// connection exists until a session actually holds a job. Each
// session has a retry budget of one: on failure (crash, disconnect,
// reply timeout, truncated or out-of-order output) it re-dials and
// resends only the unanswered tail of its in-flight frame — answered
// jobs are never resent, which matters because results were already
// streamed to the executor. A session whose budget runs out hands its
// jobs back to the queue for surviving endpoints to absorb; only when the whole fleet
// is gone do remaining jobs surface as error results. Per-endpoint
// dispatch/retry/give-up counters are recorded in the collector the
// coordinator shares with its executor, and read back through
// Executor.Stats().Endpoints.
//
// Workers share the coordinator's -cachedir when colocated: run
// results and pretrained-controller snapshots written by one process
// are read by all, which is what keeps warm-rerun and pretrain-once
// semantics identical across backends (with a memory-only or private
// worker cache each worker warms its own pretrains instead; results
// are byte-identical either way, because snapshots are deterministic
// and always served through a lossless JSON round-trip).
//
// Parallelism lives at the job level only. Each simulation runs its
// rounds on the goroutine that executes its cell, with a serial
// participant loop: FedGPO plans at most 20 participants per round
// (paper Table 2), a few microseconds of work, far below what a
// goroutine fan-out could win back.
//
// # Simulation kernel: scratch arenas and memo tables
//
// The cell bodies those workers execute run on fl's zero-allocation
// kernel. Every fl.Run borrows a per-run scratch arena (fl.Arena) from
// a process-wide sync.Pool — effectively one arena per outer worker —
// holding every buffer the round loop touches: participant rounds,
// device states, selection permutations (double-buffered so a
// controller's Observation can reference the previous round's
// participants), aggregation scratch, and a fixed
// [device.NumCategories]float64 energy accumulator that is only
// expanded into the Result's category map once at summarize time. The
// arena also carries bit-identical memo tables for the pure
// per-(profile, workload, params) cost terms — device.CostModel for
// batch compute times, netsim.CommModel for round-trip comm cost,
// data.Memo for partition skew/coverage signals — so steady-state
// rounds neither allocate nor re-derive invariant math (CI gates
// sim_allocs_per_round and tracks sim_ns_per_round in BENCH_PR9.json).
// Reuse is safe across cells of any shape: beginRun resizes and
// re-derives every table from the new config, and byte-identity of
// dirty-arena reruns is tested directly.
//
// # Scheduling and snapshot shipping
//
// Jobs may carry a scheduling-affinity hint (Job.Affinity — for warm
// FedGPO cells, the pretrained-controller snapshot key). The hint is
// advisory: it never enters the canonical key, the wire spec, or any
// result byte, so routing policy is free to change without
// invalidating a single cache entry.
//
// Under the default affinity route the coordinator groups each batch
// by affinity key and assigns whole groups to endpoints weighted by
// their hello-advertised session capacity — largest group first, each
// to the endpoint with the lowest projected (load+size)/capacity
// score, ties to the lowest index — so all cells sharing a pretrain
// key co-locate in one worker process, whose in-process singleflight
// then executes the warm-up exactly once. Cells without a key flow
// through a FIFO overflow lane. The pull-order work queue remains as
// the stealing fallback, preserving PR 5's failover semantics
// exactly: an idle endpoint first adopts the groups of a dead
// endpoint, then whole groups their home endpoint has not started,
// and only then single cells from another endpoint's started group —
// gated on the coordinator already holding that group's snapshot, so
// a steal never triggers a duplicate warm-up. A fleet-wide cold sweep
// over S distinct scenarios therefore performs exactly S Q-table
// warm-ups (the CI-gated fleet_pretrain_runs == fleet_scenarios
// invariant). The CLIs' -route flag selects the policy (affinity or
// pull); results are byte-identical either way, because routing only
// decides where a cell runs, never what it computes.
//
// A request frame's top-up never starts a group its endpoint has not
// started yet, so a home endpoint straggling inside one group's
// warm-up leaves its other groups whole and adoptable.
//
// The wire also carries fleet-wide snapshot reuse. A worker whose cell
// built a fresh pretrain snapshot returns the serialized artifact with
// its response ("snaps" beside the result); the coordinator pools it,
// persists it into its own cache under the snapshot key (byte-identical
// to the entry the worker wrote locally, both being the same JSON
// round-trip), and pre-pushes it inside later requests for cells
// sharing that key dispatched at sessions that do not already hold it
// — skipping endpoints that share the coordinator's -cachedir, where
// the disk already carries the snapshot. The worker installs pushed
// artifacts before running the request, resolving its pretrain
// singleflight without executing the warm-up. Per-endpoint
// AffinityHits/AffinityMisses/Stolen tallies and pushed-snapshot bytes
// land in the -v summary and the -metrics-out artifact beside the
// dispatch counters.
//
// # Cache format
//
// The cache is content-addressed by the SHA-256 hex digest of the
// canonical job key. Without a directory, entries live in an
// in-memory map; when one is configured (the CLIs' -cachedir flag)
// entries live on disk, persisted as <dir>/<hash>.binz binary
// envelopes:
//
//	"FGC2" | uvarint(key length) | canonical key | wire frame(payload)
//
// The canonical key rides uncompressed ahead of the payload, so a
// reader rejects a foreign entry (hash collision, copied file) before
// inflating a byte and on-disk entries stay greppable by key; the
// payload is one wire-package frame — the same bounded, length-
// prefixed DEFLATE framing the transport plane uses. Writes
// are atomic (temp file + rename, so a crash
// mid-write can never publish a torn entry). Any malformed file —
// wrong magic, truncation, a key mismatch — is treated as a miss and
// the cell re-runs, repairing the entry in place. Results that ended
// in an error are never cached.
//
// The payload is encoded by Go type, on disk and in memory alike. A
// Result (a cell's summary metrics and round history — nearly every
// entry) goes through the binary Result codec in resultcodec.go: a
// 0x01 tag byte (never the start of JSON), floats as IEEE-754 bits,
// ints as zigzag varints, strings and Extra length-prefixed, History
// and EnergyByCategory as n+1 (0 = nil) with categories in ascending
// order. A decoded Result equals its JSON round trip exactly — nil and
// empty collections stay apart, the json:"-" fields are dropped, and a
// non-finite float fails the write as json.Marshal would — and the
// decoder checks every length against the bytes left before it
// allocates, so a corrupt payload is a corrupt read, never a panic.
// Every other payload — pretrain snapshots, decision traces, fixed-best
// selections, eval probes, shipped json.RawMessage artifacts — is JSON.
//
// FGC1, the previous generation, held every payload as JSON. An FGC1
// entry reads as a plain miss (not as corruption): its cell re-runs
// and the entry is rewritten as FGC2. Wire protocol 7 arrived with
// FGC2, so a worker sharing the coordinator's cache directory always
// writes the same generation the coordinator reads.
//
// .binz is the only entry format. A <hash>.json envelope left in a
// directory by a build older than the binary codec is not read: its
// cell is a miss that re-simulates and rewrites the entry as .binz,
// and Prune neither counts nor removes the old file (delete stray
// *.json files by hand to reclaim the space). Disk hits pass through a byte-capped in-process LRU over decoded payload
// bytes (64 MB by default, Cache.SetPayloadCacheBytes), so a cell
// re-read within one run — pretrain snapshots, shared sweep cells —
// costs one file read. The layer admits disk hits only, never Put
// write-through, so a corrupted disk entry is still caught by the
// next fresh read.
//
// # Cache eviction
//
// Disk entries no longer live forever: Cache.Prune (the CLIs'
// -cache-max-bytes flag) removes entries oldest-mtime-first at
// startup until the directory fits the byte budget. A hit queues an mtime touch instead of paying the syscall inline:
// duplicate touches coalesce, and the pending set drains at executor
// shutdown (Executor.Close / exp.Runtime.Close), before a Prune scan,
// or asynchronously past a threshold — so mtime order approximates
// LRU and a cell a warm report still reads outlives a newer cell
// nothing asks for. Prune also drops evicted hashes from the
// decoded-payload layer, so an evicted entry cannot be served from
// memory. Pruning is a coordinator-startup job only; worker
// subprocesses never prune the directory they share.
//
// # Pretrained-controller cache
//
// The cache also stores non-job artifacts under KeyFor-built keys.
// The largest such family is the pretrained-controller cache: the warm
// FedGPO contender's Q-table warm-up is executed once per scenario and
// captured as a core.Snapshot under
//
//	<keyVersion>|pretrain|<scenario key>|cfg=<controller config JSON>|warmseed=<N>|warmrounds=<N>
//
// so every figure/table cell (and the Table 5 oracle probes) that
// evaluates the same warmed controller restores it from the snapshot
// instead of re-running the warm-up per (cell, seed). The key carries
// the full controller configuration and the warm-up deployment, so
// ablation variants and different scenarios never share tables.
// Snapshots are always served through the cache's JSON round-trip
// (which is lossless for float64), so a cell's result does not depend
// on whether its snapshot was built in-process or read from disk.
// The experiment runtime's in-process singleflight guarantees at most
// one warm-up per key even when many workers request it concurrently.
// Grid-search selections ("fixed-best" keys) follow the same
// KeyFor pattern.
//
// # Result store
//
// Result carries the full structured outcome of a cell: the
// simulator's summary metrics and per-round history (fl.Result) plus
// an optional Kind-specific Extra payload. Store collects the results
// a batch produced, in insertion order, and can round-trip them to a
// single JSON file so table/figure constructors — or external tooling
// — can consume completed runs without re-simulating.
//
// A store has two persistence modes. In memory (the default,
// WriteFile) it buffers every result and writes one indented JSON
// array at the end — fine for reports, but the retained round
// histories grow with the sweep. StreamTo switches it to streaming
// mode: every Add appends the result to a JSON Lines file as the cell
// completes and retains only its key, so memory stays bounded by the
// cell count regardless of history size (the CLIs select this mode
// when -results names a .jsonl path). A repeated key appends a new
// line rather than rewriting the file. ReadStore loads either format
// — the first non-whitespace byte tells them apart, and for a
// streamed log the last occurrence of a key wins — and Compact
// (fedgpo-report -compact-results) rewrites a streamed log as the
// canonical JSON array, shadowed lines dropped.
//
// # Telemetry
//
// The runtime is instrumented against a telemetry.Collector, the one
// place a run's counters are stored. NewExecutorBackend and
// NewCoordinator each start with a fresh one, so a bare executor or
// coordinator still counts; Executor.SetCollector swaps it for the
// executor and its coordinator backend together, and the exp.Runtime
// constructor hands the same collector to the cache too:
//
//   - The executor counts each result as it lands — SimsExecuted for a
//     computed cell, CacheHits for a replay, JobErrors for a failure —
//     and Executor.Stats reads those counters back, so there is no
//     second tally to reconcile. Per-job phase timings and pretrain
//     warm-ups attached to a Result (Result.Telemetry) are folded in at
//     the same point, whether the cell ran in-process or arrived over
//     the wire's "metrics" field.
//   - The cache times every Get/Put as cacheRead/cacheWrite phases
//     (payload JSON decode separately as cacheDecode), splits hits
//     into CacheMemHits, CachePayloadHits (decoded-payload layer) and
//     CacheDiskHits, counts clean CacheMisses apart from CacheCorrupt
//     discards, tallies flushed and coalesced mtime touches
//     (CacheTouches/CacheTouchesCoalesced), and reports Prune removals
//     as Evictions. Cache-level counters can exceed job-level ones:
//     pretrain snapshots and trace artifacts are cache traffic but not
//     jobs.
//   - The coordinator times each dispatch Send→Recv into a
//     per-endpoint latency histogram (exponential 1ms-base buckets)
//     and counts each endpoint's retried sessions and given-up jobs
//     (their fleet totals are Counters.Retries and Failovers). Sessions
//     meter raw bytes both ways (handshake included) and the
//     coordinator records them — plus request-frame and spec counts,
//     whose ratio is the realized batch density, and the affinity
//     router's hits, misses, steals and pushed snapshot bytes — in the
//     endpoint's collector entry, which the -v summary prints as one
//     line per endpoint.
//
// Provenance: because wall-clock measurements (the sec54 probe's
// overhead timers, ControllerOverheadSec) are replayed verbatim on a
// cache hit, every result is tagged after execution with
// ProvenanceMeasured or ProvenanceReplayed. The tag is assigned after
// cache write-back and excluded from wire result JSON, so cache
// entries stay byte-identical across cold and warm runs.
//
// Decision traces: with tracing enabled (the CLIs' -trace-level flag)
// each traceable cell's per-round RL decision record is published as a
// spec-addressed cache artifact under
//
//	<keyVersion>|trace|<level>|<kind>|<scenario key>|<controller key>|seed=<N>
//
// — addressed exactly like the result it annotates, never colliding
// with it, and never entering the result's canonical key (traced and
// untraced runs share one cache cell). A traced cell whose artifact is
// missing is compiled with Job.ForceRun, re-executing once to capture
// the trace while republishing byte-identical results; once the
// artifact exists, re-tracing is a pure cache hit.
package runtime
