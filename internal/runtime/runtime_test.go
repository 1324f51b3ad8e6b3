package runtime

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"fedgpo/internal/fl"
)

func simJob(i int) Job {
	return Job{
		Kind:       "sim",
		Scenario:   fmt.Sprintf("scenario-%d", i),
		Controller: "static/(8,10,20)",
		Seed:       int64(i),
		Run: func() Result {
			return Result{Sim: fl.Result{PPW: float64(i), FinalAccuracy: 0.9}}
		},
	}
}

func TestJobKeyStableAndHashed(t *testing.T) {
	j := simJob(3)
	key := j.Key()
	if key != "v3|sim|scenario-3|static/(8,10,20)|seed=3" {
		t.Errorf("unexpected canonical key %q", key)
	}
	if j.Key() != key {
		t.Error("key not stable across calls")
	}
	if len(j.Hash()) != 64 || j.Hash() != HashKey(key) {
		t.Errorf("hash should be the sha256 hex of the key, got %q", j.Hash())
	}
	j2 := simJob(4)
	if j2.Key() == key || j2.Hash() == j.Hash() {
		t.Error("distinct cells must have distinct keys and hashes")
	}
}

func TestRunAllDeterministicOrdering(t *testing.T) {
	jobs := make([]Job, 50)
	for i := range jobs {
		jobs[i] = simJob(i)
	}
	serial := NewExecutor(1, nil).RunAll(jobs)
	parallel := NewExecutor(8, nil).RunAll(jobs)
	if len(serial) != len(jobs) || len(parallel) != len(jobs) {
		t.Fatalf("result lengths: %d, %d", len(serial), len(parallel))
	}
	for i := range jobs {
		if serial[i].Sim.PPW != float64(i) {
			t.Fatalf("serial result %d out of order: PPW=%v", i, serial[i].Sim.PPW)
		}
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("parallel results differ from serial results")
	}
}

func TestRunAllPanicIsolation(t *testing.T) {
	jobs := []Job{
		simJob(0),
		{Kind: "sim", Scenario: "boom", Seed: 1, Run: func() Result { panic("kaboom") }},
		simJob(2),
	}
	e := NewExecutor(4, nil)
	rs := e.RunAll(jobs)
	if rs[0].Err != "" || rs[2].Err != "" {
		t.Error("healthy jobs should not report errors")
	}
	if !strings.Contains(rs[1].Err, "kaboom") {
		t.Errorf("panic not captured: %q", rs[1].Err)
	}
	if rs[0].Sim.PPW != 0 || rs[2].Sim.PPW != 2 {
		t.Error("other jobs' results corrupted by the panic")
	}
	if st := e.Stats(); st.Errors != 1 || st.Runs != 3 {
		t.Errorf("stats = %+v, want 1 error of 3 runs", st)
	}
}

func TestExecutorCacheHitsAndCounts(t *testing.T) {
	cache, err := NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]Job, 10)
	var executed atomic.Int64
	for i := range jobs {
		j := simJob(i % 5) // 5 distinct cells, each named twice
		inner := j.Run
		j.Run = func() Result { executed.Add(1); return inner() }
		jobs[i] = j
	}
	e := NewExecutor(4, cache)
	first := e.RunAll(jobs)
	// A duplicated cell runs once per batch; its twin is a copy.
	if got := e.Stats(); got.Runs != 5 || got.Hits != 5 {
		t.Errorf("cold stats = %+v, want 5 runs / 5 hits", got)
	}
	e2 := NewExecutor(4, cache)
	second := e2.RunAll(jobs)
	if got := e2.Stats(); got.Runs != 0 || got.Hits != int64(len(jobs)) {
		t.Errorf("warm stats = %+v, want 0 runs / %d hits", got, len(jobs))
	}
	if executed.Load() != 5 {
		t.Errorf("cell bodies executed %d times, want 5", executed.Load())
	}
	for i := range jobs {
		if !second[i].Cached {
			t.Errorf("result %d not served from cache", i)
		}
		if second[i].Sim.PPW != first[i].Sim.PPW || second[i].Key != first[i].Key {
			t.Errorf("cached result %d differs from original", i)
		}
	}
}

func TestCacheDiskRoundTripAndVerification(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := Result{Key: "k", Sim: fl.Result{PPW: 3.5, Converged: true}}
	if err := c1.Put("some|canonical|key", want); err != nil {
		t.Fatal(err)
	}
	// A fresh cache over the same directory must serve the entry.
	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got Result
	if !c2.Get("some|canonical|key", &got) {
		t.Fatal("disk entry not found by fresh cache")
	}
	if got.Sim.PPW != want.Sim.PPW || !got.Sim.Converged {
		t.Errorf("round trip mutated the payload: %+v", got)
	}
	if c2.Get("some|other|key", &got) {
		t.Error("unknown key should miss")
	}
	// Corrupt the file: the entry must degrade to a miss, not an error.
	hash := HashKey("some|canonical|key")
	path := filepath.Join(dir, hash+binExt)
	if err := os.WriteFile(path, []byte("{not a binary envelope"), 0o644); err != nil {
		t.Fatal(err)
	}
	c3, _ := NewCache(dir)
	if c3.Get("some|canonical|key", &got) {
		t.Error("corrupted entry should miss")
	}
	// An envelope whose key does not match the requested key (a
	// collision or foreign file) must also miss.
	foreign, err := encodeBinaryEnvelope("evil", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, foreign, 0o644); err != nil {
		t.Fatal(err)
	}
	c4, _ := NewCache(dir)
	if c4.Get("some|canonical|key", &got) {
		t.Error("key-mismatched envelope should miss")
	}
}

// A corrupt disk entry — e.g. a file torn by a crash before the
// temp-file-plus-rename publish existed, or external tampering — must
// degrade to a cache miss: the executor recomputes the cell, repairs
// the entry in place, and later readers get clean hits. The run itself
// must never fail.
func TestCorruptDiskEntryIsDiscardedAndRecomputed(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	var runs int
	job := Job{
		Kind:     "sim",
		Scenario: "corrupt-test",
		Seed:     7,
		Run: func() Result {
			runs++
			return Result{Sim: fl.Result{PPW: 42}}
		},
	}
	e := NewExecutor(1, cache)
	if res := e.RunAll([]Job{job})[0]; res.Err != "" || res.Sim.PPW != 42 {
		t.Fatalf("first run failed: %+v", res)
	}
	if runs != 1 {
		t.Fatalf("job ran %d times, want 1", runs)
	}

	// Tear the entry the way an interrupted write would: the magic and
	// key header survive but the payload frame is cut short.
	path := filepath.Join(dir, job.Hash()+binExt)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("cache entry not on disk: %v", err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, whole[:len(whole)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	res := e.RunAll([]Job{job})[0]
	if res.Err != "" {
		t.Fatalf("corrupt entry must not fail the run: %s", res.Err)
	}
	if res.Cached {
		t.Error("corrupt entry must be a miss, not a hit")
	}
	if runs != 2 {
		t.Fatalf("job should have been recomputed once, ran %d times", runs)
	}
	if res.Sim.PPW != 42 {
		t.Errorf("recomputed result wrong: %+v", res.Sim)
	}

	// The recompute must have repaired the entry: a third pass is a hit.
	if res := e.RunAll([]Job{job})[0]; !res.Cached || runs != 2 {
		t.Errorf("repaired entry should serve a hit (cached=%v, runs=%d)", res.Cached, runs)
	}
}

// A key that appears more than once in a batch runs once, with or
// without a cache: each duplicate slot gets a copy of the result,
// counted as a cache hit, and progress fires once per job. A ForceRun
// duplicate stands for its group, so the forced re-run still happens.
func TestRunAllRunsDuplicateKeysOnce(t *testing.T) {
	var runs [3]atomic.Int64
	job := func(i int, force bool) Job {
		j := simJob(i)
		j.ForceRun = force
		inner := j.Run
		j.Run = func() Result { runs[i].Add(1); return inner() }
		return j
	}
	withCache, _ := NewCache("")
	for _, cache := range []*Cache{nil, withCache} {
		for i := range runs {
			runs[i].Store(0)
		}
		jobs := []Job{job(0, false), job(1, false), job(0, false), job(2, false), job(0, false), job(1, false)}
		e := NewExecutor(4, cache)
		var events []Progress
		e.SetProgress(func(p Progress) { events = append(events, p) })
		rs := e.RunAll(jobs)
		for i := range runs {
			if n := runs[i].Load(); n != 1 {
				t.Errorf("cache=%v: cell %d body ran %d times, want 1", cache != nil, i, n)
			}
		}
		for i, r := range rs {
			if r.Key != jobs[i].Key() || r.Sim.PPW != rs[[]int{0, 1, 0, 3, 0, 1}[i]].Sim.PPW {
				t.Errorf("cache=%v: result %d = %+v, want a copy of its key's result", cache != nil, i, r)
			}
		}
		if len(events) != len(jobs) || events[len(events)-1].Done != len(jobs) {
			t.Errorf("cache=%v: %d progress events, want %d", cache != nil, len(events), len(jobs))
		}
		if st := e.Stats(); st.Runs != 3 || st.Hits != 3 {
			t.Errorf("cache=%v: stats = %+v, want 3 runs / 3 hits", cache != nil, st)
		}
	}

	// Warm cache: a plain duplicate and its ForceRun twin share one
	// forced run of the ForceRun job's body.
	runs[0].Store(0)
	plain, forced := job(0, false), job(0, true)
	var forcedRuns atomic.Int64
	inner := forced.Run
	forced.Run = func() Result { forcedRuns.Add(1); return inner() }
	rs := NewExecutor(2, withCache).RunAll([]Job{plain, forced})
	if forcedRuns.Load() != 1 || runs[0].Load() != 1 {
		t.Errorf("ForceRun group ran %d forced / %d total bodies, want 1/1", forcedRuns.Load(), runs[0].Load())
	}
	if rs[0].Sim.PPW != rs[1].Sim.PPW {
		t.Errorf("ForceRun group results differ: %+v vs %+v", rs[0], rs[1])
	}
}

func TestErroredResultsNotCached(t *testing.T) {
	cache, _ := NewCache("")
	job := Job{Kind: "sim", Scenario: "s", Seed: 1, Run: func() Result { panic("once") }}
	e := NewExecutor(1, cache)
	if rs := e.RunAll([]Job{job}); rs[0].Err == "" {
		t.Fatal("expected an error result")
	}
	var dummy Result
	if cache.Get(job.Key(), &dummy) {
		t.Error("errored result must not be cached")
	}
}

func TestProgressCallback(t *testing.T) {
	jobs := make([]Job, 7)
	for i := range jobs {
		jobs[i] = simJob(i)
	}
	e := NewExecutor(4, nil)
	var events []Progress
	e.SetProgress(func(p Progress) { events = append(events, p) })
	e.RunAll(jobs)
	if len(events) != len(jobs) {
		t.Fatalf("got %d progress events, want %d", len(events), len(jobs))
	}
	last := events[len(events)-1]
	if last.Done != len(jobs) || last.Total != len(jobs) {
		t.Errorf("final event = %+v", last)
	}
}

func TestStoreOrderAndFileRoundTrip(t *testing.T) {
	s := NewStore()
	s.Add(Result{Key: "b", Sim: fl.Result{PPW: 2}})
	s.Add(Result{Key: "a", Sim: fl.Result{PPW: 1}}, Result{Key: "c", Sim: fl.Result{PPW: 3}})
	s.Add(Result{Key: "b", Sim: fl.Result{PPW: 9}}) // overwrite keeps position
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	rs := s.Results()
	if rs[0].Key != "b" || rs[0].Sim.PPW != 9 || rs[1].Key != "a" || rs[2].Key != "c" {
		t.Errorf("insertion order broken: %+v", rs)
	}
	path := filepath.Join(t.TempDir(), "store.json")
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Results(), s.Results()) {
		t.Error("store file round trip mutated results")
	}
}

func TestResultExtraRoundTrip(t *testing.T) {
	type payload struct {
		RewardHistory []float64
		MemBytes      int
	}
	var r Result
	r.SetExtra(payload{RewardHistory: []float64{1, -2, 3}, MemBytes: 4096})
	var got payload
	if err := r.GetExtra(&got); err != nil {
		t.Fatal(err)
	}
	if got.MemBytes != 4096 || len(got.RewardHistory) != 3 || got.RewardHistory[1] != -2 {
		t.Errorf("extra round trip mutated payload: %+v", got)
	}
}
