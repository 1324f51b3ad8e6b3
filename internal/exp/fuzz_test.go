package exp

import (
	"testing"

	"fedgpo/internal/fl"
	"fedgpo/internal/workload"
)

// FuzzDecodeJobSpec throws arbitrary bytes at the wire-spec decoder a
// worker runs on every request it receives. The invariants under fuzz:
// decoding never panics; an accepted spec compiles into a job whose
// canonical key derivation never panics and matches the spec's own
// Key; and the job's serialized payload decodes back to a spec
// addressing the same cell.
func FuzzDecodeJobSpec(f *testing.F) {
	// Seed with fig5's two Tiny cells (a static contender and a warm
	// FedGPO contender carrying a full core config), a truncated spec
	// and a spec naming an unknown contender.
	s := Tiny().apply(Realistic(workload.CNNMNIST()))
	static := EncodeJobSpec(JobSpec{Kind: KindSim, Scenario: s,
		Contender: staticContender(fl.Params{B: 8, E: 10, K: 20}, ""), Seed: 1})
	f.Add([]byte(static))
	f.Add([]byte(EncodeJobSpec(JobSpec{Kind: KindSim, Scenario: s, Contender: fedgpoWarmContender(s), Seed: 1})))
	f.Add([]byte(static[:len(static)/2]))
	f.Add([]byte(`{"kind":"sim","scenario":{},"contender":{"type":"bogus"}}`))

	rt, err := NewRuntime(1, "")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		sp, err := DecodeJobSpec(b)
		if err != nil {
			return
		}
		job := rt.Job(sp)
		key := job.Key()
		if want := sp.Key(); key != want {
			t.Fatalf("job key %q differs from spec key %q", key, want)
		}
		back, err := DecodeJobSpec(job.Payload)
		if err != nil {
			t.Fatalf("accepted spec's payload does not decode: %v", err)
		}
		if got := back.Key(); got != key {
			t.Fatalf("payload round-trip addresses %q, want %q", got, key)
		}
	})
}

// FuzzDecodeScenarios throws arbitrary bytes at the -scenario-file
// decoder. The invariants under fuzz: decoding never panics, every
// accepted spec's cache key derivation never panics, and each accepted
// spec survives its own EncodeScenario round-trip addressing the same
// deployment.
func FuzzDecodeScenarios(f *testing.F) {
	w := workload.CNNMNIST()
	one := EncodeScenario(Tiny().apply(Realistic(w)))
	f.Add(one)
	f.Add([]byte("[" + string(EncodeScenario(Ideal(w))) + "," + string(EncodeScenario(RealisticNonIID(w))) + "]"))
	f.Add(one[:len(one)/2])
	f.Add([]byte(`[]`))

	f.Fuzz(func(t *testing.T, b []byte) {
		specs, err := DecodeScenarios(b)
		if err != nil {
			return
		}
		for i, s := range specs {
			key := s.cacheKey()
			back, err := DecodeScenarios(EncodeScenario(s))
			if err != nil {
				t.Fatalf("spec %d: accepted spec does not re-decode: %v", i, err)
			}
			if len(back) != 1 || back[0].cacheKey() != key {
				t.Fatalf("spec %d: round-trip changed the deployment key %q", i, key)
			}
		}
	})
}
