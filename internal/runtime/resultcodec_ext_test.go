package runtime_test

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"fedgpo/internal/device"
	"fedgpo/internal/exp"
	"fedgpo/internal/fl"
	"fedgpo/internal/runtime"
)

// jsonRoundTrip is what the cache returned for r while it stored every
// payload as JSON.
func jsonRoundTrip(t *testing.T, r runtime.Result) (runtime.Result, error) {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		return runtime.Result{}, err
	}
	var back runtime.Result
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("JSON round trip of %q: %v", r.Key, err)
	}
	return back, nil
}

// A Result stored in the cache comes back exactly as its JSON round
// trip did before the binary codec: on every result a Tiny report
// produces, and on the values JSON treats specially.
func TestResultCodecMatchesJSONRoundTrip(t *testing.T) {
	rt, err := exp.NewRuntime(0, "")
	if err != nil {
		t.Fatal(err)
	}
	rt.EnableStore()
	opts := exp.Tiny().WithRuntime(rt)
	for _, e := range exp.Registry() {
		e.Run(opts)
	}
	results := rt.Store().Results()
	if len(results) < 100 {
		t.Fatalf("Tiny report stored %d results, want a full registry's worth", len(results))
	}
	withExtra := 0
	for _, r := range results {
		if len(r.Extra) > 0 {
			withExtra++
		}
	}
	if withExtra == 0 {
		t.Error("no Tiny report result carries Extra; the codec's Extra path is untested")
	}

	sub := math.SmallestNonzeroFloat64
	negZero := math.Copysign(0, -1)
	edges := []runtime.Result{
		{},
		{Key: "empty-collections", Sim: fl.Result{History: []fl.RoundRecord{}, EnergyByCategory: map[device.Category]float64{}}, Extra: json.RawMessage{}},
		{Key: "floats", Sim: fl.Result{
			PPW: negZero, FinalAccuracy: sub, TimeToConvergenceSec: math.MaxFloat64, EnergyToConvergenceJ: -sub,
			AvgRoundSeconds: 2.2250738585072009e-308, ControllerOverheadSec: 1e-300,
			EnergyByCategory: map[device.Category]float64{device.Low: negZero, device.High: sub, -7: 1, 40: -2.5},
			History:          []fl.RoundRecord{{Round: -1, Accuracy: negZero, MeanB: sub, MeanE: -math.MaxFloat64}},
		}},
		{Key: "ints", Sim: fl.Result{
			ConvergenceRound: math.MinInt64, RoundsExecuted: math.MaxInt64,
			History: []fl.RoundRecord{{Round: math.MaxInt64, PlannedK: math.MinInt64, AggregatedK: -1, Dropped: 1 << 40}},
		}},
		{Key: "bad\xffutf8\xc3", Sim: fl.Result{Controller: "\xe2\x82 ok �  "}, Err: "\x80\x80", Provenance: "measured\xfe"},
		{Key: "extra-null", Extra: json.RawMessage("null")},
		{Key: "extra-spaced", Extra: json.RawMessage(" { \"a\" : [1, 2.50, \"<&>\"] ,\n\"b\":{} } ")},
		{Key: "dropped-fields", Cached: true, Persisted: true, Snaps: []runtime.SnapshotArtifact{{Key: "k", Data: json.RawMessage("{}")}}},
	}
	for _, r := range append(edges, results...) {
		want, err := jsonRoundTrip(t, r)
		if err != nil {
			t.Fatalf("JSON rejects %q: %v", r.Key, err)
		}
		cache, err := runtime.NewCache("")
		if err != nil {
			t.Fatal(err)
		}
		for name, v := range map[string]any{"value": r, "pointer": &r} {
			if err := cache.Put(r.Key, v); err != nil {
				t.Fatalf("Put(%s %q): %v", name, r.Key, err)
			}
			var got runtime.Result
			if !cache.Get(r.Key, &got) {
				t.Fatalf("Get(%q) after Put(%s) missed", r.Key, name)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %q: cache returned\n%+v\nJSON round trip gives\n%+v", name, r.Key, got, want)
			}
		}
	}

	// A non-finite float is an encode error, as in json.Marshal, so the
	// result is not cached.
	for i, r := range []runtime.Result{
		{Key: "nan", Sim: fl.Result{PPW: math.NaN()}},
		{Key: "inf-map", Sim: fl.Result{EnergyByCategory: map[device.Category]float64{device.Mid: math.Inf(1)}}},
		{Key: "inf-history", Sim: fl.Result{History: []fl.RoundRecord{{EnergyJ: math.Inf(-1)}}}},
		{Key: "bad-extra", Extra: json.RawMessage("{not json")},
	} {
		if _, err := jsonRoundTrip(t, r); err == nil {
			t.Fatalf("case %d: JSON accepts %+v", i, r)
		}
		cache, _ := runtime.NewCache(t.TempDir())
		if err := cache.Put(r.Key, r); err == nil {
			t.Errorf("Put(%q) accepted a result JSON rejects", r.Key)
		}
		if cache.Get(r.Key, new(runtime.Result)) {
			t.Errorf("Get(%q) hit after a rejected Put", r.Key)
		}
	}
}

// Only Results use the codec: any other payload is still JSON, and a
// Result entry read into another type is a corrupt read, not a panic.
func TestNonResultPayloadsStayJSON(t *testing.T) {
	cache, err := runtime.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := fl.Params{B: 8, E: 10, K: 20}
	if err := cache.Put("params", p); err != nil {
		t.Fatal(err)
	}
	var raw json.RawMessage
	if !cache.Get("params", &raw) || string(raw) != fmt.Sprintf(`{"B":%d,"E":%d,"K":%d}`, p.B, p.E, p.K) {
		t.Errorf("non-Result payload read back as %q, want its JSON", raw)
	}
	if err := cache.Put("result", runtime.Result{Key: "result"}); err != nil {
		t.Fatal(err)
	}
	if cache.Get("result", &raw) {
		t.Errorf("a Result entry decoded as JSON: %q", raw)
	}
}
