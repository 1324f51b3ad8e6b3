package runtime

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"fedgpo/internal/device"
	"fedgpo/internal/fl"
)

// The codec writes every serialized field by name; a field added to
// Result, fl.Result or fl.RoundRecord must be added to the codec (and
// the cache generation bumped) before this count is raised.
func TestResultCodecCoversEveryField(t *testing.T) {
	for typ, want := range map[reflect.Type]int{
		reflect.TypeOf(Result{}):         9, // 5 encoded, 4 json:"-"
		reflect.TypeOf(fl.Result{}):      12,
		reflect.TypeOf(fl.RoundRecord{}): 9,
	} {
		if got := typ.NumField(); got != want {
			t.Errorf("%v has %d fields, the Result codec knows %d", typ, got, want)
		}
	}
}

// codecSample is a small Result exercising every codec field.
func codecSample() Result {
	return Result{
		Key: "v3|sim|fuzz|static/(8,10,20)|seed=1",
		Sim: fl.Result{
			Controller: "static", Converged: true, ConvergenceRound: 3, RoundsExecuted: 4,
			TimeToConvergenceSec: 12.5, EnergyToConvergenceJ: 480.25, FinalAccuracy: 0.91, PPW: 4.2,
			AvgRoundSeconds: 3.1, ControllerOverheadSec: 1e-6,
			EnergyByCategory: map[device.Category]float64{device.High: 1, device.Low: 2},
			History: []fl.RoundRecord{
				{Round: 1, Accuracy: 0.5, RoundSeconds: 3, EnergyJ: 100, MeanB: 8, MeanE: 10, PlannedK: 20, AggregatedK: 19, Dropped: 1},
				{Round: 2, Accuracy: 0.7, RoundSeconds: 3.2, EnergyJ: 120, MeanB: 8, MeanE: 10, PlannedK: 20, AggregatedK: 20},
			},
		},
		Extra: json.RawMessage(`{"overhead":[1,2]}`),
		Err:   "boom", Provenance: ProvenanceMeasured,
	}
}

// The decoder is total and canonical: any byte string either fails or
// decodes to a Result that re-encodes to exactly those bytes.
func FuzzDecodeResult(f *testing.F) {
	full, err := encodeResult(&Result{})
	if err != nil {
		f.Fatal(err)
	}
	s := codecSample()
	sample, err := encodeResult(&s)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add(sample)
	f.Add(sample[:len(sample)/2])
	f.Add([]byte{})
	f.Add([]byte{resultTag})
	f.Add([]byte(`{"key":"json"}`))
	f.Add(append([]byte{resultTag}, bytes.Repeat([]byte{0xff}, 32)...))
	f.Fuzz(func(t *testing.T, b []byte) {
		var r Result
		if err := decodeResult(b, &r); err != nil {
			return
		}
		re, err := encodeResult(&r)
		if err != nil {
			t.Fatalf("decoded result does not re-encode: %v", err)
		}
		if !bytes.Equal(re, b) {
			t.Errorf("decoded result re-encodes differently:\n in  %x\n out %x", b, re)
		}
	})
}

// Every strict prefix of a payload, and the payload with a byte
// appended, is a decode error, never a panic or a partial result.
func TestDecodeResultRejectsTruncationAndTrailingBytes(t *testing.T) {
	s := codecSample()
	b, err := encodeResult(&s)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := decodeResult(b, &back); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(b); n++ {
		r := Result{Key: "untouched"}
		if decodeResult(b[:n], &r) == nil {
			t.Fatalf("prefix of %d/%d bytes decoded", n, len(b))
		}
		if r.Key != "untouched" {
			t.Fatalf("failed decode at %d bytes wrote into its destination", n)
		}
	}
	if decodeResult(append(b[:len(b):len(b)], 0), &back) == nil {
		t.Error("payload with a trailing byte decoded")
	}
}
