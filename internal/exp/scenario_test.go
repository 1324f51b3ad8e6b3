package exp

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"fedgpo/internal/data"
	"fedgpo/internal/device"
	"fedgpo/internal/fl"
	"fedgpo/internal/interfere"
	"fedgpo/internal/netsim"
	"fedgpo/internal/stats"
	"fedgpo/internal/workload"
)

// The tentpole contract of the scenario refactor: every paper preset,
// expressed through the composable sub-specs, must materialize exactly
// the fl.Config the closure-era constructors built — same fleet, same
// partition draw, same channel and interference parameters, same
// deadline. Byte-identical tables follow from byte-identical configs.
func TestPresetSpecsMatchLegacyAssembly(t *testing.T) {
	w := workload.CNNMNIST()
	legacy := func(nonIID, intf, unstable bool, deadline float64) fl.Config {
		fleet := device.NewFleet(device.PaperComposition().Scale(200))
		var part data.Partition
		if nonIID {
			part = data.Dirichlet(len(fleet), w.NumClasses, w.SamplesPerDevice,
				data.PaperAlpha, stats.NewRNG(42))
		} else {
			part = data.IID(len(fleet), w.NumClasses, w.SamplesPerDevice)
		}
		ch := netsim.StableChannel()
		if unstable {
			ch = netsim.UnstableChannel()
		}
		im := interfere.None()
		if intf {
			im = interfere.Paper()
		}
		return fl.Config{
			Workload: w, Fleet: fleet, Partition: part, Channel: ch,
			Interference: im, MaxRounds: 400, DeadlineSec: deadline,
			AggregationOverheadSec: 30, Seed: 7, StopAtConvergence: true,
		}
	}
	autoDeadline := DeadlineSpec{Kind: DeadlineAuto}.SecondsFor(w)
	cases := []struct {
		spec ScenarioSpec
		want fl.Config
	}{
		{Ideal(w), legacy(false, false, false, 0)},
		{Realistic(w), legacy(false, true, true, autoDeadline)},
		{InterferenceOnly(w), legacy(false, true, false, autoDeadline)},
		{UnstableNetworkOnly(w), legacy(false, false, true, autoDeadline)},
		{NonIIDScenario(w), legacy(true, false, false, 0)},
		{RealisticNonIID(w), legacy(true, true, true, autoDeadline)},
	}
	for _, c := range cases {
		got := c.spec.Config(7)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: spec-built config diverges from the legacy assembly", c.spec.Name)
		}
	}
	if autoDeadline <= 0 {
		t.Error("auto deadline policy resolved to no deadline")
	}
}

// Every preset spec must survive a JSON round-trip losslessly, for
// every workload: same struct, same canonical key.
func TestPresetSpecJSONRoundTrip(t *testing.T) {
	for _, w := range workload.All() {
		for _, p := range Presets() {
			s := p.Build(w)
			b := EncodeScenario(s)
			got, err := DecodeScenarios(b)
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Name, p.Name, err)
			}
			if len(got) != 1 || !reflect.DeepEqual(got[0], s) {
				t.Errorf("%s/%s: spec does not round-trip", w.Name, p.Name)
			}
			if got[0].cacheKey() != s.cacheKey() {
				t.Errorf("%s/%s: round-tripped key differs", w.Name, p.Name)
			}
		}
	}
	// An array file round-trips too.
	w := workload.CNNMNIST()
	arr, err := json.Marshal([]ScenarioSpec{Ideal(w), Realistic(w)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeScenarios(arr)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Name != "realistic" {
		t.Errorf("array decode returned %d specs", len(got))
	}
}

// The guard contract of spec-hashed keys: two scenarios differing only
// in one sub-spec field must get distinct canonical keys even when
// they share a Name; and resolved-default equivalences (zero value vs
// explicit paper default) must share one.
func TestCacheKeyHashesFullScenarioSpec(t *testing.T) {
	w := workload.CNNMNIST()
	base := Realistic(w)
	base.Partition = PartitionSpec{Kind: PartitionDirichlet, Seed: 42}
	mutations := map[string]func(*ScenarioSpec){
		"fleet mix":      func(s *ScenarioSpec) { s.Fleet.Mix = device.FleetComposition{High: 100, Mid: 70, Low: 30} },
		"fleet size":     func(s *ScenarioSpec) { s.Fleet.Size = 120 },
		"alpha":          func(s *ScenarioSpec) { s.Partition.Alpha = 0.5 },
		"partition plan": func(s *ScenarioSpec) { s.Partition = PartitionSpec{} },
		"partition seed": func(s *ScenarioSpec) { s.Partition.Seed = 43 },
		"net std":        func(s *ScenarioSpec) { s.Network.StdMbps = 40 },
		"net kind":       func(s *ScenarioSpec) { s.Network = NetworkSpec{} },
		"intf fraction":  func(s *ScenarioSpec) { s.Interference.ActiveFraction = 0.9 },
		"intf profile":   func(s *ScenarioSpec) { s.Interference.Kind = interfere.HeavyGame().Name },
		"deadline":       func(s *ScenarioSpec) { s.Deadline = DeadlineSpec{Kind: DeadlineFixed, Seconds: 90} },
		"deadline knob":  func(s *ScenarioSpec) { s.Deadline.Margin = 2.0 },
		"rounds":         func(s *ScenarioSpec) { s.MaxRounds = 123 },
	}
	seen := map[string]string{base.cacheKey(): "base"}
	for label, mutate := range mutations {
		s := base
		mutate(&s)
		// Same display name on purpose: the key must still change.
		s.Name = base.Name
		k := s.cacheKey()
		if prev, dup := seen[k]; dup {
			t.Errorf("mutation %q collides with %q on key %q", label, prev, k)
		}
		seen[k] = label
	}
	// Explicit paper defaults share the base key.
	eq := base
	eq.Partition.Alpha = data.PaperAlpha
	eq.Interference.ActiveFraction = interfere.Paper().ActiveFraction
	eq.Deadline.Margin = 1.35
	eq.Deadline.SlackSec = 15
	if eq.cacheKey() != base.cacheKey() {
		t.Errorf("explicit paper defaults should share the key:\n %q\n %q",
			eq.cacheKey(), base.cacheKey())
	}
}

// Sub-spec validation must reject malformed values at decode time.
func TestScenarioSpecValidation(t *testing.T) {
	w := workload.CNNMNIST()
	bad := map[string]ScenarioSpec{
		"bad partition kind": {Workload: w, Partition: PartitionSpec{Kind: "zipf"}},
		"negative alpha":     {Workload: w, Partition: PartitionSpec{Kind: PartitionDirichlet, Alpha: -1}},
		"bad network kind":   {Workload: w, Network: NetworkSpec{Kind: "5g"}},
		"bad intf kind":      {Workload: w, Interference: InterferenceSpec{Kind: "bitcoin-miner"}},
		"fraction over 1":    {Workload: w, Interference: InterferenceSpec{Kind: "web-browsing", ActiveFraction: 1.5}},
		"bad deadline kind":  {Workload: w, Deadline: DeadlineSpec{Kind: "soft"}},
		"negative deadline":  {Workload: w, Deadline: DeadlineSpec{Kind: DeadlineFixed, Seconds: -3}},
		"negative rounds":    {Workload: w, MaxRounds: -1},
		"empty fleet":        {Workload: w, Fleet: FleetSpec{Mix: device.FleetComposition{}, Size: -1}},
		"oversized rounds":   {Workload: w, MaxRounds: MaxScenarioRounds + 1},
		"oversized fleet":    {Workload: w, Fleet: FleetSpec{Size: MaxFleetDevices + 1}},
		"oversized mix":      {Workload: w, Fleet: FleetSpec{Mix: device.FleetComposition{High: MaxFleetDevices, Mid: 1, Low: 1}}},
		"overflowing mix":    {Workload: w, Fleet: FleetSpec{Mix: device.FleetComposition{High: math.MaxInt, Mid: math.MaxInt, Low: 2}}},
	}
	for label, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate should fail", label)
		}
		if _, err := DecodeJobSpec(EncodeJobSpec(JobSpec{
			Kind: KindSim, Scenario: s,
			Contender: staticContender(fl.Params{B: 8, E: 10, K: 20}, ""),
		})); err == nil {
			t.Errorf("%s: DecodeJobSpec should reject the malformed scenario", label)
		}
	}
	// A malformed workload is caught at decode time too, on both
	// decoders.
	if err := (ScenarioSpec{}).Validate(); err == nil {
		t.Error("zero workload should fail validation")
	}
	// Hand-authored scenario files fail loudly on misspelled fields
	// instead of silently simulating a default deployment.
	var loose map[string]any
	if err := json.Unmarshal(EncodeScenario(Ideal(w)), &loose); err != nil {
		t.Fatal(err)
	}
	loose["partitionn"] = map[string]any{"kind": "dirichlet"}
	typo, err := json.Marshal(loose)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeScenarios(typo); err == nil ||
		!strings.Contains(err.Error(), "partitionn") {
		t.Errorf("DecodeScenarios should reject the unknown field, got %v", err)
	}
}

// ScenarioMatrix must produce the full cross product in row-major
// order, name each combination by its axis assignments, and reject
// malformed axes.
func TestScenarioMatrix(t *testing.T) {
	w := workload.CNNMNIST()
	specs, err := ScenarioMatrix(w, "fleet=20,H2:M2:L4; alpha=iid,0.5; net=unstable")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 4 {
		t.Fatalf("2x2x1 matrix produced %d specs", len(specs))
	}
	if specs[0].Name != "fleet=20/alpha=iid/net=unstable" {
		t.Errorf("first spec name = %q", specs[0].Name)
	}
	// Last axis varies fastest: specs[1] flips alpha, specs[2] flips fleet.
	if specs[1].Partition.Kind != PartitionDirichlet || specs[1].Partition.Alpha != 0.5 {
		t.Errorf("specs[1] partition = %+v", specs[1].Partition)
	}
	if specs[2].Fleet.Mix != (device.FleetComposition{High: 2, Mid: 2, Low: 4}) {
		t.Errorf("specs[2] fleet = %+v", specs[2].Fleet)
	}
	if specs[0].Fleet.Composition().Total() != 20 {
		t.Errorf("specs[0] fleet total = %d", specs[0].Fleet.Composition().Total())
	}
	for _, s := range specs {
		if s.Network.Kind != netsim.KindUnstable {
			t.Errorf("%s: net axis not applied", s.Name)
		}
	}
	// Distinct combinations must address distinct cells.
	keys := map[string]bool{}
	for _, s := range specs {
		keys[s.cacheKey()] = true
	}
	if len(keys) != len(specs) {
		t.Errorf("matrix specs share cache keys: %d distinct for %d specs", len(keys), len(specs))
	}

	more, err := ScenarioMatrix(w, "intf=none,web-browsing@0.25,heavy-game;deadline=none,auto,90;rounds=50")
	if err != nil {
		t.Fatal(err)
	}
	if len(more) != 9 {
		t.Fatalf("3x3x1 matrix produced %d specs", len(more))
	}
	if more[1].Deadline.Kind != DeadlineAuto || more[2].Deadline.Seconds != 90 {
		t.Errorf("deadline axis not applied: %+v %+v", more[1].Deadline, more[2].Deadline)
	}
	if more[3].Interference.ActiveFraction != 0.25 {
		t.Errorf("intf fraction not applied: %+v", more[3].Interference)
	}
	if more[0].MaxRounds != 50 {
		t.Errorf("rounds axis not applied: %d", more[0].MaxRounds)
	}

	for _, bad := range []string{
		"", "fleet", "fleet=", "fleet=0", "fleet=H1:M1", "bogus=1",
		"alpha=-0.5", "net=5g", "intf=bogus", "intf=web-browsing@2",
		"deadline=-4", "rounds=0", "fleet=20;fleet=30", "alpha=iid,,0.5",
	} {
		if _, err := ScenarioMatrix(w, bad); err == nil {
			t.Errorf("matrix %q should fail to parse", bad)
		}
	}
}

// Matrix axes are untrusted input: a fleet or round budget past the
// resource ceilings must come back as a clear error, not as a fatal
// out-of-memory crash mid-sweep.
func TestScenarioMatrixRejectsOversizedSpecs(t *testing.T) {
	w := workload.CNNMNIST()
	for matrix, want := range map[string]string{
		"fleet=2000000000;rounds=60":    fmt.Sprintf("exceeds %d devices", MaxFleetDevices),
		"fleet=H2000000000:M0:L0":       fmt.Sprintf("exceeds %d devices", MaxFleetDevices),
		"fleet=20;rounds=2000000000":    fmt.Sprintf("MaxRounds must be in [0, %d]", MaxScenarioRounds),
		"fleet=20,2000000000;rounds=60": "fleet=2000000000",
	} {
		_, err := ScenarioMatrix(w, matrix)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("matrix %q: error = %v, want mention of %q", matrix, err, want)
		}
	}
	if _, err := ScenarioMatrix(w, fmt.Sprintf("fleet=%d;rounds=%d", MaxFleetDevices, MaxScenarioRounds)); err != nil {
		t.Errorf("matrix at the ceilings rejected: %v", err)
	}

	// Cardinality: the cross product is bounded before it is built, so
	// these would exhaust memory if the check came after the loop.
	seq := func(n int) string {
		vals := make([]string, n)
		for i := range vals {
			vals[i] = strconv.Itoa(i + 1)
		}
		return strings.Join(vals, ",")
	}
	tooMany := fmt.Sprintf("exceeds %d scenarios", MaxMatrixScenarios)
	for name, matrix := range map[string]string{
		"one past the ceiling": fmt.Sprintf("fleet=%s;rounds=%s", seq(100), seq(101)),
		"four 100-value axes": fmt.Sprintf("fleet=%s;deadline=%s;rounds=%s;alpha=%s",
			seq(100), seq(100), seq(100), seq(100)),
		// 2000^6 overflows int64; a naive product could wrap below the cap.
		"six 2000-value axes": fmt.Sprintf("fleet=%[1]s;alpha=%[1]s;net=%[1]s;intf=%[1]s;deadline=%[1]s;rounds=%[1]s",
			seq(2000)),
		"single oversized axis": "rounds=" + seq(MaxMatrixScenarios+1),
	} {
		_, err := ScenarioMatrix(w, matrix)
		if err == nil || !strings.Contains(err.Error(), tooMany) {
			t.Errorf("%s: error = %v, want mention of %q", name, err, tooMany)
		}
	}
	specs, err := ScenarioMatrix(w, fmt.Sprintf("fleet=%s;rounds=%s", seq(100), seq(100)))
	if err != nil {
		t.Fatalf("matrix of exactly %d scenarios rejected: %v", MaxMatrixScenarios, err)
	}
	if len(specs) != MaxMatrixScenarios {
		t.Errorf("matrix at the cardinality ceiling built %d specs, want %d", len(specs), MaxMatrixScenarios)
	}
}

// A scenario file holds at most MaxMatrixScenarios specs, the same
// ceiling a -matrix string has.
func TestDecodeScenariosCapsSpecCount(t *testing.T) {
	spec, err := json.Marshal(Ideal(workload.CNNMNIST()))
	if err != nil {
		t.Fatal(err)
	}
	file := func(n int) []byte {
		return []byte("[" + strings.TrimSuffix(strings.Repeat(string(spec)+",", n), ",") + "]")
	}
	specs, err := DecodeScenarios(file(MaxMatrixScenarios))
	if err != nil || len(specs) != MaxMatrixScenarios {
		t.Fatalf("file of exactly %d specs: %d specs, %v", MaxMatrixScenarios, len(specs), err)
	}
	tooMany := fmt.Sprintf("exceeds %d scenarios", MaxMatrixScenarios)
	if _, err := DecodeScenarios(file(MaxMatrixScenarios + 1)); err == nil || !strings.Contains(err.Error(), tooMany) {
		t.Errorf("file of %d specs: error = %v, want mention of %q", MaxMatrixScenarios+1, err, tooMany)
	}
	// The stream still rejects a malformed array.
	for _, bad := range []string{"[" + string(spec) + ",]", "[" + string(spec), "[1]", "[,]"} {
		if _, err := DecodeScenarios([]byte(bad)); err == nil {
			t.Errorf("malformed file %.40q accepted", bad)
		}
	}
}

// The -list-scenarios data source: every preset must be listed, build
// a valid spec for every workload, and resolve by name.
func TestPresetsCoverScenarios(t *testing.T) {
	names := map[string]bool{}
	for _, p := range Presets() {
		names[p.Name] = true
		for _, w := range workload.All() {
			s := p.Build(w)
			if err := s.Validate(); err != nil {
				t.Errorf("%s/%s: %v", p.Name, w.Name, err)
			}
			if s.Name != p.Name {
				t.Errorf("preset %q builds scenario named %q", p.Name, s.Name)
			}
		}
		got, err := PresetByName(p.Name)
		if err != nil || got.Name != p.Name {
			t.Errorf("PresetByName(%q) = %v, %v", p.Name, got.Name, err)
		}
	}
	for _, want := range []string{"ideal", "realistic", "interference",
		"unstable-network", "non-iid", "realistic-non-iid"} {
		if !names[want] {
			t.Errorf("preset %q missing", want)
		}
	}
	if _, err := PresetByName("bogus"); err == nil ||
		!strings.Contains(err.Error(), "valid:") {
		t.Errorf("PresetByName(bogus) error = %v", err)
	}
}
