package data

import (
	"math"
	"testing"

	"fedgpo/internal/stats"
)

// TestMemoMatchesPartition is the memo's contract: every query must be
// bit-identical to the Partition method it shadows, for IID and
// Dirichlet partitions, for class bitsets of one and many words, and
// across Reset reuse.
func TestMemoMatchesPartition(t *testing.T) {
	rng := stats.NewRNG(11)
	withEmpty := Dirichlet(30, 80, 400, PaperAlpha, rng)
	withEmpty.Counts[1] = make([]int, 80) // a device holding no samples
	parts := map[string]Partition{
		"iid":       IID(40, 10, 300),
		"dirichlet": Dirichlet(40, 10, 300, PaperAlpha, rng),
		"smaller":   Dirichlet(15, 4, 60, 0.5, rng),
		"80-class":  withEmpty,
		"1000-iid":  IID(25, 1000, 250),
		"1000-dir":  Dirichlet(25, 1000, 250, PaperAlpha, rng),
	}
	var m Memo
	// Reset the same memo across partitions of different sizes: reuse
	// must not leak one partition's signals into the next — in
	// particular, going from 1000 classes down to 4 must not leave
	// stale high bitset words behind.
	for _, name := range []string{"iid", "dirichlet", "smaller", "80-class", "1000-dir", "smaller", "1000-iid", "iid"} {
		p := parts[name]
		m.Reset(p)
		n := p.NumDevices()
		for d := 0; d < n; d++ {
			if got, want := m.DeviceSamples(d), p.DeviceSamples(d); got != want {
				t.Fatalf("%s: DeviceSamples(%d) = %d, want %d", name, d, got, want)
			}
			if got, want := m.NonIIDDegree(d), p.NonIIDDegree(d); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: NonIIDDegree(%d) = %v, want %v", name, d, got, want)
			}
			if got, want := m.DeviceClassCount(d), p.DeviceClassCount(d); got != want {
				t.Fatalf("%s: DeviceClassCount(%d) = %d, want %d", name, d, got, want)
			}
			if got, want := m.DeviceClassFraction(d), p.DeviceClassFraction(d); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: DeviceClassFraction(%d) = %v, want %v", name, d, got, want)
			}
		}
		sets := [][]int{
			nil,
			{0},
			{1},
			{0, 1, 2},
			{n - 1, n - 2, 0},
			{3, 7, 11, 13, 3},
		}
		for _, devs := range sets {
			if got, want := m.ParticipantSkew(devs), p.ParticipantSkew(devs); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: ParticipantSkew(%v) = %v, want %v", name, devs, got, want)
			}
			if got, want := m.ParticipantCoverage(devs), p.ParticipantCoverage(devs); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: ParticipantCoverage(%v) = %v, want %v", name, devs, got, want)
			}
		}
	}
}

// BenchmarkParticipantCoverage times one round's coverage query on the
// 1000-class workload: 20 participants of a 100-device Dirichlet fleet.
func BenchmarkParticipantCoverage(b *testing.B) {
	p := Dirichlet(100, 1000, 250, PaperAlpha, stats.NewRNG(5))
	var m Memo
	m.Reset(p)
	devs := make([]int, 20)
	for i := range devs {
		devs[i] = i * 5
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ParticipantCoverage(devs)
	}
}
