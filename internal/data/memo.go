package data

import "math/bits"

// Memo caches a Partition's pure per-device signals (sample counts,
// non-IID degrees, class counts) and owns the scratch buffer behind
// coverage queries, so the simulation round loop stops re-deriving
// identical entropy sums for every participant of every round. All
// queries return bit-identical values to the Partition methods they
// shadow — enforced by TestMemoMatchesPartition.
//
// Reset also builds one class bitset row per device — (NumClasses+63)/64
// words, bit c set when the device holds any class-c sample — so a
// coverage query ORs its participants' rows and counts bits instead of
// scanning every class of every participant. The count is the same
// integer the Partition method reaches, hence the same float.
//
// Reset is not safe for concurrent use; the query methods that take no
// scratch (DeviceSamples, NonIIDDegree, DeviceClassCount,
// DeviceClassFraction) are read-only after Reset and may be called from
// many goroutines. ParticipantSkew and ParticipantCoverage reuse
// internal scratch and must stay on one goroutine.
type Memo struct {
	p         Partition
	samples   []int
	degrees   []float64
	classCnt  []int
	classFrac []float64
	words     int      // uint64 words per class bitset row
	classBits []uint64 // device d's row is classBits[d*words : (d+1)*words]
	covered   []uint64 // coverage scratch, one row wide
}

// Reset points the memo at p and precomputes every per-device signal.
// It reuses the memo's backing arrays when they are large enough.
func (m *Memo) Reset(p Partition) {
	m.p = p
	n := p.NumDevices()
	if cap(m.samples) < n {
		m.samples = make([]int, n)
		m.degrees = make([]float64, n)
		m.classCnt = make([]int, n)
		m.classFrac = make([]float64, n)
	}
	m.samples = m.samples[:n]
	m.degrees = m.degrees[:n]
	m.classCnt = m.classCnt[:n]
	m.classFrac = m.classFrac[:n]
	m.words = (p.NumClasses + 63) / 64
	if cap(m.classBits) < n*m.words {
		m.classBits = make([]uint64, n*m.words)
	}
	m.classBits = m.classBits[:n*m.words]
	clear(m.classBits)
	for d := 0; d < n; d++ {
		m.samples[d] = p.DeviceSamples(d)
		m.degrees[d] = p.NonIIDDegree(d)
		m.classCnt[d] = p.DeviceClassCount(d)
		m.classFrac[d] = p.DeviceClassFraction(d)
		row := m.classBits[d*m.words : (d+1)*m.words]
		for c, cnt := range p.Counts[d] {
			if cnt > 0 {
				row[c/64] |= 1 << (c % 64)
			}
		}
	}
	if cap(m.covered) < m.words {
		m.covered = make([]uint64, m.words)
	}
	m.covered = m.covered[:m.words]
}

// DeviceSamples is Partition.DeviceSamples, memoized.
func (m *Memo) DeviceSamples(d int) int { return m.samples[d] }

// NonIIDDegree is Partition.NonIIDDegree, memoized.
func (m *Memo) NonIIDDegree(d int) float64 { return m.degrees[d] }

// DeviceClassCount is Partition.DeviceClassCount, memoized.
func (m *Memo) DeviceClassCount(d int) int { return m.classCnt[d] }

// DeviceClassFraction is Partition.DeviceClassFraction, memoized.
func (m *Memo) DeviceClassFraction(d int) float64 { return m.classFrac[d] }

// ParticipantSkew is Partition.ParticipantSkew over the memoized
// per-device signals: the accumulation order matches the original, so
// the result is bit-identical.
func (m *Memo) ParticipantSkew(devices []int) float64 {
	totalSamples := 0
	weighted := 0.0
	for _, d := range devices {
		n := m.samples[d]
		totalSamples += n
		weighted += float64(n) * m.degrees[d]
	}
	if totalSamples == 0 {
		return 0
	}
	return weighted / float64(totalSamples)
}

// ParticipantCoverage is Partition.ParticipantCoverage over the
// memoized class bitsets: the union of the participants' rows, counted.
func (m *Memo) ParticipantCoverage(devices []int) float64 {
	if m.p.NumClasses == 0 {
		return 0
	}
	covered := m.covered
	clear(covered)
	for _, d := range devices {
		for w, b := range m.classBits[d*m.words : (d+1)*m.words] {
			covered[w] |= b
		}
	}
	n := 0
	for _, b := range covered {
		n += bits.OnesCount64(b)
	}
	return float64(n) / float64(m.p.NumClasses)
}
