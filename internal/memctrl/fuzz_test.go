package memctrl

import (
	"encoding/binary"
	"testing"
)

// Fuzzing the scheduler against its two judges: fuzzer bytes pick a
// diffProfile and a seed, and the production controller must match the
// frozen seed scheduler (checkMatchesReference) and its own forced-polling
// twin (checkSleepMatchesPolling) on the stream they generate.

// profileBytes is the length of an encoded profile.
const profileBytes = 24

// encodeProfile is decodeProfile's inverse for in-range profiles:
// probabilities in per mille, cycles in thousands, gaps in hundreds.
func encodeProfile(p diffProfile, seed int64) []byte {
	b := make([]byte, profileBytes)
	b[0] = byte(p.banks - 1)
	b[1] = byte(p.rows - 1)
	binary.LittleEndian.PutUint16(b[2:], uint16(p.readProb*1000+0.5))
	binary.LittleEndian.PutUint16(b[4:], uint16(p.enqProb*1000+0.5))
	binary.LittleEndian.PutUint16(b[6:], uint16(p.prevProb*1000+0.5))
	for i, on := range []bool{p.gate, p.backoff} {
		if on {
			b[8] |= 1 << i
		}
	}
	b[9] = byte(p.burst - 1)
	b[10] = byte(p.cycles/1000 - 1)
	b[11] = byte(p.gapEvery / 100)
	b[12] = byte(p.gapLen / 100)
	binary.LittleEndian.PutUint16(b[13:], uint16(p.backoffIn))
	b[15] = byte(p.fillWB)
	binary.LittleEndian.PutUint64(b[16:], uint64(seed))
	return b
}

// decodeProfile maps any bytes to a valid profile (missing bytes read as
// zero): at most 8 banks, 16 rows and bursts of 16, 80 000 cycles, and
// a gap shorter than its period.
func decodeProfile(data []byte) (p diffProfile, seed int64) {
	var b [profileBytes]byte
	copy(b[:], data)
	prob := func(i int) float64 {
		return float64(min(binary.LittleEndian.Uint16(b[i:]), 1000)) / 1000
	}
	p = diffProfile{
		name:      "fuzz",
		banks:     1 + int(b[0]%8),
		rows:      1 + int(b[1]%16),
		readProb:  prob(2),
		enqProb:   prob(4),
		prevProb:  prob(6),
		gate:      b[8]&1 != 0,
		backoff:   b[8]&2 != 0,
		burst:     1 + int(b[9]%16),
		cycles:    1000 * (1 + int64(b[10]%80)),
		gapEvery:  100 * int64(b[11]),
		gapLen:    100 * int64(b[12]),
		backoffIn: int(binary.LittleEndian.Uint16(b[13:])),
		fillWB:    int(b[15]),
	}
	if p.gapLen >= p.gapEvery {
		p.gapEvery, p.gapLen = 0, 0
	}
	return p, int64(binary.LittleEndian.Uint64(b[16:]))
}

// FuzzSchedulerMatchesReference rolls request streams — bank and row
// spread, read/enqueue/preventive rates, bursts, idle gaps, gate,
// back-off, writebacks enqueued from inside the fill callback — and holds
// the production controller to both judges. The seeds are the
// differential tests' profiles, each under its first seed.
func FuzzSchedulerMatchesReference(f *testing.F) {
	for _, p := range diffProfiles() {
		f.Add(encodeProfile(p, 1))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, seed := decodeProfile(data)
		checkMatchesReference(t, p, seed)
		checkSleepMatchesPolling(t, p, seed)
	})
}

// TestFuzzProfileRoundTrips keeps the seed corpus honest: every
// differential profile survives the byte encoding unchanged (up to its
// name).
func TestFuzzProfileRoundTrips(t *testing.T) {
	for _, want := range diffProfiles() {
		got, seed := decodeProfile(encodeProfile(want, 7))
		got.name = want.name
		if got != want || seed != 7 {
			t.Errorf("%s decoded as %+v (seed %d)", want.name, got, seed)
		}
	}
}
