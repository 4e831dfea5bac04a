package sim

import (
	"fmt"
	"testing"

	"breakhammer/internal/workload"
)

// schedGoldenCases are small end-to-end runs whose memory-controller
// counters were recorded on the seed full-scan FR-FCFS scheduler, and
// re-recorded once, with results schema 5 (writebacks charged to no
// thread; fast-forward activations through the activate hooks). They
// pin the system-level observable behavior of the scheduler across
// reworks: a scheduling change that alters any command decision shifts
// cycles, ACT counts or gated-ACT counts and fails here. Regenerate the
// golden strings ONLY for an intentional, SchemaVersion-bumping
// behavior change (see DESIGN.md "Memory-controller scheduling").
//
// The sampled case runs the same point at sampledTestConfig's scale
// (warm-up and detail spans through System.runDetailed, fast-forward in
// between); its string was recorded with every cycle of those spans
// ticked, so it also pins that skipping idle cycles inside a sampled
// span changes nothing. The sampled PRAC case is the one whose
// fast-forward spans see back-offs, from benign rows too (whose next access
// would be a row hit): a back-off there is dropped (memctrl.Controller.
// SetFunctional), neither queued nor a row closure.
//
// The two 4-channel rows were recorded later, at schema 5, while the
// cycle batch could still also run on a worker pool (both executions
// gave these strings); they pin the channel-index drain order of
// memsys.Interleaved.Tick past two channels — PRAC's RFMs and back-offs
// in four channels, and a lockstep BlockHammer run whose ActGate acts
// inside the batch.
var schedGoldenCases = []struct {
	name    string
	mix     string
	mech    string
	bh      bool
	nrh     int
	chans   int
	sampled bool
	golden  string // filled by TestSchedulerGoldenStats's formatter
}{
	{name: "attack-graphene-bh", mix: "MLLA", mech: "graphene", bh: true, nrh: 256, chans: 1,
		golden: "cycles=152576 acts=12319 hits=1054 reads=13075 writes=64 ref=32 vrr=408 rfm=0 mig=0 aux=0 gated=0 total=12346 backoff=0 actions=103"},
	{name: "benign-rfm", mix: "HML", mech: "rfm", bh: false, nrh: 512, chans: 1,
		golden: "cycles=152576 acts=3811 hits=1707 reads=5512 writes=193 ref=32 vrr=0 rfm=37 mig=0 aux=0 gated=0 total=3887 backoff=0 actions=37"},
	{name: "attack-blockhammer-gated", mix: "LLA", mech: "blockhammer", bh: false, nrh: 32, chans: 1,
		golden: "cycles=47104 acts=2380 hits=480 reads=2810 writes=0 ref=10 vrr=0 rfm=0 mig=0 aux=0 gated=44265 total=2380 backoff=0 actions=3"},
	{name: "attack-2ch-hydra", mix: "MLLA", mech: "hydra", bh: true, nrh: 256, chans: 2,
		golden: "cycles=93184 acts=6142 hits=1297 reads=7431 writes=65 ref=38 vrr=0 rfm=0 mig=0 aux=172 gated=0 total=6174 backoff=0 actions=172"},
	{name: "attack-aqua-migrations", mix: "LA", mech: "aqua", bh: false, nrh: 64, chans: 1,
		golden: "cycles=96256 acts=5640 hits=237 reads=5776 writes=0 ref=20 vrr=0 rfm=0 mig=132 aux=0 gated=0 total=5640 backoff=0 actions=132"},
	{name: "attack-4ch-prac-bh", mix: "HHMA", mech: "prac", bh: true, nrh: 16, chans: 4,
		golden: "cycles=1006592 acts=11438 hits=1677 reads=13115 writes=457 ref=859 vrr=0 rfm=3365 mig=0 aux=0 gated=0 total=11661 backoff=1535808 actions=842"},
	{name: "attack-4ch-blockhammer", mix: "MLLA", mech: "blockhammer", bh: false, nrh: 128, chans: 4,
		golden: "cycles=135168 acts=11916 hits=1802 reads=13713 writes=66 ref=112 vrr=0 rfm=0 mig=0 aux=0 gated=36229 total=11948 backoff=0 actions=24"},
	{name: "sampled-graphene-bh", mix: "MLLA", mech: "graphene", bh: true, nrh: 256, chans: 1, sampled: true,
		golden: "cycles=593776 acts=6760 hits=1609 reads=8316 writes=71 ref=24 vrr=156 rfm=0 mig=0 aux=0 gated=0 total=6792 backoff=0 actions=343 detailed=123197 ff=470579 windows=12"},
	{name: "sampled-prac-bh", mix: "HHMA", mech: "prac", bh: true, nrh: 16, chans: 2, sampled: true,
		golden: "cycles=6788048 acts=17617 hits=2915 reads=20509 writes=890 ref=809 vrr=0 rfm=4344 mig=0 aux=0 gated=0 total=18074 backoff=1980864 actions=5296 detailed=1929970 ff=4858078 windows=136"},
}

// schedGoldenFingerprint compresses a run's scheduler-observable outcome
// into one comparable line.
func schedGoldenFingerprint(res MixResult) string {
	mc := res.MC
	var acts, hits, reads int64
	for i := range mc.DemandACTs {
		acts += mc.DemandACTs[i]
		hits += mc.RowHits[i]
		reads += mc.ReadsDone[i]
	}
	fp := fmt.Sprintf("cycles=%d acts=%d hits=%d reads=%d writes=%d ref=%d vrr=%d rfm=%d mig=%d aux=%d gated=%d total=%d backoff=%d actions=%d",
		res.Cycles, acts, hits, reads, mc.WritesDone, mc.Refreshes, mc.VRRs,
		mc.RFMs, mc.Migrations, mc.AuxAccesses, mc.GatedACTs, mc.TotalACTs,
		mc.BackoffCycles, res.Actions)
	if sum := res.Sampling; sum != nil {
		fp += fmt.Sprintf(" detailed=%d ff=%d windows=%d", sum.DetailedCycles, sum.FFCycles, sum.Windows)
	}
	return fp
}

func schedGoldenRun(t *testing.T, i int) MixResult {
	t.Helper()
	tc := schedGoldenCases[i]
	cfg := FastConfig()
	cfg.TargetInsts = 60_000
	cfg.BHWindow = 150_000
	cfg.Mechanism = tc.mech
	cfg.NRH = tc.nrh
	cfg.BreakHammer = tc.bh
	cfg.Channels = tc.chans
	cfg.Seed = 11
	if tc.sampled {
		sc := sampledTestConfig(tc.chans)
		cfg.TargetInsts, cfg.Sampling = sc.TargetInsts, sc.Sampling
	}
	mix, err := workload.ParseMix(tc.mix, 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunMix(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSchedulerGoldenStats locks the end-to-end scheduler behavior to
// the recorded seed-tree fingerprints.
func TestSchedulerGoldenStats(t *testing.T) {
	for i, tc := range schedGoldenCases {
		i, tc := i, tc
		t.Run(tc.name, func(t *testing.T) {
			got := schedGoldenFingerprint(schedGoldenRun(t, i))
			if got != tc.golden {
				t.Errorf("scheduler fingerprint drifted:\n got    %s\n golden %s", got, tc.golden)
			}
		})
	}
}
