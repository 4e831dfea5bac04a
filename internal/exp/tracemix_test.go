package exp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"breakhammer/internal/results"
	"breakhammer/internal/workload"
)

// traceTestFile writes a small replayable trace and returns its path.
// Moderate bubbles keep the implied MPKI high enough that trace points
// simulate quickly.
func traceTestFile(t *testing.T, dir, name string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteTrace(f, workload.ClassSpec(workload.Medium, 0, 42), 0, 400); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTraceMixesCatalogue: shapes and naming of the trace-driven
// workload catalogue. Names must be position-based — they enter the
// fingerprint, and cached points must survive file renames.
func TestTraceMixesCatalogue(t *testing.T) {
	files := []string{"/data/a.trace", "/data/b.trace"}
	benign := TraceMixes(files, 3, false)
	if len(benign) != 1 {
		t.Fatalf("benign trace family = %d mixes, want 1 (replay is deterministic)", len(benign))
	}
	if benign[0].Name != "TRACE-0" || len(benign[0].Specs) != 2 || benign[0].HasAttacker() {
		t.Errorf("benign mix = %+v", benign[0])
	}
	attack := TraceMixes(files, 3, true)
	if len(attack) != 3 {
		t.Fatalf("attack trace family = %d mixes, want 3", len(attack))
	}
	for i, m := range attack {
		if !m.HasAttacker() || len(m.Specs) != 3 {
			t.Errorf("attack mix %d = %d specs, attacker %v", i, len(m.Specs), m.HasAttacker())
		}
		if m.Name != "TRACEA-"+string(rune('0'+i)) {
			t.Errorf("attack mix %d named %q", i, m.Name)
		}
	}
	for _, m := range append(benign, attack...) {
		for _, s := range m.Specs {
			if strings.Contains(s.Name, ".trace") {
				t.Errorf("spec name %q derives from the file path", s.Name)
			}
		}
	}
}

// TestTraceSweepKeyedByContent is the PR's acceptance criterion: a sweep
// point driven by trace files is cached under a key derived from the
// traces' content. Re-running after renaming the trace file performs
// zero simulations; editing one record changes the key (and therefore
// re-simulates).
func TestTraceSweepKeyedByContent(t *testing.T) {
	cacheDir := t.TempDir()
	traceDir := t.TempDir()
	path := traceTestFile(t, traceDir, "w.trace")

	opts := tinyOptions()
	opts.Traces = []string{path}
	names := []string{"13"}

	store1, err := results.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewRunnerWithStore(opts, store1)
	if err := r1.Prefetch(r1.PointsFor(names)); err != nil {
		t.Fatal(err)
	}
	if r1.Executed() == 0 {
		t.Fatal("cold trace sweep executed no simulations")
	}
	first, err := r1.Figure13()
	if err != nil {
		t.Fatal(err)
	}

	// Rename the trace file: the content is unchanged, so a sweep naming
	// the new path must perform zero simulations.
	renamed := filepath.Join(traceDir, "renamed.trace")
	if err := os.Rename(path, renamed); err != nil {
		t.Fatal(err)
	}
	optsRenamed := opts
	optsRenamed.Traces = []string{renamed}
	store2, err := results.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRunnerWithStore(optsRenamed, store2)
	if err := r2.Prefetch(r2.PointsFor(names)); err != nil {
		t.Fatal(err)
	}
	if got := r2.Executed(); got != 0 {
		t.Errorf("sweep after rename executed %d simulations, want 0", got)
	}
	warm, err := r2.Figure13()
	if err != nil {
		t.Fatal(err)
	}
	if warm.CSV() != first.CSV() {
		t.Error("renamed-trace sweep rendered a different figure")
	}

	// Edit one record: the content hash — and with it every store key —
	// changes, so the same sweep re-simulates.
	keyBefore := pointKey(t, r2, Point{Mech: "rfm", NRH: 128})
	raw, err := os.ReadFile(renamed)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")
	lines[1] = "7 0x9999 W" // replace the first record
	if err := os.WriteFile(renamed, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	store3, err := results.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	r3 := NewRunnerWithStore(optsRenamed, store3)
	keyAfter := pointKey(t, r3, Point{Mech: "rfm", NRH: 128})
	if keyBefore == keyAfter {
		t.Fatal("editing a trace record did not change the store key")
	}
	if err := r3.Prefetch(r3.PointsFor(names)); err != nil {
		t.Fatal(err)
	}
	if got := r3.Executed(); got == 0 {
		t.Error("sweep over the edited trace reused stale cached points")
	}
}

// TestCoverageTracksTraceEdits: a long-running runner's memoized
// Coverage keys must not go stale when a trace file is edited in place
// — the edited content changes every key, so a figure that was fully
// cached must report cold until re-simulated.
func TestCoverageTracksTraceEdits(t *testing.T) {
	cacheDir := t.TempDir()
	traceDir := t.TempDir()
	path := traceTestFile(t, traceDir, "w.trace")

	opts := tinyOptions()
	opts.Traces = []string{path}
	store, err := results.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunnerWithStore(opts, store)
	if err := r.Prefetch(r.PointsFor([]string{"13"})); err != nil {
		t.Fatal(err)
	}
	cached, total, err := r.Coverage("13")
	if err != nil {
		t.Fatal(err)
	}
	if cached != total || total == 0 {
		t.Fatalf("warm coverage = %d/%d, want full", cached, total)
	}
	p := r.PointsFor([]string{"13"})[0]
	keyBefore, err := r.PointKey(p)
	if err != nil {
		t.Fatal(err)
	}
	derived := r.derivations
	if again, err := r.PointKey(p); err != nil || again != keyBefore || r.derivations != derived {
		t.Fatalf("PointKey on an unchanged trace: key %.12s then %.12s (err %v), %d re-derivations",
			keyBefore, again, err, r.derivations-derived)
	}

	// Edit the trace in place (content and size change; nudge mtime for
	// coarse filesystem clocks) on the SAME runner: coverage must drop.
	if err := os.WriteFile(path, []byte("# edited\n9 0x40 R\n9 0x80 W\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cached, total, err = r.Coverage("13")
	if err != nil {
		t.Fatal(err)
	}
	if cached != 0 {
		t.Errorf("coverage after trace edit = %d/%d, want 0 cached (memoized keys went stale)", cached, total)
	}
	if keyAfter, err := r.PointKey(p); err != nil || keyAfter == keyBefore {
		t.Errorf("PointKey after trace edit = %.12s (err %v), the pre-edit key: the memo outlived its epoch", keyAfter, err)
	}
	if r.derivations == derived {
		t.Error("no point key was re-derived after the trace edit")
	}

	// A trace file vanishing under a live runner must not take down
	// coverage reporting: the last resolved epoch's keys keep serving.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Coverage("13"); err != nil {
		t.Errorf("coverage errored after the trace file vanished: %v", err)
	}
}

// pointKey derives one point's store key through the runner's own
// config/mix expansion.
func pointKey(t *testing.T, r *Runner, p Point) string {
	t.Helper()
	key, err := results.Key(r.configFor(p), r.mixes(p.Attack))
	if err != nil {
		t.Fatal(err)
	}
	return key
}
