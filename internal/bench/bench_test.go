package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tinyConfig keeps harness tests fast: a few hundred rows, one rep.
func tinyConfig() Config {
	return Config{Rows: 400, Seed: 1, Warmup: -1, Reps: 1}
}

// TestRunSmoke runs the full pipeline scenarios at tiny scale and
// asserts the snapshot carries non-zero values for every metric the
// acceptance criteria name: compress/decode rows/sec, queries/sec,
// allocs/op, and per-phase durations.
func TestRunSmoke(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scenarios = []string{"compress", "decompress", "query"}
	snap, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if snap.SchemaVersion != SchemaVersion || snap.CreatedAt == "" {
		t.Errorf("snapshot header incomplete: %+v", snap)
	}
	byName := map[string]ScenarioResult{}
	for _, sc := range snap.Scenarios {
		byName[sc.Name] = sc
		if sc.NsPerOp <= 0 || sc.AllocsPerOp <= 0 || sc.AllocBytesPerOp <= 0 {
			t.Errorf("%s: zero cost metrics: %+v", sc.Name, sc)
		}
	}
	comp, ok := byName["compress/cdr"]
	if !ok {
		t.Fatalf("compress/cdr missing from %v", snap.Scenarios)
	}
	if comp.RowsPerSec <= 0 || comp.BytesPerSec <= 0 || comp.Ratio <= 0 {
		t.Errorf("compress/cdr rates incomplete: %+v", comp)
	}
	if len(comp.PhaseNs) == 0 || comp.PhaseNs["cart_selection"] <= 0 {
		t.Errorf("compress/cdr missing per-phase durations: %+v", comp.PhaseNs)
	}
	if len(comp.PhaseAllocBytes) == 0 {
		t.Errorf("compress/cdr missing per-phase allocation attribution")
	}
	if dec := byName["decompress/cdr"]; dec.RowsPerSec <= 0 {
		t.Errorf("decompress/cdr rows/sec = %v, want > 0", dec.RowsPerSec)
	}
	for _, name := range []string{"query/aggregate", "query/archive"} {
		if q := byName[name]; q.QueriesPerSec <= 0 {
			t.Errorf("%s queries/sec = %v, want > 0", name, q.QueriesPerSec)
		}
	}
}

// TestRunScenarioFilter: prefix and exact filters select, unknown names
// error rather than silently measuring nothing.
func TestRunScenarioFilter(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scenarios = []string{"micro/cart_build"}
	snap, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Scenarios) != 1 || snap.Scenarios[0].Name != "micro/cart_build" {
		t.Fatalf("filter selected %v", snap.Scenarios)
	}
	cfg.Scenarios = []string{"no-such-scenario"}
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown scenario filter did not error")
	}
}

// TestHandicapRegression is the acceptance criterion's injected-slowdown
// check end to end: an honest snapshot diffed against itself is clean,
// while one recorded with the test-only Handicap hook must make Diff
// report a readable per-metric regression.
func TestHandicapRegression(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scenarios = []string{"micro/cart_build"}
	honest, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := Diff(honest, honest, DiffOptions{}).Regressions(); n != 0 {
		t.Fatalf("self-diff: %d regressions, want 0", n)
	}

	slow := cfg
	// Dwarf the honest ns/op so the verdict is noise-proof at any
	// plausible threshold.
	slow.Handicap = time.Duration(10 * honest.Scenarios[0].NsPerOp)
	if slow.Handicap < 50*time.Millisecond {
		slow.Handicap = 50 * time.Millisecond
	}
	handicapped, err := Run(slow)
	if err != nil {
		t.Fatal(err)
	}
	rep := Diff(honest, handicapped, DiffOptions{})
	if rep.Regressions() == 0 {
		t.Fatalf("handicapped run not flagged: honest %v ns/op vs handicapped %v ns/op",
			honest.Scenarios[0].NsPerOp, handicapped.Scenarios[0].NsPerOp)
	}
	var b strings.Builder
	rep.Write(&b)
	if !strings.Contains(b.String(), "REGRESSION") || !strings.Contains(b.String(), "ns_per_op") {
		t.Errorf("regression report not per-metric readable:\n%s", b.String())
	}
}

// TestProfileCapture: -profile writes a cpu and heap profile per
// scenario with flattened names.
func TestProfileCapture(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scenarios = []string{"micro/fascicle_cluster"}
	cfg.ProfileDir = t.TempDir()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"micro_fascicle_cluster_cpu.pprof", "micro_fascicle_cluster_heap.pprof"} {
		st, err := os.Stat(filepath.Join(cfg.ProfileDir, name))
		if err != nil {
			t.Errorf("profile %s: %v", name, err)
			continue
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", name)
		}
	}
}
