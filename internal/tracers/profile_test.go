package tracers

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"

	"github.com/tracesynth/rostracer/internal/apps"
	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
)

// profileSession runs one traced AVP session and returns its bundle and
// trace. If loadFrom is non-empty the bundle seeds its warmup profiles
// from that file before any probe fires; checkWarm then verifies the
// restart-warmup guarantee at that moment.
func profileSession(t *testing.T, loadFrom string, checkWarm func(*Bundle)) (*Bundle, *trace.Trace) {
	t.Helper()
	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 4, Seed: 7})
	w.Runtime().SetHotThreshold(16)
	b, err := NewBundle(w.Runtime())
	if err != nil {
		t.Fatal(err)
	}
	if loadFrom != "" {
		applied, err := b.LoadProfiles(loadFrom)
		if err != nil {
			t.Fatal(err)
		}
		if applied == 0 {
			t.Fatal("saved profile seeded no programs")
		}
	}
	if checkWarm != nil {
		checkWarm(b)
	}
	BridgeSched(w.Machine(), w.Runtime())
	if err := b.StartRT(); err != nil {
		t.Fatal(err)
	}
	if err := b.StartKernel(true); err != nil {
		t.Fatal(err)
	}
	apps.BuildAVP(w, apps.AVPConfig{})
	w.Run(1 * sim.Second)
	tr, err := b.Drain()
	if err != nil {
		t.Fatal(err)
	}
	return b, tr
}

// TestProfileRestartWarmup is the restart guarantee of profile
// persistence: a session saves its warmup profiles, and a re-created
// world that loads them dispatches at tier >= 1 from its very first fire
// — before a single probe has run — for every program the first session
// promoted. The warmed session's trace must also be identical to a cold
// session's: a loaded profile may only skip the warmup, never change
// behavior.
func TestProfileRestartWarmup(t *testing.T) {
	path := t.TempDir() + "/profiles.json"

	b1, coldTrace := profileSession(t, "", nil)
	promoted := map[string]int{}
	for name, tier := range b1.ProgramTiers() {
		if tier >= 1 {
			promoted[name] = tier
		}
	}
	if len(promoted) == 0 {
		t.Fatal("first session promoted nothing; the restart test would be vacuous")
	}
	if err := b1.SaveProfiles(path); err != nil {
		t.Fatal(err)
	}

	_, warmTrace := profileSession(t, path, func(b *Bundle) {
		tiers := b.ProgramTiers()
		for name := range promoted {
			if tiers[name] < 1 {
				t.Errorf("program %s at tier %d before first fire, want >= 1", name, tiers[name])
			}
		}
	})

	if warmTrace.Len() != coldTrace.Len() {
		t.Fatalf("warmed session trace has %d events, cold session %d", warmTrace.Len(), coldTrace.Len())
	}
	for i := range warmTrace.Events {
		if warmTrace.Events[i] != coldTrace.Events[i] {
			t.Fatalf("event %d diverged between warmed and cold session:\n%v\n%v",
				i, warmTrace.Events[i], coldTrace.Events[i])
		}
	}
}

// TestProfileIdentityGuard checks the identity validation: a profile
// saved under one hot threshold and program set applies only to programs
// whose name and instruction hash still match, and a missing file is a
// clean no-op.
func TestProfileIdentityGuard(t *testing.T) {
	path := t.TempDir() + "/profiles.json"

	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 2, Seed: 1})
	w.Runtime().SetHotThreshold(0)
	b, err := NewBundle(w.Runtime())
	if err != nil {
		t.Fatal(err)
	}
	if n, err := b.LoadProfiles(path); err != nil || n != 0 {
		t.Fatalf("missing profile file: applied %d, err %v; want 0, nil", n, err)
	}
	if err := b.SaveProfiles(path); err != nil {
		t.Fatal(err)
	}

	w2 := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 2, Seed: 1})
	w2.Runtime().SetHotThreshold(0)
	b2, err := NewBundle(w2.Runtime())
	if err != nil {
		t.Fatal(err)
	}
	profs := b.Profiles()
	if len(profs) == 0 {
		t.Fatal("no profiles snapshotted")
	}
	// Corrupt one profile's hash: it must be skipped, the rest applied.
	profs[0].Hash ^= 1
	if applied := b2.ApplyProfiles(profs); applied != len(profs)-1 {
		t.Fatalf("applied %d profiles, want %d (one stale hash skipped)", applied, len(profs)-1)
	}
}

// TestProfileUnreadableStartsCold covers the files a killed or broken
// previous run can leave behind — a truncated profile, garbage, an
// empty file. LoadProfiles must report an error naming the file and
// leave every program cold, and the next SaveProfiles must replace the
// file whole, leaving no temporary file behind.
func TestProfileUnreadableStartsCold(t *testing.T) {
	dir := t.TempDir()
	good := dir + "/good.json"
	b1, _ := profileSession(t, "", nil)
	if err := b1.SaveProfiles(good); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	if len(saved) <= 300 {
		t.Fatalf("saved profile is only %d bytes; truncating it to 300 would not damage it", len(saved))
	}

	newBundle := func() *Bundle {
		w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 4, Seed: 7})
		w.Runtime().SetHotThreshold(16)
		b, err := NewBundle(w.Runtime())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cold := newBundle().ProgramTiers()

	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"truncated", saved[:300]},
		{"garbage", []byte("\x00\x01not a profile{{")},
		{"empty", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := dir + "/" + tc.name + ".json"
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			b := newBundle()
			applied, err := b.LoadProfiles(path)
			if err == nil || applied != 0 {
				t.Fatalf("LoadProfiles = %d, %v; want 0 and an error", applied, err)
			}
			if !strings.Contains(err.Error(), path) {
				t.Fatalf("error %q does not name the file %s", err, path)
			}
			if tiers := b.ProgramTiers(); !reflect.DeepEqual(tiers, cold) {
				t.Fatalf("failed load changed program tiers: %v, cold bundle has %v", tiers, cold)
			}

			if err := b1.SaveProfiles(path); err != nil {
				t.Fatal(err)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, saved) {
				t.Fatalf("re-saved profile differs from the original save (err %v)", err)
			}
			if n, err := newBundle().LoadProfiles(path); err != nil || n == 0 {
				t.Fatalf("re-saved profile: applied %d, err %v", n, err)
			}
		})
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("SaveProfiles left a temporary file behind: %s", e.Name())
		}
	}
}
