package tracers

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"github.com/tracesynth/rostracer/internal/ebpf"
)

// Bundle-level profile persistence: the warmup profile of every tracer
// program, serialized as one JSON document, so a re-created bundle (a
// harness re-run, a rostracer session restart) seeds its tier-0 counters
// from the previous session and dispatches at tier >= 1 from its first
// fire instead of re-warming past the hot threshold.

// profileFileVersion guards the on-disk schema; a bumped version simply
// invalidates old files (a stale profile costs a warmup, never
// correctness).
const profileFileVersion = 1

// ProfileSet is the on-disk form of a bundle's warmup profiles.
type ProfileSet struct {
	Version  int                   `json:"version"`
	Programs []ebpf.ProgramProfile `json:"programs"`
}

// Profiles snapshots the warmup profile of every loaded program, sorted
// by name so the serialized form is deterministic. Programs that never
// decoded are skipped.
func (b *Bundle) Profiles() []ebpf.ProgramProfile {
	names := make([]string, 0, len(b.progs))
	for name := range b.progs {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]ebpf.ProgramProfile, 0, len(names))
	for _, name := range names {
		if prof, ok := b.progs[name].Profile(); ok {
			out = append(out, prof)
		}
	}
	return out
}

// ApplyProfiles seeds the bundle's programs from saved profiles, matched
// by name and validated against program identity. Profiles for unknown
// programs or with a stale identity hash are skipped — a profile from an
// older build costs a warmup, never a wrong seed — and applied reports
// how many programs were actually seeded. Programs whose seeded run
// count has already crossed the hot threshold promote immediately.
func (b *Bundle) ApplyProfiles(profs []ebpf.ProgramProfile) (applied int) {
	for _, prof := range profs {
		p, ok := b.progs[prof.Name]
		if !ok {
			continue
		}
		if err := p.ApplyProfile(prof); err != nil {
			continue
		}
		applied++
	}
	return applied
}

// ProgramTiers reports every program's current dispatch tier by name
// (-1 undecoded, 0 warmup, 1 profile-guided, 2 trace-carrying).
func (b *Bundle) ProgramTiers() map[string]int {
	out := make(map[string]int, len(b.progs))
	for name, p := range b.progs {
		out[name] = p.DecodeTier()
	}
	return out
}

// TierCounts tallies the bundle's programs per dispatch tier:
// counts[0..2] are tiers 0..2, undecoded programs are not counted.
func (b *Bundle) TierCounts() [3]int {
	var counts [3]int
	for _, p := range b.progs {
		if t := p.DecodeTier(); t >= 0 && t < 3 {
			counts[t]++
		}
	}
	return counts
}

// SaveProfiles writes the bundle's warmup profiles to path. The new
// profile is written and fsynced to a temporary file in the same
// directory, then renamed over path: a crash or a failed write at any
// instant leaves either the previous profile or the new one, never a
// truncated file.
func (b *Bundle) SaveProfiles(path string) (retErr error) {
	set := ProfileSet{Version: profileFileVersion, Programs: b.Profiles()}
	data, err := json.MarshalIndent(&set, "", "  ")
	if err != nil {
		return fmt.Errorf("tracers: encoding profiles: %w", err)
	}
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("tracers: writing profiles: %w", err)
	}
	defer func() {
		if retErr != nil {
			f.Close()
			os.Remove(f.Name())
			retErr = fmt.Errorf("tracers: writing profiles: %w", retErr)
		}
	}()
	if _, err := f.Write(append(data, '\n')); err != nil {
		return err
	}
	if err := f.Chmod(0o644); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// LoadProfiles reads a profile set written by SaveProfiles and seeds the
// bundle from it. A missing file is not an error — a first session has
// nothing to warm from — and reports applied = 0. A file that cannot be
// read or decoded returns an error naming it and leaves every program
// cold; a caller starting a session should warn and carry on, since a
// lost profile costs a warmup, never correctness.
func (b *Bundle) LoadProfiles(path string) (applied int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("tracers: reading profiles: %w", err)
	}
	var set ProfileSet
	if err := json.Unmarshal(data, &set); err != nil {
		return 0, fmt.Errorf("tracers: decoding profiles %s: %w", path, err)
	}
	if set.Version != profileFileVersion {
		return 0, nil // stale schema: fall back to a cold warmup
	}
	return b.ApplyProfiles(set.Programs), nil
}
