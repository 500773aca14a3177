package explore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/campaign"
	"repro/internal/check"
	"repro/internal/core"
)

// ReproVersion is the run-file format version. Version 1 mirrored a few
// Config fields by hand and silently dropped the rest; version 2 carries the
// Config whole.
const ReproVersion = 2

// Expect states what a repro must reproduce.
type Expect struct {
	// Verdict is the expected classification, always "UNSAFE".
	Verdict string `json:"verdict"`
	// Kind is the expected violation kind name (empty accepts any
	// violation — rejoin and inconsistency verdicts carry no kind).
	Kind string `json:"kind,omitempty"`
}

// Repro is the one file format of a run: the whole run configuration —
// workload, topology, seed and the exact fault schedule. A file with
// an expected verdict is a self-contained, replayable violation, with the
// checker's first-divergence triage attached; a file without one is a plain
// configuration (configs/*.json). Either needs nothing but the binary to run:
// `faultsim -replay-file <path>`.
type Repro struct {
	Version     int    `json:"version"`
	Description string `json:"description,omitempty"`
	// Config is the run: for a repro, the one that violated, under the
	// (minimized) schedule.
	Config core.Config `json:"config"`
	// Expect is the verdict the replay must produce; nil for a plain
	// configuration.
	Expect *Expect `json:"expect,omitempty"`
	// Triage is the checker's first-divergence annotation from the run
	// that produced the repro.
	Triage *check.Triage `json:"triage,omitempty"`
}

// Config is the run configuration of one schedule in the fault space p
// describes: the base workload under the schedule's faults and seed.
func Config(base core.Config, p campaign.Params, genes []Gene, seed int64) core.Config {
	return spaceOf(p).config(base, genes, seed)
}

func (s space) config(base core.Config, genes []Gene, seed int64) core.Config {
	base.Seed = seed
	base.Faults = s.toFaults(genes)
	return base
}

// ReproOf packages a violating run as a self-contained repro: its whole
// configuration, the expected verdict and, when res is given, the triage and
// description of its violation. A config with a Calibration is refused: the
// file could not carry it, so the replay would be a different run.
func ReproOf(cfg core.Config, res *core.Results) (*Repro, error) {
	if cfg.Calibration != nil {
		return nil, fmt.Errorf("explore: a repro cannot carry Config.Calibration")
	}
	r := &Repro{
		Version: ReproVersion,
		Config:  cfg,
		Expect:  &Expect{Verdict: "UNSAFE"},
	}
	if res != nil {
		if t := check.TriageOf(res.SafetyErr); t != nil {
			r.Triage = t
			r.Expect.Kind = t.Kind
		}
		if v := res.Verdict(); v != nil {
			r.Description = v.Error()
		}
	}
	return r, nil
}

// Replay runs the file and reports whether the expected violation
// reproduced (for a plain configuration, any violation), with the verdict
// detail.
func (r *Repro) Replay() (reproduced bool, detail string, err error) {
	res, err := core.Run(r.Config)
	if err != nil {
		return false, "", fmt.Errorf("explore: repro: %w", err)
	}
	v := res.Verdict()
	if v == nil {
		return false, "SAFE", nil
	}
	detail = v.Error()
	if r.Expect != nil && r.Expect.Kind != "" {
		t := check.TriageOf(res.SafetyErr)
		if t == nil || t.Kind != r.Expect.Kind {
			return false, detail, nil
		}
	}
	return true, detail, nil
}

// Marshal renders the repro as stable, indented JSON (struct field order,
// no maps), so identical repros are byte-identical files.
func (r *Repro) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Save writes the repro under dir with its canonical name and returns the
// full path.
func (r *Repro) Save(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := r.Marshal()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, r.Name())
	return path, os.WriteFile(path, b, 0o644)
}

// Name is the repro's canonical file name: protocol, topology, seed, and
// violation kind, so a corpus directory reads as an index.
func (r *Repro) Name() string {
	kind := "unsafe"
	if r.Expect != nil && r.Expect.Kind != "" {
		kind = r.Expect.Kind
	}
	c := &r.Config
	topo := fmt.Sprintf("s%d", c.Sites)
	if c.Groups > 1 {
		topo = fmt.Sprintf("g%dx%d", c.Groups, c.Sites)
	}
	return fmt.Sprintf("repro-%s-%s-%s-%d.json", c.Protocol, topo, kind, c.Seed)
}

// LoadRepro reads a run file, repro or plain configuration. It is strict: a
// key the format does not have (a misspelled "clinets", say) is an error
// naming it, not a field silently left at its default.
func LoadRepro(path string) (*Repro, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	// The version first, so a file of another version is refused by its
	// number rather than by the first key this version lacks.
	var v struct{ Version int }
	if err := json.Unmarshal(b, &v); err != nil {
		return nil, fmt.Errorf("explore: %s: %w", path, err)
	}
	if v.Version != ReproVersion {
		return nil, fmt.Errorf("explore: %s: unsupported repro version %d (this tree reads version %d)", path, v.Version, ReproVersion)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var r Repro
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("explore: %s: %w", path, err)
	}
	return &r, nil
}

// WriteCorpus persists the exploration's coverage corpus under dir as
// corpus.json: every schedule that contributed new coverage, with seeds and
// generations, enough to reseed a future search.
func (rep *Report) WriteCorpus(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := json.MarshalIndent(struct {
		Version int     `json:"version"`
		Entries []Entry `json:"entries"`
	}{Version: ReproVersion, Entries: rep.Corpus}, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "corpus.json")
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}
