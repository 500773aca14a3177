package explore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/check"
	"repro/internal/core"
)

// ReproVersion is the saved-repro format version. Version 1 mirrored a few
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

// Repro is a self-contained, replayable violation: the whole run
// configuration — workload, topology, seed, hooks and the exact fault
// schedule — and the expected verdict, with the checker's first-divergence
// triage attached. A repro file needs nothing but the binary to replay:
// `faultsim -replay-file <path>`.
type Repro struct {
	Version     int    `json:"version"`
	Description string `json:"description,omitempty"`
	// Config is the run that violated, under the (minimized) schedule.
	Config core.Config `json:"config"`
	// Expect is the verdict the replay must produce.
	Expect Expect `json:"expect"`
	// Triage is the checker's first-divergence annotation from the run
	// that produced the repro.
	Triage *check.Triage `json:"triage,omitempty"`
}

// config is the run configuration of one schedule: the base workload under
// the schedule's faults and seed.
func (s Space) config(base core.Config, genes []Gene, seed int64) core.Config {
	base.Seed = seed
	base.Faults = s.ToFaults(genes)
	return base
}

// Rerun executes one schedule under the base workload and returns its
// results; repros are built from a fresh run of the exact (minimized)
// schedule so the recorded triage matches what the file reproduces.
func Rerun(base core.Config, space Space, genes []Gene, seed int64) (*core.Results, error) {
	m, err := core.New(space.config(base, genes, seed))
	if err != nil {
		return nil, err
	}
	return m.Run()
}

// NewRepro packages a violating schedule as a self-contained repro. A base
// with a Calibration is refused: the file could not carry it, so the replay
// would be a different run.
func NewRepro(base core.Config, space Space, genes []Gene, seed int64, res *core.Results) (*Repro, error) {
	if base.Calibration != nil {
		return nil, fmt.Errorf("explore: a repro cannot carry Config.Calibration")
	}
	r := &Repro{
		Version: ReproVersion,
		Config:  space.config(base, genes, seed),
		Expect:  Expect{Verdict: "UNSAFE"},
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

// Replay runs the repro and reports whether the expected violation
// reproduced, with the verdict detail.
func (r *Repro) Replay() (reproduced bool, detail string, err error) {
	m, err := core.New(r.Config)
	if err != nil {
		return false, "", fmt.Errorf("explore: repro config: %w", err)
	}
	res, err := m.Run()
	if err != nil {
		return false, "", fmt.Errorf("explore: repro run: %w", err)
	}
	v := res.Verdict()
	if v == nil {
		return false, "SAFE", nil
	}
	detail = v.Error()
	if r.Expect.Kind != "" {
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
	kind := r.Expect.Kind
	if kind == "" {
		kind = "unsafe"
	}
	c := &r.Config
	topo := fmt.Sprintf("s%d", c.Sites)
	if c.Groups > 1 {
		topo = fmt.Sprintf("g%dx%d", c.Groups, c.Sites)
	}
	return fmt.Sprintf("repro-%s-%s-%s-%d.json", c.Protocol, topo, kind, c.Seed)
}

// LoadRepro reads a repro file.
func LoadRepro(path string) (*Repro, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Repro
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("explore: %s: %w", path, err)
	}
	if r.Version != ReproVersion {
		return nil, fmt.Errorf("explore: %s: unsupported repro version %d (this tree reads version %d)", path, r.Version, ReproVersion)
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
