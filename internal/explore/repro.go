package explore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
)

// ReproVersion is the saved-repro format version.
const ReproVersion = 1

// Expect states what a repro must reproduce.
type Expect struct {
	// Verdict is the expected classification, always "UNSAFE".
	Verdict string `json:"verdict"`
	// Kind is the expected violation kind name (empty accepts any
	// violation — rejoin and inconsistency verdicts carry no kind).
	Kind string `json:"kind,omitempty"`
}

// Repro is a self-contained, replayable violation: the full workload shape,
// the exact fault schedule, the seed, and the expected verdict, with the
// checker's first-divergence triage attached. A repro file needs nothing
// but the binary to replay: `faultsim -replay-file <path>`.
type Repro struct {
	Version     int    `json:"version"`
	Description string `json:"description,omitempty"`
	Protocol    string `json:"protocol"`
	Sites       int    `json:"sites"`
	Groups      int    `json:"groups,omitempty"`
	Clients     int    `json:"clients"`
	Txns        int    `json:"txns"`
	Seed        int64  `json:"seed"`
	// Admission enables the default admission-control configuration.
	Admission bool `json:"admission,omitempty"`
	// MaxSimTime bounds the replay, in simulated nanoseconds (default 20
	// simulated minutes, the campaign bound).
	MaxSimTime sim.Time `json:"maxSimTimeNs,omitempty"`
	// Hooks are the test-only protocol switches the violation needs (a
	// repro of a since-fixed bug keeps failing through the hook that
	// reintroduces it).
	Hooks core.Hooks `json:"hooks,omitempty"`
	// Faults is the exact (minimized) schedule.
	Faults faults.Config `json:"faults"`
	// Genes is the schedule's genome, kept for provenance and further
	// mutation; Faults is what replays.
	Genes []Gene `json:"genes,omitempty"`
	// Expect is the verdict the replay must produce.
	Expect Expect `json:"expect"`
	// Triage is the checker's first-divergence annotation from the run
	// that produced the repro.
	Triage *check.Triage `json:"triage,omitempty"`
}

// Rerun executes one schedule under the base workload and returns its
// results; repros are built from a fresh run of the exact (minimized)
// schedule so the recorded triage matches what the file reproduces.
func Rerun(base core.Config, space Space, genes []Gene, seed int64) (*core.Results, error) {
	cfg := base
	cfg.Seed = seed
	cfg.Faults = space.filled().ToFaults(genes)
	m, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return m.Run()
}

// NewRepro packages a violating schedule as a self-contained repro.
func NewRepro(base core.Config, space Space, genes []Gene, seed int64, res *core.Results) *Repro {
	space = space.filled()
	r := &Repro{
		Version:  ReproVersion,
		Protocol: string(base.Protocol),
		Sites:    space.Sites,
		Groups:   space.Groups,
		Clients:  base.Clients,
		Txns:     base.TotalTxns,
		Seed:     seed,
		Hooks:    base.Hooks,
		Faults:   space.ToFaults(genes),
		Genes:    genes,
		Expect:   Expect{Verdict: "UNSAFE"},
	}
	if r.Groups <= 1 {
		r.Groups = 0
	}
	if base.Admission != nil {
		r.Admission = true
	}
	if base.MaxSimTime != 0 && base.MaxSimTime != 20*sim.Minute {
		r.MaxSimTime = base.MaxSimTime
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
	return r
}

// Config rebuilds the replay configuration.
func (r *Repro) Config() core.Config {
	cfg := core.Config{
		Sites:      r.Sites,
		Groups:     r.Groups,
		Protocol:   core.Protocol(r.Protocol),
		Clients:    r.Clients,
		TotalTxns:  r.Txns,
		Seed:       r.Seed,
		Faults:     r.Faults,
		Hooks:      r.Hooks,
		MaxSimTime: r.MaxSimTime,
	}
	if cfg.MaxSimTime == 0 {
		cfg.MaxSimTime = 20 * sim.Minute
	}
	if r.Admission {
		cfg.Admission = core.DefaultAdmissionConfig()
	}
	return cfg
}

// Replay runs the repro and reports whether the expected violation
// reproduced, with the verdict detail.
func (r *Repro) Replay() (reproduced bool, detail string, err error) {
	m, err := core.New(r.Config())
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
	topo := fmt.Sprintf("s%d", r.Sites)
	if r.Groups > 1 {
		topo = fmt.Sprintf("g%dx%d", r.Groups, r.Sites)
	}
	return fmt.Sprintf("repro-%s-%s-%s-%d.json", r.Protocol, topo, kind, r.Seed)
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
		return nil, fmt.Errorf("explore: %s: unsupported repro version %d", path, r.Version)
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
