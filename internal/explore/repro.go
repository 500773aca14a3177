package explore

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/campaign"
	"repro/internal/core"
)

// ReproVersion is the run-file format version. Version 1 mirrored a few
// Config fields by hand and silently dropped the rest; version 2 carried the
// Config whole beside a verdict object and a triage block that copied its
// kind and the description; version 3 is the Config and the expected kind.
const ReproVersion = 3

// Repro is the one file format of a run: the whole run configuration —
// workload, topology, seed and the exact fault schedule. A file with an
// expected verdict kind is a self-contained, replayable violation; a file
// without one is a plain configuration (configs/*.json). Either needs nothing
// but the binary to run: `faultsim -replay-file <path>`.
type Repro struct {
	Version     int    `json:"version"`
	Description string `json:"description,omitempty"`
	// Config is the run: for a repro, the one that violated, under the
	// (minimized) schedule.
	Config core.Config `json:"config"`
	// Expect is the verdict kind the replay must produce,
	// core.Results.VerdictKind's name for it; "" for a plain configuration,
	// which any failing verdict reproduces.
	Expect string `json:"expect,omitempty"`
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
// configuration and, when res is given, the kind and description of its
// violation. A config with a Calibration is refused: the file could not
// carry it, so the replay would be a different run.
func ReproOf(cfg core.Config, res *core.Results) (*Repro, error) {
	if cfg.Calibration != nil {
		return nil, fmt.Errorf("explore: a repro cannot carry Config.Calibration")
	}
	r := &Repro{Version: ReproVersion, Config: cfg}
	if res != nil {
		if kind, v := res.VerdictKind(); v != nil {
			r.Expect, r.Description = kind, v.Error()
		}
	}
	return r, nil
}

// Replay runs the file and returns its verdict's kind ("" when clean) and
// detail ("SAFE" when clean); Reproduces says whether the kind is the one
// the file expects.
func (r *Repro) Replay() (kind, detail string, err error) {
	res, err := core.Run(r.Config)
	if err != nil {
		return "", "", fmt.Errorf("explore: repro: %w", err)
	}
	kind, v := res.VerdictKind()
	if v == nil {
		return "", "SAFE", nil
	}
	return kind, v.Error(), nil
}

// Reproduces reports whether a run whose verdict has the given kind
// reproduces the file: any failing kind for a plain configuration, else
// exactly the repro's.
func (r *Repro) Reproduces(kind string) bool {
	return kind != "" && (r.Expect == "" || kind == r.Expect)
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
	kind := cmp.Or(r.Expect, "unsafe")
	c := &r.Config
	topo := fmt.Sprintf("s%d", c.Sites)
	if c.Groups > 1 {
		topo = fmt.Sprintf("g%dx%d", c.Groups, c.Sites)
	}
	return fmt.Sprintf("repro-%s-%s-%s-%d.json", c.Protocol, topo, kind, c.Seed)
}

// LoadRepro reads a run file, repro or plain configuration, and parses it
// with parseRepro.
func LoadRepro(path string) (*Repro, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r, err := parseRepro(b)
	if err != nil {
		return nil, fmt.Errorf("explore: %s: %w", path, err)
	}
	return r, nil
}

// parseRepro decodes a run file. It is strict: a key the format does not
// have (a misspelled "clinets", say) is an error naming it, not a field
// silently left at its default.
func parseRepro(b []byte) (*Repro, error) {
	// The version first, so a file of another version is refused by its
	// number rather than by the first key this version lacks.
	var v struct{ Version int }
	if err := json.Unmarshal(b, &v); err != nil {
		return nil, err
	}
	if v.Version != ReproVersion {
		return nil, fmt.Errorf("unsupported repro version %d (this tree reads version %d)", v.Version, ReproVersion)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var r Repro
	if err := dec.Decode(&r); err != nil {
		return nil, err
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
