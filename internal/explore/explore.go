package explore

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/sim"
)

// Options configures one exploration.
type Options struct {
	// Base is the workload shape (protocol, sites, clients, transaction
	// count, admission); its Seed and Faults are overwritten per candidate.
	Base core.Config
	// Space bounds the schedules searched; zero values are filled from Base.
	Space Space
	// Seed drives every random choice: candidate run seeds (derived with
	// the campaign's splitmix scheme, so generation zero replays the random
	// campaign exactly) and the mutation stream.
	Seed int64
	// Generations and Population size the search; defaults 8 and 16.
	Generations int
	Population  int
	// Workers sizes the evaluation pool; the search result is identical
	// for any worker count.
	Workers int
	// StopOnFirst ends the search at the first violating schedule.
	StopOnFirst bool
	// Log, when set, receives one progress line per generation.
	Log func(format string, args ...any)
}

// Entry is one corpus member: a schedule whose run produced coverage no
// earlier run had, with the seed it ran under and the keys it contributed.
type Entry struct {
	Genes   []Gene `json:"genes"`
	Seed    int64  `json:"seed"`
	Gen     int    `json:"gen"`
	NewKeys int    `json:"newKeys"`
}

// Found is one violating schedule the search hit.
type Found struct {
	// Genes is the repaired schedule; ToFaults(Genes) with Seed reproduces
	// the violation.
	Genes []Gene
	Seed  int64
	// Run is the 1-based global run index the violation appeared at — the
	// search's cost in runs, comparable against a random campaign's.
	Run int
	// Detail is the verdict line.
	Detail  string
	Results *core.Results
}

// Report is one exploration's outcome.
type Report struct {
	Found  []*Found
	Corpus []Entry
	// Runs is the number of model runs executed (for StopOnFirst searches,
	// through the generation the hit appeared in).
	Runs int
	// Buckets is the number of distinct coverage keys seen.
	Buckets     int
	Generations int
	// Errored counts the candidates the model rejected (core.New) or that
	// died mid-run: repair promises a valid configuration for every gene
	// set, so anything but 0 is a bug in repair or in the model, and the
	// caller fails the search.
	Errored int
}

// Run executes the coverage-guided search: generation zero replays the
// random campaign's schedules for the same base seed, and each later
// generation mutates and splices corpus entries — schedules that hit new
// coverage buckets — evaluating candidates on the expr worker pool. The
// corpus, the found violations, and every derived seed depend only on
// Options, never on worker scheduling.
func Run(opts Options) (*Report, error) {
	base := opts.Base
	space := opts.Space
	if space.Sites == 0 {
		space.Sites = base.Sites
	}
	if space.Groups == 0 {
		space.Groups = base.Groups
	}
	space = space.filled()
	gens := opts.Generations
	if gens <= 0 {
		gens = 8
	}
	pop := opts.Population
	if pop <= 0 {
		pop = 16
	}
	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rng := sim.NewRNG(opts.Seed).Fork("explore")

	// Generation zero: the random campaign's own schedules, so the search
	// starts from the same distribution it is benchmarked against.
	params := campaign.Params{Sites: space.Sites, Groups: space.Groups, Horizon: space.Horizon}
	cands := make([][]Gene, pop)
	for i := range cands {
		sched := campaign.New(expr.DeriveSeed(opts.Seed, i), params)
		cands[i] = space.repair(FromFaults(sched.Faults))
	}

	rep := &Report{}
	cover := map[string]bool{}
	runs := 0
	for gen := 0; gen < gens; gen++ {
		tasks := make([]expr.Task, len(cands))
		seeds := make([]int64, len(cands))
		for i := range cands {
			seeds[i] = expr.DeriveSeed(opts.Seed, runs+i)
			tasks[i] = expr.Task{
				Label:  fmt.Sprintf("explore gen %d cand %d", gen, i),
				Config: space.config(base, cands[i], seeds[i]),
				Reps:   1,
			}
		}
		points, _ := (&expr.Runner{Workers: opts.Workers}).Run(tasks)
		newEntries := 0
		for i, pt := range points {
			if pt.Err != nil || pt.Agg == nil || len(pt.Agg.Runs) == 0 {
				rep.Errored++
				logf("explore: gen %d cand %d (seed %d) did not run: %v", gen, i, seeds[i], pt.Err)
				continue
			}
			res := pt.Agg.Runs[0]
			if v := res.Verdict(); v != nil {
				rep.Found = append(rep.Found, &Found{
					Genes:   cands[i],
					Seed:    seeds[i],
					Run:     runs + i + 1,
					Detail:  v.Error(),
					Results: res,
				})
			}
			fresh := 0
			for _, k := range Fingerprint(res) {
				if !cover[k] {
					cover[k] = true
					fresh++
				}
			}
			if fresh > 0 {
				rep.Corpus = append(rep.Corpus, Entry{
					Genes: cands[i], Seed: seeds[i], Gen: gen, NewKeys: fresh,
				})
				newEntries++
			}
		}
		runs += len(cands)
		rep.Generations = gen + 1
		logf("explore: gen %d: %d runs, %d coverage keys (+%d corpus), %d violations",
			gen, runs, len(cover), newEntries, len(rep.Found))
		if opts.StopOnFirst && len(rep.Found) > 0 {
			break
		}
		cands = nextGen(rng, space, rep.Corpus, cands, pop)
	}
	if len(rep.Found) > 0 {
		// Runs as a search cost: the index the first violation appeared at.
		rep.Runs = rep.Found[0].Run
		if !opts.StopOnFirst {
			rep.Runs = runs
		}
	} else {
		rep.Runs = runs
	}
	rep.Buckets = len(cover)
	return rep, nil
}

// nextGen breeds the next candidate set from the corpus: mostly single
// mutations of corpus schedules (biased toward recent entries, which carry
// the newest coverage), sometimes a splice of two, falling back to the
// previous generation while the corpus is empty.
func nextGen(rng *sim.RNG, space Space, corpus []Entry, prev [][]Gene, pop int) [][]Gene {
	pick := func() []Gene {
		if len(corpus) == 0 {
			return prev[rng.Intn(len(prev))]
		}
		if w := min(len(corpus), 8); rng.Bool(0.5) {
			return corpus[len(corpus)-1-rng.Intn(w)].Genes
		}
		return corpus[rng.Intn(len(corpus))].Genes
	}
	out := make([][]Gene, 0, pop)
	for len(out) < pop {
		if rng.Bool(0.2) {
			out = append(out, space.Splice(rng, pick(), pick()))
		} else {
			out = append(out, space.Mutate(rng, pick()))
		}
	}
	return out
}
