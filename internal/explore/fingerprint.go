package explore

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/core"
)

// Fingerprint reduces one run to the set of coverage keys it hit: every
// protocol counter the results expose (view changes, flush abandons, commit
// retries and handovers, rollbacks, vetoes, quorum losses, recoveries,
// uniform-delivery stalls, ...) paired with the counter's order-of-magnitude
// bucket. Two runs with the same fingerprint exercised
// the protocol the same way at the same intensity; a schedule whose run
// lights up a key no earlier run produced is interesting and enters the
// corpus. Keys are sorted, so fingerprints are deterministic.
func Fingerprint(res *core.Results) []string {
	feats := res.Features()
	keys := make([]string, 0, len(feats))
	for name, v := range feats {
		if v <= 0 {
			continue
		}
		keys = append(keys, fmt.Sprintf("%s/%d", name, bucket(v)))
	}
	sort.Strings(keys)
	return keys
}

// bucket maps a counter value to its log2 magnitude (1, 2, 4, 8, ... share
// increasingly wide buckets), the classic feature-map compression: exact
// counts over-split coverage, presence alone under-splits it.
func bucket(v int64) int { return bits.Len64(uint64(v)) }
