package core

import "testing"

// TestCertifierIndexAnswersLiveSnapshots runs a short lan3_cons-shaped model
// (3 sites, 500 closed-loop clients, conservative, fault-free) far enough for
// every site's last-writer index to change generation at least twice, and
// checks that the index answered every certification — not one snapshot was
// old enough to need the history scan — while holding no more cells than the
// writes committed since its horizon. A smaller index window that starts
// paying for scans on this traffic fails here. It calls run, not Run: the
// certifiers must outlive the run to be read.
func TestCertifierIndexAnswersLiveSnapshots(t *testing.T) {
	m, err := New(Config{Sites: 3, CPUsPerSite: 1, Clients: 500, TotalTxns: 3000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.release()
	r, err := m.run()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Verdict(); err != nil {
		t.Fatal(err)
	}
	for _, s := range m.Sites() {
		c := s.Replica.Certifier()
		if n := c.StaleAnswers(); n != 0 {
			t.Errorf("site %d: %d certifications answered from the history", s.ID, n)
		}
		cells, horizon := c.IndexCells()
		if horizon == 0 {
			t.Fatalf("site %d: the index never changed generation in %d commits", s.ID, c.Seq())
		}
		writes := 0
		for _, rec := range c.ExportState().History {
			if rec.Seq >= horizon {
				writes += len(rec.WriteSet)
			}
		}
		if cells > writes {
			t.Errorf("site %d: %d index cells for %d writes since seq %d", s.ID, cells, writes, horizon)
		}
		t.Logf("site %d: %d commits, %d cells, horizon %d, %d writes since", s.ID, c.Seq(), cells, horizon, writes)
	}
}
