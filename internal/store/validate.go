package store

import "fmt"

// Shape validation. The CRC protects byte integrity, not semantic
// consistency: a well-formed file can still encode an advisor section whose
// rank rows disagree with its candidate lists, or topic count tables that
// disagree with Phi. Consumers that index across fields (serve.New,
// lesm.Load) validate up front so a malformed snapshot is a load error,
// never a panic at query time.

// Validate checks the topic section's cross-field shape invariants: every
// Phi row (and NKV row) spans the vocabulary V, and the count tables are
// either both absent or consistent with each other.
func (t *Topics) Validate() error {
	for k, row := range t.Phi {
		if len(row) != t.V {
			return fmt.Errorf("store: topics phi row %d has %d entries, V = %d", k, len(row), t.V)
		}
	}
	if (t.NKV == nil) != (t.NK == nil) {
		return fmt.Errorf("store: topics count tables half-present (NKV %v, NK %v)", t.NKV != nil, t.NK != nil)
	}
	if t.NKV != nil {
		if len(t.NKV) != len(t.NK) {
			return fmt.Errorf("store: topics NKV has %d rows, NK has %d", len(t.NKV), len(t.NK))
		}
		for k, row := range t.NKV {
			if len(row) != t.V {
				return fmt.Errorf("store: topics NKV row %d has %d entries, V = %d", k, len(row), t.V)
			}
		}
	}
	return nil
}

// Validate checks the advisor section's invariants: one candidate list and
// one rank vector per author, each rank vector covering the virtual
// no-advisor node plus every candidate, and candidate ids in range.
func (a *Advisor) Validate() error {
	if a.Net == nil {
		return fmt.Errorf("store: advisor section has no network")
	}
	n := a.Net.NumAuthors
	if n < 0 {
		return fmt.Errorf("store: advisor NumAuthors = %d", n)
	}
	if len(a.Net.Cands) != n {
		return fmt.Errorf("store: advisor has %d candidate lists for %d authors", len(a.Net.Cands), n)
	}
	if len(a.Rank) != n {
		return fmt.Errorf("store: advisor has %d rank vectors for %d authors", len(a.Rank), n)
	}
	for i := 0; i < n; i++ {
		if want := len(a.Net.Cands[i]) + 1; len(a.Rank[i]) != want {
			return fmt.Errorf("store: advisor rank[%d] has %d entries, want %d (candidates + no-advisor)", i, len(a.Rank[i]), want)
		}
		for _, c := range a.Net.Cands[i] {
			if c.Advisor < 0 || c.Advisor >= n {
				return fmt.Errorf("store: advisor candidate %d of author %d out of range [0, %d)", c.Advisor, i, n)
			}
		}
	}
	return nil
}

// Validate checks every present section's shape invariants, and that a
// vocabulary and a topic section, when both are present, name the same
// number of words.
func (s *Snapshot) Validate() error {
	if s.Topics != nil {
		if err := s.Topics.Validate(); err != nil {
			return err
		}
		if s.Vocab != nil && len(s.Vocab) != s.Topics.V {
			return fmt.Errorf("store: vocab has %d words, topics V = %d", len(s.Vocab), s.Topics.V)
		}
	}
	if s.FoldIn != nil {
		if err := s.FoldIn.Validate(s.Topics); err != nil {
			return err
		}
	}
	if s.Advisor != nil {
		if err := s.Advisor.Validate(); err != nil {
			return err
		}
	}
	return nil
}
