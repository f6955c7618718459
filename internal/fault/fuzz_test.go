package fault

import "testing"

// FuzzParseSpec holds the -fault-spec parser to its rendering: nothing
// panics, and a spec ParseSpec accepts renders (String) to a spec it accepts
// again with the same String and the same Key — the key is what result
// caches file a faulted run under, so two spellings of one plan must not
// split, and one spelling must not drift on its way through a log.
func FuzzParseSpec(f *testing.F) {
	for _, spec := range []string{
		"kill:rank=2,after=100;kill:rank=1,section=HALO",
		"drop:src=0,dst=1,prob=0.5;delay:src=*,prob=0.2,secs=1e-4",
		"trunc:dst=3,prob=0.1,frac=0.5",
		" kill : rank = 7 , section = a=b ;; ",
		"kill:rank=1,after=3,prob=0.25",
		"delay:prob=NaN,secs=+Inf",
		"kill:rank=1",
		"dead_peer:src=0,dst=1,prob=0.5",
		"",
	} {
		f.Add(spec, uint64(42))
	}
	f.Fuzz(func(t *testing.T, spec string, seed uint64) {
		p, err := ParseSpec(spec, seed)
		if err != nil {
			if p != nil {
				t.Fatalf("ParseSpec(%q) returned a plan with error %v", spec, err)
			}
			return
		}
		text, key := p.String(), p.Key()
		q, err := ParseSpec(text, seed)
		if err != nil {
			t.Fatalf("ParseSpec(%q) renders as %q, which is rejected: %v", spec, text, err)
		}
		if got := q.String(); got != text {
			t.Fatalf("ParseSpec(%q): String %q reparses to %q", spec, text, got)
		}
		if got := q.Key(); got != key {
			t.Fatalf("ParseSpec(%q): Key %q reparses to %q", spec, key, got)
		}
		if len(q.Rules) != len(p.Rules) || q.HasKillRules() != p.HasKillRules() {
			t.Fatalf("ParseSpec(%q): %d rules (kill %v) reparse to %d (kill %v)", spec,
				len(p.Rules), p.HasKillRules(), len(q.Rules), q.HasKillRules())
		}
	})
}
