// Package fault defines deterministic, seeded fault-injection plans for the
// in-process MPI runtime (internal/mpi). A Plan is an immutable set of rules
// — rank fail-stop at the Nth operation or on entering a named section,
// per-link message drop, extra latency, payload truncation — whose every
// decision is a pure function of (plan seed, link endpoints, per-link
// message ordinal). Two runs with the same plan therefore inject byte-
// identical fault schedules regardless of goroutine scheduling or sweep
// parallelism, which is what makes degraded-mode experiments reproducible.
//
// The package is deliberately free of runtime dependencies: the mpi package
// consults a Plan on its hot paths, and tools observe the resulting Events.
// When no plan is attached the runtime skips this package entirely (the
// no-plan zero-overhead contract documented in internal/mpi).
package fault

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind classifies an injected fault (or its observed consequence).
type Kind int

// Fault kinds. Kill, Drop, Delay and Trunc are injected by rules; DeadPeer
// is the consequence the runtime reports when an operation fails because a
// peer rank died.
const (
	Kill Kind = iota
	Drop
	Delay
	Trunc
	DeadPeer
)

var kindNames = map[Kind]string{
	Kill:     "kill",
	Drop:     "drop",
	Delay:    "delay",
	Trunc:    "trunc",
	DeadPeer: "dead_peer",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// MarshalJSON encodes the kind as its spec name ("kill", "drop", ...) so
// JSON consumers (e.g. secmon's /faults.json) see readable events.
func (k Kind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON inverts MarshalJSON.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	parsed, err := ParseKind(s)
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}

// ParseKind inverts Kind.String.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if name == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("fault: unknown kind %q", s)
}

// Wildcard matches any rank on a link-rule endpoint.
const Wildcard = -1

// Rule is one injection directive. Kill rules target a world rank and fire
// either after the rank's AfterOps-th point-to-point operation or on its
// first entry into Section. Link rules (Drop, Delay, Trunc) target messages
// on a (Src, Dst) world-rank link (Wildcard endpoints match every rank) and
// fire with probability Prob per message, decided deterministically from
// the plan seed and the link's message ordinal.
type Rule struct {
	Kind Kind

	// Kill rules.
	Rank     int    // world rank to kill
	AfterOps uint64 // fail-stop when the rank's op counter reaches this (0 = unused)
	Section  string // fail-stop on first entry into this section ("" = unused)

	// Link rules.
	Src, Dst int     // world-rank endpoints; Wildcard matches any
	Prob     float64 // per-message firing probability in [0, 1]
	Delay    float64 // Delay: extra seconds added to the modeled arrival
	Frac     float64 // Trunc: fraction of the real payload kept, in (0, 1)
}

func (r Rule) matchesLink(src, dst int) bool {
	return (r.Src == Wildcard || r.Src == src) && (r.Dst == Wildcard || r.Dst == dst)
}

// Plan is an immutable fault schedule. The zero value injects nothing; nil
// plans are valid everywhere and mean "no faults".
type Plan struct {
	// Seed drives every probabilistic decision. Equal seeds (and rules)
	// yield identical schedules on every run.
	Seed  uint64
	Rules []Rule
}

// LinkDecision is the aggregate effect of every link rule on one message.
type LinkDecision struct {
	Drop  bool
	Delay float64 // extra seconds added to the arrival stamp
	Frac  float64 // payload fraction kept; 1 means untouched
}

// HasLinkRules reports whether any rule targets message links; the runtime
// skips per-message bookkeeping entirely when false.
func (p *Plan) HasLinkRules() bool {
	if p == nil {
		return false
	}
	for _, r := range p.Rules {
		switch r.Kind {
		case Drop, Delay, Trunc:
			return true
		}
	}
	return false
}

// KillAfter returns the op count at which the given world rank fail-stops,
// or (0, false) when no op-count kill rule targets it. With several rules
// the earliest threshold wins.
func (p *Plan) KillAfter(rank int) (uint64, bool) {
	if p == nil {
		return 0, false
	}
	var best uint64 = math.MaxUint64
	for _, r := range p.Rules {
		if r.Kind == Kill && r.Rank == rank && r.AfterOps > 0 && r.AfterOps < best {
			best = r.AfterOps
		}
	}
	return best, best != math.MaxUint64
}

// KillSection reports whether the given world rank fail-stops on entering
// the labeled section.
func (p *Plan) KillSection(rank int, label string) bool {
	if p == nil {
		return false
	}
	for _, r := range p.Rules {
		if r.Kind == Kill && r.Rank == rank && r.Section != "" && r.Section == label {
			return true
		}
	}
	return false
}

// LinkFault evaluates every link rule against the idx-th message on the
// (src, dst) link and returns the combined decision. idx must be the
// per-link ordinal assigned by the sender (0, 1, 2, ...): because the
// ordinal is owned by the sending rank, the decision is independent of
// goroutine scheduling.
func (p *Plan) LinkFault(src, dst int, idx uint64) LinkDecision {
	d := LinkDecision{Frac: 1}
	if p == nil {
		return d
	}
	for i, r := range p.Rules {
		switch r.Kind {
		case Drop, Delay, Trunc:
		default:
			continue
		}
		if !r.matchesLink(src, dst) {
			continue
		}
		if p.roll(i, src, dst, idx) >= r.Prob {
			continue
		}
		switch r.Kind {
		case Drop:
			d.Drop = true
		case Delay:
			d.Delay += r.Delay
		case Trunc:
			if r.Frac < d.Frac {
				d.Frac = r.Frac
			}
		}
	}
	return d
}

// roll derives a uniform [0, 1) variate for rule i applied to message idx
// on link (src, dst) — a pure splitmix64-style hash of its arguments.
func (p *Plan) roll(i, src, dst int, idx uint64) float64 {
	h := p.Seed ^ 0x9e3779b97f4a7c15*uint64(i+1)
	h = mix64(h)
	h = mix64(h ^ (uint64(uint32(src))<<32 | uint64(uint32(dst))))
	h = mix64(h ^ idx)
	return float64(h>>11) / (1 << 53)
}

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Event records one injected fault or observed failure consequence, on the
// run's virtual clock. Src and Dst are world-rank link endpoints (-1 when
// not applicable); Rank is the affected rank (the killed rank for Kill, the
// observing rank for DeadPeer). For DeadPeer events PostT is the moment the
// failed operation started blocking, so T-PostT is the time lost waiting on
// the dead peer.
type Event struct {
	T       float64 `json:"t"`
	Kind    Kind    `json:"kind"`
	Rank    int     `json:"rank"`
	Src     int     `json:"src"`
	Dst     int     `json:"dst"`
	Comm    int64   `json:"comm"`
	Section string  `json:"section,omitempty"`
	Bytes   int     `json:"bytes,omitempty"`
	Delay   float64 `json:"delay,omitempty"`
	PostT   float64 `json:"postt,omitempty"`
}

// SortEvents orders events canonically (time, kind, rank, link) so that a
// run's fault log is byte-identical however its goroutines interleaved.
func SortEvents(events []Event) {
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.T != b.T {
			return a.T < b.T
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	})
}

// ParseSpec parses the compact command-line plan syntax used by the sweep
// drivers' -fault-spec flag: rules separated by ';', fields by ','.
//
//	kill:rank=2,after=100        fail-stop rank 2 at its 100th p2p op
//	kill:rank=1,section=HALO     fail-stop rank 1 entering section HALO
//	drop:src=0,dst=1,prob=0.5    drop half the 0->1 messages
//	delay:src=*,prob=0.2,secs=1e-4  delay 20% of all messages by 100us
//	trunc:dst=3,prob=0.1,frac=0.5   truncate 10% of messages to rank 3
//
// Endpoints default to '*' (Wildcard). seed drives the probabilistic rolls.
func ParseSpec(spec string, seed uint64) (*Plan, error) {
	p := &Plan{Seed: seed}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kindStr, fields, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("fault: rule %q: want kind:field=value,...", part)
		}
		kind, err := ParseKind(strings.TrimSpace(kindStr))
		if err != nil {
			return nil, err
		}
		if kind == DeadPeer {
			return nil, fmt.Errorf("fault: rule %q: dead_peer is an observed consequence, not injectable", part)
		}
		r := Rule{Kind: kind, Rank: Wildcard, Src: Wildcard, Dst: Wildcard}
		for _, f := range strings.Split(fields, ",") {
			key, val, ok := strings.Cut(strings.TrimSpace(f), "=")
			if !ok {
				return nil, fmt.Errorf("fault: rule %q: field %q: want key=value", part, f)
			}
			key, val = strings.TrimSpace(key), strings.TrimSpace(val)
			switch key {
			case "rank":
				if r.Rank, err = parseRank(val); err != nil {
					return nil, fmt.Errorf("fault: rule %q: %w", part, err)
				}
			case "after":
				n, err := strconv.ParseUint(val, 10, 64)
				if err != nil || n == 0 {
					return nil, fmt.Errorf("fault: rule %q: after must be a positive integer, got %q", part, val)
				}
				r.AfterOps = n
			case "section":
				r.Section = val
			case "src":
				if r.Src, err = parseRank(val); err != nil {
					return nil, fmt.Errorf("fault: rule %q: %w", part, err)
				}
			case "dst":
				if r.Dst, err = parseRank(val); err != nil {
					return nil, fmt.Errorf("fault: rule %q: %w", part, err)
				}
			case "prob":
				if r.Prob, err = strconv.ParseFloat(val, 64); err != nil || r.Prob < 0 || r.Prob > 1 {
					return nil, fmt.Errorf("fault: rule %q: prob must be in [0,1], got %q", part, val)
				}
			case "secs":
				if r.Delay, err = strconv.ParseFloat(val, 64); err != nil || r.Delay < 0 {
					return nil, fmt.Errorf("fault: rule %q: secs must be >= 0, got %q", part, val)
				}
			case "frac":
				if r.Frac, err = strconv.ParseFloat(val, 64); err != nil || r.Frac <= 0 || r.Frac >= 1 {
					return nil, fmt.Errorf("fault: rule %q: frac must be in (0,1), got %q", part, val)
				}
			default:
				return nil, fmt.Errorf("fault: rule %q: unknown field %q", part, key)
			}
		}
		if err := validate(r, part); err != nil {
			return nil, err
		}
		p.Rules = append(p.Rules, r)
	}
	if len(p.Rules) == 0 {
		return nil, fmt.Errorf("fault: empty spec")
	}
	return p, nil
}

func parseRank(s string) (int, error) {
	if s == "*" {
		return Wildcard, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("rank must be '*' or a non-negative integer, got %q", s)
	}
	return n, nil
}

func validate(r Rule, part string) error {
	switch r.Kind {
	case Kill:
		if r.Rank == Wildcard {
			return fmt.Errorf("fault: rule %q: kill needs rank=N", part)
		}
		if (r.AfterOps == 0) == (r.Section == "") {
			return fmt.Errorf("fault: rule %q: kill needs exactly one of after= or section=", part)
		}
	case Drop, Delay, Trunc:
		if r.Prob <= 0 {
			return fmt.Errorf("fault: rule %q: link rule needs prob>0", part)
		}
		if r.Kind == Delay && r.Delay <= 0 {
			return fmt.Errorf("fault: rule %q: delay needs secs>0", part)
		}
		if r.Kind == Trunc && r.Frac == 0 {
			return fmt.Errorf("fault: rule %q: trunc needs frac in (0,1)", part)
		}
	}
	return nil
}

// String renders the plan back in ParseSpec syntax (modulo field order),
// for logs and the /faults.json endpoint.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	var b strings.Builder
	for i, r := range p.Rules {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(r.Kind.String())
		b.WriteByte(':')
		var fields []string
		rank := func(n int) string {
			if n == Wildcard {
				return "*"
			}
			return strconv.Itoa(n)
		}
		switch r.Kind {
		case Kill:
			fields = append(fields, "rank="+rank(r.Rank))
			if r.AfterOps > 0 {
				fields = append(fields, "after="+strconv.FormatUint(r.AfterOps, 10))
			}
			if r.Section != "" {
				fields = append(fields, "section="+r.Section)
			}
		default:
			fields = append(fields, "src="+rank(r.Src), "dst="+rank(r.Dst),
				"prob="+strconv.FormatFloat(r.Prob, 'g', -1, 64))
			if r.Kind == Delay {
				fields = append(fields, "secs="+strconv.FormatFloat(r.Delay, 'g', -1, 64))
			}
			if r.Kind == Trunc {
				fields = append(fields, "frac="+strconv.FormatFloat(r.Frac, 'g', -1, 64))
			}
		}
		b.WriteString(strings.Join(fields, ","))
	}
	return b.String()
}

// Key renders the plan as a canonical cache-key fragment: the seed plus the
// spec rendering, "" for a nil plan. Two plans with equal keys inject
// byte-identical fault schedules into equal workloads (the package's core
// determinism contract), so result caches may treat the key as a complete
// description of the plan's effect on a run.
func (p *Plan) Key() string {
	if p == nil {
		return ""
	}
	return strconv.FormatUint(p.Seed, 10) + "|" + p.String()
}
