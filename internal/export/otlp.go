package export

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// This file renders completed spans in the OTLP/JSON shape (the
// ExportTraceServiceRequest layout of the OpenTelemetry protocol): one
// trace per run, one span per section instance per rank, parent links from
// the nesting stack, and the raw 32-byte tool-data payload exposed as span
// attributes. It is "OTLP-style": the JSON matches the proto field names
// (resourceSpans / scopeSpans / spans, string-encoded 64-bit integers,
// hex-encoded ids) without depending on the OpenTelemetry SDK — the
// container already holds everything the standard library offers, and
// nothing more is needed.

type otlpAttr struct {
	Key   string    `json:"key"`
	Value otlpValue `json:"value"`
}

type otlpValue struct {
	StringValue *string  `json:"stringValue,omitempty"`
	IntValue    *string  `json:"intValue,omitempty"`
	DoubleValue *float64 `json:"doubleValue,omitempty"`
	BoolValue   *bool    `json:"boolValue,omitempty"`
}

func attrStr(key, v string) otlpAttr { return otlpAttr{Key: key, Value: otlpValue{StringValue: &v}} }
func attrF64(key string, v float64) otlpAttr {
	return otlpAttr{Key: key, Value: otlpValue{DoubleValue: &v}}
}
func attrInt(key string, v int64) otlpAttr {
	s := fmt.Sprintf("%d", v)
	return otlpAttr{Key: key, Value: otlpValue{IntValue: &s}}
}
func attrBool(key string, v bool) otlpAttr {
	return otlpAttr{Key: key, Value: otlpValue{BoolValue: &v}}
}

type otlpSpan struct {
	TraceID           string     `json:"traceId"`
	SpanID            string     `json:"spanId"`
	ParentSpanID      string     `json:"parentSpanId,omitempty"`
	Name              string     `json:"name"`
	Kind              int        `json:"kind"`
	StartTimeUnixNano string     `json:"startTimeUnixNano"`
	EndTimeUnixNano   string     `json:"endTimeUnixNano"`
	Attributes        []otlpAttr `json:"attributes"`
}

type otlpScope struct {
	Name    string `json:"name"`
	Version string `json:"version"`
}

type otlpScopeSpans struct {
	Scope otlpScope  `json:"scope"`
	Spans []otlpSpan `json:"spans"`
}

type otlpResource struct {
	Attributes []otlpAttr `json:"attributes"`
}

type otlpResourceSpans struct {
	Resource   otlpResource     `json:"resource"`
	ScopeSpans []otlpScopeSpans `json:"scopeSpans"`
}

type otlpDoc struct {
	ResourceSpans []otlpResourceSpans `json:"resourceSpans"`
}

// spanKindInternal is OTLP's SPAN_KIND_INTERNAL.
const spanKindInternal = 1

// spanIDHex renders a span id the OTLP way: 8 bytes, 16 hex digits.
func spanIDHex(id uint64) string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], id)
	return hex.EncodeToString(b[:])
}

// virtualUnixNano maps a virtual-time second to a nanosecond tick string.
// The run starts at virtual zero; OTLP consumers only need monotonicity
// and correct durations, both of which the virtual clock guarantees.
func virtualUnixNano(t float64) string {
	if t < 0 {
		t = 0
	}
	return fmt.Sprintf("%d", uint64(t*1e9))
}

// WriteOTLP renders every completed span recorded so far as one OTLP-style
// trace document. Each MPI rank becomes one resource (service.instance.id
// = its world rank) so per-rank span trees group the way OTLP backends
// expect; parent links reproduce the section nesting stack; the 32-byte
// Fig. 2 tool-data payload rides along as span attributes, both raw (hex)
// and decoded.
func (v Views) WriteOTLP(w io.Writer) error {
	var spans []Span
	traceID := v.replay(&spans, nil).facts.traceID.String()

	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Rank != spans[j].Rank {
			return spans[i].Rank < spans[j].Rank
		}
		return spans[i].EnterSeq < spans[j].EnterSeq
	})

	byRank := map[int][]otlpSpan{}
	var rankOrder []int
	for _, sp := range spans {
		o := otlpSpan{
			TraceID:           traceID,
			SpanID:            spanIDHex(sp.ID),
			Name:              sp.Label,
			Kind:              spanKindInternal,
			StartTimeUnixNano: virtualUnixNano(sp.Start),
			EndTimeUnixNano:   virtualUnixNano(sp.End),
			Attributes: []otlpAttr{
				attrInt("mpi.comm", sp.Comm),
				attrInt("mpi.comm_rank", int64(sp.CommRank)),
				attrInt("mpi.world_rank", int64(sp.Rank)),
				attrBool("mpi.collective", sp.Collective),
				attrF64("section.exclusive_seconds", sp.Excl),
			},
		}
		if sp.Parent != 0 {
			o.ParentSpanID = spanIDHex(sp.Parent)
		}
		if !sp.Collective {
			o.Attributes = append(o.Attributes,
				attrStr("mpi.tool_data", hex.EncodeToString(sp.Data[:])))
			if id, parent, enterT, ok := DecodePayload(sp.Data); ok {
				o.Attributes = append(o.Attributes,
					attrStr("mpi.tool_data.span_id", spanIDHex(id)),
					attrStr("mpi.tool_data.parent_span_id", spanIDHex(parent)),
					attrF64("mpi.tool_data.enter_seconds", enterT))
			}
		}
		if _, seen := byRank[sp.Rank]; !seen {
			rankOrder = append(rankOrder, sp.Rank)
		}
		byRank[sp.Rank] = append(byRank[sp.Rank], o)
	}

	doc := otlpDoc{}
	for _, rank := range rankOrder {
		doc.ResourceSpans = append(doc.ResourceSpans, otlpResourceSpans{
			Resource: otlpResource{Attributes: []otlpAttr{
				attrStr("service.name", "mpi-sections"),
				attrStr("service.instance.id", fmt.Sprintf("rank-%d", rank)),
				attrInt("mpi.world_rank", int64(rank)),
			}},
			ScopeSpans: []otlpScopeSpans{{
				Scope: otlpScope{Name: "repro/internal/export", Version: "1"},
				Spans: byRank[rank],
			}},
		})
	}
	return json.NewEncoder(w).Encode(doc)
}
