package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// The encoding/csv codec and the sort.SliceStable ordering this package
// shipped before both were rewritten. They are the executable definition
// of "same bytes out, same events in, same order": the differential tests
// and FuzzReadCSV hold the production code to them.

func refWriteEventsCSV(w io.Writer, events []Event) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader[:]); err != nil {
		return err
	}
	for _, e := range events {
		rec := []string{
			strconv.FormatFloat(e.T, 'g', 17, 64),
			strconv.Itoa(e.Rank),
			e.Kind.String(),
			strconv.FormatInt(e.Comm, 10),
			e.Label,
			strconv.Itoa(e.Peer),
			strconv.Itoa(e.Bytes),
			strconv.Itoa(e.Tag),
			strconv.FormatFloat(e.SendT, 'g', 17, 64),
			strconv.FormatFloat(e.PostT, 'g', 17, 64),
			strconv.FormatFloat(e.ArrT, 'g', 17, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func refReadCSV(r io.Reader) ([]Event, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(csvHeader)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: empty or unreadable CSV header: %w", err)
	}
	if strings.Join(header, ",") != strings.Join(csvHeader[:], ",") {
		return nil, fmt.Errorf("trace: unexpected header %v", header)
	}
	out := make([]Event, 0, 64)
	for rec := 2; ; rec++ {
		row, err := cr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, &CorruptError{Row: rec, Err: err}
		}
		e, err := refParseRow(row)
		if err != nil {
			return out, &CorruptError{Row: rec, Err: err}
		}
		out = append(out, e)
	}
}

func refParseRow(row []string) (Event, error) {
	var e Event
	var err error
	if e.T, err = strconv.ParseFloat(row[0], 64); err != nil {
		return e, fmt.Errorf("time: %w", err)
	}
	if e.Rank, err = strconv.Atoi(row[1]); err != nil {
		return e, fmt.Errorf("rank: %w", err)
	}
	kind, ok := kindByName[row[2]]
	if !ok {
		return e, unknownKind(row[2])
	}
	e.Kind = kind
	if e.Comm, err = strconv.ParseInt(row[3], 10, 64); err != nil {
		return e, fmt.Errorf("comm: %w", err)
	}
	e.Label = row[4]
	if e.Peer, err = strconv.Atoi(row[5]); err != nil {
		return e, fmt.Errorf("peer: %w", err)
	}
	if e.Bytes, err = strconv.Atoi(row[6]); err != nil {
		return e, fmt.Errorf("bytes: %w", err)
	}
	if e.Tag, err = strconv.Atoi(row[7]); err != nil {
		return e, fmt.Errorf("tag: %w", err)
	}
	if e.SendT, err = strconv.ParseFloat(row[8], 64); err != nil {
		return e, fmt.Errorf("sendt: %w", err)
	}
	if e.PostT, err = strconv.ParseFloat(row[9], 64); err != nil {
		return e, fmt.Errorf("postt: %w", err)
	}
	if e.ArrT, err = strconv.ParseFloat(row[10], 64); err != nil {
		return e, fmt.Errorf("arrt: %w", err)
	}
	return e, nil
}

func refSortEvents(events []Event) {
	sort.SliceStable(events, func(i, j int) bool {
		a, b := &events[i], &events[j]
		if a.T != b.T {
			return a.T < b.T
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		if ka, kb := kindOrder(a.Kind), kindOrder(b.Kind); ka != kb {
			return ka < kb
		}
		if a.Kind != KindVerify {
			return false // stable: keep recording order
		}
		if a.Comm != b.Comm {
			return a.Comm < b.Comm
		}
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		if a.Peer != b.Peer {
			return a.Peer < b.Peer
		}
		if a.Bytes != b.Bytes {
			return a.Bytes < b.Bytes
		}
		return a.Tag < b.Tag
	})
}
