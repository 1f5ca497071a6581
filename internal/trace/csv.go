package trace

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"

	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
)

// Trace persistence: any Source can be exported to CSV row by row and
// replayed later (or on another machine) as an equivalent Source, which
// is how experiment inputs are archived alongside results. Export is
// streaming on both sides: writing pulls one invocation at a time, and
// reading parses rows lazily, so a multi-gigabyte trace never lives in
// memory.
//
// Schema: id,app,arrival_us,service_us,io_ops
// where io_ops is a semicolon-separated list of at_us:dur_us pairs.
// Timestamps are truncated to microseconds; one truncation is a fixed
// point, so export → import → export is byte-identical.

// csvHeader is the exported schema.
var csvHeader = []string{"id", "app", "arrival_us", "service_us", "io_ops"}

// WriteCSV streams src to w, returning the number of invocations
// written. Both generation errors (via trace.Err) and write errors are
// reported.
//
// Rows are encoded by hand into one reused buffer (strconv.Append*
// onto a scratch slice, flushed through one bufio.Writer) instead of
// encoding/csv's per-row field slices, so exporting an N-row trace
// costs O(1) allocations rather than O(N). The emitted bytes are
// identical to encoding/csv's output: fields are quoted the same way
// when (and only when) they need it, and rows end in "\n".
func WriteCSV(w io.Writer, src Source) (int, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(strings.Join(csvHeader, ",") + "\n"); err != nil {
		return 0, err
	}
	n := 0
	buf := make([]byte, 0, 128)
	for {
		t, ok := src.Next()
		if !ok {
			break
		}
		buf = appendRecord(buf[:0], t)
		if _, err := bw.Write(buf); err != nil {
			return n, err
		}
		n++
	}
	if err := Err(src); err != nil {
		return n, err
	}
	return n, bw.Flush()
}

// WriteTasksCSV serializes an already-materialized task slice (the
// legacy entry point kept for workload archives).
func WriteTasksCSV(w io.Writer, tasks []*task.Task) error {
	_, err := WriteCSV(w, FromTasks("tasks", tasks))
	return err
}

// appendRecord renders one invocation as a CSV row (with trailing
// newline) onto buf without allocating.
func appendRecord(buf []byte, t *task.Task) []byte {
	buf = strconv.AppendInt(buf, int64(t.ID), 10)
	buf = append(buf, ',')
	buf = appendField(buf, t.App)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, t.Arrival.Microseconds(), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, serviceUS(t.Service), 10)
	buf = append(buf, ',')
	for i, op := range t.IOOps {
		if i > 0 {
			buf = append(buf, ';')
		}
		buf = strconv.AppendInt(buf, op.At.Microseconds(), 10)
		buf = append(buf, ':')
		buf = strconv.AppendInt(buf, op.Dur.Microseconds(), 10)
	}
	return append(buf, '\n')
}

// serviceUS renders a service demand at the codecs' 1µs resolution.
// Like every other field it truncates, except that a positive demand
// under 1µs encodes as 1µs: truncating it to 0 would write a record
// the readers reject as a non-positive service.
func serviceUS(d time.Duration) int64 {
	if us := d.Microseconds(); us > 0 || d <= 0 {
		return us
	}
	return 1
}

// appendField appends a free-form field (the app name), quoting it
// exactly when encoding/csv would: when it contains a separator,
// quote, or newline, begins with whitespace, or is the literal `\.`
// (the Postgres end-of-data marker encoding/csv special-cases).
func appendField(buf []byte, s string) []byte {
	if !fieldNeedsQuotes(s) {
		return append(buf, s...)
	}
	buf = append(buf, '"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			buf = append(buf, '"', '"')
		} else {
			buf = append(buf, s[i])
		}
	}
	return append(buf, '"')
}

// fieldNeedsQuotes mirrors encoding/csv's rule for a comma separator
// without CRLF line endings.
func fieldNeedsQuotes(s string) bool {
	if s == "" {
		return false
	}
	if s == `\.` {
		return true
	}
	if strings.ContainsAny(s, ",\"\r\n") {
		return true
	}
	r, _ := utf8.DecodeRuneInString(s)
	return unicode.IsSpace(r)
}

// csvSource lazily parses rows from a reader.
type csvSource struct {
	cr   *csv.Reader
	row  int
	err  error
	done bool
}

// NewCSVSource opens a CSV trace for streaming replay. The header is
// validated eagerly; rows are parsed on demand. Each parsed task is
// validated, and the first invalid row terminates the stream with a
// row-numbered error available via Err.
func NewCSVSource(r io.Reader) (Source, error) {
	cr := csv.NewReader(r)
	// Rows are parsed field-by-field into a fresh task before the next
	// Read, so the reader can safely reuse its record slice.
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if len(header) < len(csvHeader) {
		return nil, fmt.Errorf("trace: header %v, want %v", header, csvHeader)
	}
	for i, h := range csvHeader {
		if header[i] != h {
			return nil, fmt.Errorf("trace: header column %d is %q, want %q", i, header[i], h)
		}
	}
	return &csvSource{cr: cr}, nil
}

// Next implements Source.
func (s *csvSource) Next() (*task.Task, bool) {
	if s.done {
		return nil, false
	}
	s.row++
	rec, err := s.cr.Read()
	if err == io.EOF {
		s.done = true
		return nil, false
	}
	if err != nil {
		s.fail(fmt.Errorf("trace: row %d: %w", s.row, err))
		return nil, false
	}
	t, err := parseRecord(rec)
	if err != nil {
		s.fail(fmt.Errorf("trace: row %d: %w", s.row, err))
		return nil, false
	}
	return t, true
}

func (s *csvSource) fail(err error) {
	s.err = err
	s.done = true
}

// Err implements Failer.
func (s *csvSource) Err() error { return s.err }

// String implements Source.
func (s *csvSource) String() string { return "csv" }

// parseRecord parses and validates one CSV row.
func parseRecord(rec []string) (*task.Task, error) {
	id, err := strconv.Atoi(rec[0])
	if err != nil {
		return nil, fmt.Errorf("bad id: %w", err)
	}
	arrUS, err := strconv.ParseInt(rec[2], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("bad arrival: %w", err)
	}
	svcUS, err := strconv.ParseInt(rec[3], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("bad service: %w", err)
	}
	t := task.New(id, simtime.Time(arrUS)*time.Microsecond, time.Duration(svcUS)*time.Microsecond)
	t.App = rec[1]
	// Walk the op list with Cut instead of Split to avoid allocating a
	// slice per row on the import hot path. An empty element (including
	// one left by a trailing ';') is rejected exactly as Split-based
	// parsing did.
	if ops := rec[4]; ops != "" {
		lastUS := int64(-1 << 62)
		for {
			pair, rest, found := strings.Cut(ops, ";")
			at, dur, ok := strings.Cut(pair, ":")
			if !ok {
				return nil, fmt.Errorf("bad io op %q", pair)
			}
			atUS, err1 := strconv.ParseInt(at, 10, 64)
			durUS, err2 := strconv.ParseInt(dur, 10, 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("bad io op %q", pair)
			}
			// WithIO panics on out-of-order ops; a malformed row must
			// be a parse error, not a crash.
			if atUS < lastUS {
				return nil, fmt.Errorf("io op %q out of order", pair)
			}
			lastUS = atUS
			t.WithIO(time.Duration(atUS)*time.Microsecond, time.Duration(durUS)*time.Microsecond)
			if !found {
				break
			}
			ops = rest
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// ReadCSV materializes a CSV trace, the strict counterpart of
// NewCSVSource for callers that need the whole workload.
func ReadCSV(r io.Reader) ([]*task.Task, error) {
	src, err := NewCSVSource(r)
	if err != nil {
		return nil, err
	}
	tasks := Collect(src)
	if err := Err(src); err != nil {
		return nil, err
	}
	return tasks, nil
}
