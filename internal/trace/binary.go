package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
)

// Binary trace format ("SFTB" v1): the fast-path counterpart of the
// CSV codec for million-invocation traces. Layout:
//
//	magic "SFTB" | version byte | records...
//
// Each record is a uvarint payload length followed by the payload:
//
//	varint  id delta from previous record (first record: delta from 0)
//	uvarint app ref — 0 means a new app name follows inline
//	        (uvarint length + bytes, appended to the table);
//	        k>0 means table entry k-1
//	uvarint arrival delta from previous record, microseconds
//	uvarint service, microseconds
//	uvarint number of I/O ops, then per op:
//	        uvarint At delta from previous op's At, microseconds
//	        uvarint Dur, microseconds
//
// Timestamps are truncated to microseconds exactly as the CSV codec
// truncates them, so CSV→binary→CSV and binary→CSV→binary conversions
// are lossless fixed points, and export→import→export of a binary
// trace is byte-identical. Arrival deltas being unsigned encodes the
// Source contract (non-decreasing arrivals) into the format itself.

const (
	binaryMagic   = "SFTB"
	binaryVersion = 1

	// maxBinaryRecord bounds one record's payload so a corrupt length
	// prefix cannot ask for an absurd allocation.
	maxBinaryRecord = 1 << 20

	// maxUS is the largest microsecond count that converts back to a
	// simtime.Time without overflow.
	maxUS = int64(simtime.Infinity) / int64(time.Microsecond)
)

// WriteBinary streams src to w in binary form, returning the number of
// invocations written. Both generation errors (via trace.Err) and
// write errors are reported.
func WriteBinary(w io.Writer, src Source) (int, error) {
	bw := bufio.NewWriterSize(w, 64<<10)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return 0, err
	}
	if err := bw.WriteByte(binaryVersion); err != nil {
		return 0, err
	}
	appOf := map[string]uint64{}
	var prevID, prevArrUS int64
	n := 0
	payload := make([]byte, 0, 256)
	var lenBuf [binary.MaxVarintLen64]byte
	for {
		t, ok := src.Next()
		if !ok {
			break
		}
		arrUS := t.Arrival.Microseconds()
		if arrUS < prevArrUS {
			return n, fmt.Errorf("trace: record %d: arrival %v precedes predecessor", n+1, t.Arrival)
		}
		payload = binary.AppendVarint(payload[:0], int64(t.ID)-prevID)
		if t.App == "" {
			payload = binary.AppendUvarint(payload, 1) // table entry 0, pre-seeded to ""
		} else if ref, seen := appOf[t.App]; seen {
			payload = binary.AppendUvarint(payload, ref)
		} else {
			appOf[t.App] = uint64(len(appOf)) + 2 // entry 0 is ""
			payload = binary.AppendUvarint(payload, 0)
			payload = binary.AppendUvarint(payload, uint64(len(t.App)))
			payload = append(payload, t.App...)
		}
		payload = binary.AppendUvarint(payload, uint64(arrUS-prevArrUS))
		payload = binary.AppendUvarint(payload, uint64(serviceUS(t.Service)))
		payload = binary.AppendUvarint(payload, uint64(len(t.IOOps)))
		prevAtUS := int64(0)
		for _, op := range t.IOOps {
			atUS := op.At.Microseconds()
			payload = binary.AppendUvarint(payload, uint64(atUS-prevAtUS))
			payload = binary.AppendUvarint(payload, uint64(op.Dur.Microseconds()))
			prevAtUS = atUS
		}
		if len(payload) > maxBinaryRecord {
			return n, fmt.Errorf("trace: record %d: payload %d bytes exceeds limit %d", n+1, len(payload), maxBinaryRecord)
		}
		ln := binary.PutUvarint(lenBuf[:], uint64(len(payload)))
		if _, err := bw.Write(lenBuf[:ln]); err != nil {
			return n, err
		}
		if _, err := bw.Write(payload); err != nil {
			return n, err
		}
		prevID, prevArrUS = int64(t.ID), arrUS
		n++
	}
	if err := Err(src); err != nil {
		return n, err
	}
	return n, bw.Flush()
}

// binRec is one decoded record before materialization: Next turns it
// into an arena-backed task, ReadBinaryTape appends it straight onto
// struct-of-arrays columns. The I/O slices are scratch space reused
// across records.
type binRec struct {
	id     int64
	appRef int // index into binSource.apps (entry 0 is "")
	arrUS  int64
	svcUS  int64
	ioAt   []int64 // absolute microseconds, validated ascending
	ioDur  []int64 // microseconds
}

// binSource lazily decodes records from a reader. It buffers input in
// its own window and parses records as plain slices of it: the decode
// hot loop is slice indexing, not per-byte (or per-record) calls
// through bufio and io.ByteReader interfaces.
type binSource struct {
	r         io.Reader
	win       []byte // win[off:size] is buffered, unconsumed input
	off, size int
	eof       bool
	arena     *task.Arena
	apps      []string
	prevID    int64
	prevArrUS int64
	rec       binRec
	row       int
	err       error
	done      bool
}

// binReadChunk is the refill granularity of the decode window.
const binReadChunk = 64 << 10

// NewBinarySource opens a binary trace for streaming replay. The
// header is validated eagerly; records are decoded on demand. Each
// decoded record is validated, and the first malformed record
// terminates the stream with a record-numbered error available via
// Err.
func NewBinarySource(r io.Reader) (Source, error) {
	return newBinSource(r)
}

func newBinSource(r io.Reader) (*binSource, error) {
	var hdr [len(binaryMagic) + 1]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading binary header: %w", err)
	}
	if string(hdr[:len(binaryMagic)]) != binaryMagic {
		return nil, fmt.Errorf("trace: bad magic %q, want %q", hdr[:len(binaryMagic)], binaryMagic)
	}
	if v := hdr[len(binaryMagic)]; v != binaryVersion {
		return nil, fmt.Errorf("trace: unsupported binary trace version %d (want %d)", v, binaryVersion)
	}
	return &binSource{r: r, arena: task.NewArena(), apps: []string{""}}, nil
}

// fill makes at least need unconsumed bytes available in the window,
// stopping early only at end of input (s.eof) or a read error.
func (s *binSource) fill(need int) error {
	if s.size-s.off >= need || s.eof {
		return nil
	}
	if s.off > 0 {
		copy(s.win, s.win[s.off:s.size])
		s.size -= s.off
		s.off = 0
	}
	want := need
	if want < binReadChunk {
		want = binReadChunk
	}
	if cap(s.win) < want {
		grown := make([]byte, want)
		copy(grown, s.win[:s.size])
		s.win = grown
	}
	s.win = s.win[:cap(s.win)]
	empties := 0
	for s.size < need {
		n, err := s.r.Read(s.win[s.size:])
		s.size += n
		if err == io.EOF {
			s.eof = true
			return nil
		}
		if err != nil {
			return err
		}
		if n == 0 {
			if empties++; empties > 100 {
				return io.ErrNoProgress
			}
		} else {
			empties = 0
		}
	}
	return nil
}

// Next implements Source.
func (s *binSource) Next() (*task.Task, bool) {
	if !s.decode() {
		return nil, false
	}
	r := &s.rec
	t := s.arena.New(int(r.id), simtime.Time(r.arrUS)*simtime.Time(time.Microsecond), time.Duration(r.svcUS)*time.Microsecond)
	t.App = s.apps[r.appRef]
	if len(r.ioAt) > 0 {
		ops := s.arena.IO(len(r.ioAt))
		for i := range ops {
			ops[i] = task.IOOp{At: time.Duration(r.ioAt[i]) * time.Microsecond, Dur: time.Duration(r.ioDur[i]) * time.Microsecond}
		}
		t.IOOps = ops
	}
	return t, true
}

// decode advances to the next record, leaving it in s.rec. It returns
// false at end of input or on error (recorded for Err).
func (s *binSource) decode() bool {
	if s.done {
		return false
	}
	s.row++
	// One extra byte beyond MaxVarintLen64 lets binary.Uvarint see the
	// 11th continuation byte of an overlong length prefix and report
	// overflow (n < 0) instead of "incomplete" (n == 0): after fill, an
	// incomplete prefix can only mean the input ended mid-varint.
	if s.size-s.off < binary.MaxVarintLen64+1 {
		if err := s.fill(binary.MaxVarintLen64 + 1); err != nil {
			s.fail(fmt.Errorf("trace: binary record %d: %w", s.row, err))
			return false
		}
	}
	if s.off == s.size {
		s.done = true // clean exhaustion at a record boundary
		s.row--
		return false
	}
	ln, n := binary.Uvarint(s.win[s.off:s.size])
	switch {
	case n > 0:
		s.off += n
	case n < 0:
		s.fail(fmt.Errorf("trace: binary record %d: length varint overflows 64 bits", s.row))
		return false
	default:
		s.fail(fmt.Errorf("trace: binary record %d: truncated record length", s.row))
		return false
	}
	if ln > maxBinaryRecord {
		s.fail(fmt.Errorf("trace: binary record %d: length %d exceeds limit %d", s.row, ln, maxBinaryRecord))
		return false
	}
	need := int(ln)
	if s.size-s.off < need {
		if err := s.fill(need); err != nil {
			s.fail(fmt.Errorf("trace: binary record %d: truncated payload: %w", s.row, err))
			return false
		}
	}
	if s.size-s.off < need {
		s.fail(fmt.Errorf("trace: binary record %d: truncated payload: %w", s.row, io.ErrUnexpectedEOF))
		return false
	}
	p := s.win[s.off : s.off+need]
	s.off += need
	if perr := s.parse(p); perr != nil {
		s.fail(fmt.Errorf("trace: binary record %d: %w", s.row, perr))
		return false
	}
	return true
}

// parse decodes and validates one record payload into s.rec. It keeps
// no reference into p: app names are copied when interned.
func (s *binSource) parse(p []byte) error {
	idDelta, p, err := getVarint(p, "id")
	if err != nil {
		return err
	}
	ref, p, err := getUvarint(p, "app ref")
	if err != nil {
		return err
	}
	if ref == 0 {
		nameLen, rest, err := getUvarint(p, "app name length")
		if err != nil {
			return err
		}
		if nameLen > uint64(len(rest)) {
			return fmt.Errorf("app name length %d overruns record", nameLen)
		}
		s.apps = append(s.apps, string(rest[:nameLen]))
		s.rec.appRef = len(s.apps) - 1
		p = rest[nameLen:]
	} else {
		if ref > uint64(len(s.apps)) {
			return fmt.Errorf("app ref %d out of range (table has %d entries)", ref, len(s.apps))
		}
		s.rec.appRef = int(ref - 1)
	}
	arrDelta, p, err := getUvarint(p, "arrival delta")
	if err != nil {
		return err
	}
	svcUS, p, err := getUvarint(p, "service")
	if err != nil {
		return err
	}
	nIO, p, err := getUvarint(p, "io count")
	if err != nil {
		return err
	}
	arrUS := s.prevArrUS + int64(arrDelta)
	if int64(arrDelta) < 0 || arrUS > maxUS || arrUS < s.prevArrUS {
		return fmt.Errorf("arrival delta %d overflows", arrDelta)
	}
	if svcUS > uint64(maxUS) {
		return fmt.Errorf("service %d overflows", svcUS)
	}
	// Each op costs at least two payload bytes, so nIO is bounded by the
	// record length; reject before allocating.
	if nIO > uint64(len(p)) {
		return fmt.Errorf("io count %d overruns record", nIO)
	}
	id := s.prevID + idDelta
	s.rec.ioAt = s.rec.ioAt[:0]
	s.rec.ioDur = s.rec.ioDur[:0]
	prevAtUS := int64(0)
	for i := 0; i < int(nIO); i++ {
		atDelta, rest, err := getUvarint(p, "io at")
		if err != nil {
			return err
		}
		durUS, rest, err := getUvarint(rest, "io dur")
		if err != nil {
			return err
		}
		p = rest
		atUS := prevAtUS + int64(atDelta)
		if int64(atDelta) < 0 || atUS > maxUS || atUS < prevAtUS || durUS > uint64(maxUS) {
			return fmt.Errorf("io op %d overflows", i)
		}
		if atUS > int64(svcUS) {
			return fmt.Errorf("task %d: IO op %d at %v outside service interval [0,%v]",
				id, i, time.Duration(atUS)*time.Microsecond, time.Duration(svcUS)*time.Microsecond)
		}
		s.rec.ioAt = append(s.rec.ioAt, atUS)
		s.rec.ioDur = append(s.rec.ioDur, int64(durUS))
		prevAtUS = atUS
	}
	if len(p) != 0 {
		return fmt.Errorf("%d trailing bytes after record", len(p))
	}
	// The remaining task.Validate invariants hold by construction
	// (unsigned deltas make arrivals and I/O orders non-decreasing and
	// non-negative); only positivity needs an explicit check.
	if svcUS == 0 {
		return fmt.Errorf("task %d: non-positive service time %v", id, time.Duration(0))
	}
	s.rec.id = id
	s.rec.arrUS = arrUS
	s.rec.svcUS = int64(svcUS)
	s.prevID, s.prevArrUS = id, arrUS
	return nil
}

func getUvarint(p []byte, field string) (uint64, []byte, error) {
	// One- and two-byte values (µs-scale deltas, app refs, I/O counts)
	// dominate real traces; decode them without the full varint loop.
	if len(p) > 0 && p[0] < 0x80 {
		return uint64(p[0]), p[1:], nil
	}
	if len(p) > 1 && p[1] < 0x80 {
		return uint64(p[0]&0x7f) | uint64(p[1])<<7, p[2:], nil
	}
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, fmt.Errorf("malformed %s varint", field)
	}
	return v, p[n:], nil
}

func getVarint(p []byte, field string) (int64, []byte, error) {
	u, rest, err := getUvarint(p, field)
	if err != nil {
		return 0, nil, err
	}
	// Zigzag decode, exactly as binary.Varint does.
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v, rest, nil
}

func (s *binSource) fail(err error) {
	s.err = err
	s.done = true
}

// Err implements Failer.
func (s *binSource) Err() error { return s.err }

// String implements Source.
func (s *binSource) String() string { return "binary" }

// ReadBinary materializes a binary trace, the strict counterpart of
// NewBinarySource for callers that need the whole workload.
func ReadBinary(r io.Reader) ([]*task.Task, error) {
	src, err := NewBinarySource(r)
	if err != nil {
		return nil, err
	}
	tasks := Collect(src)
	if err := Err(src); err != nil {
		return nil, err
	}
	return tasks, nil
}

// ReadBinaryTape decodes a binary trace straight onto a
// struct-of-arrays Tape: no per-record task materialization, no arena
// blocks — decoded fields append directly to the tape's columns, and
// the stream's app table maps onto the tape's intern table once per
// distinct app. This is the fast path for loading million-invocation
// archives; the result is replay-ready via Tape.Source, and
// Tape.Materialize reproduces exactly the tasks ReadBinary returns.
func ReadBinaryTape(r io.Reader) (*Tape, error) {
	// In-memory readers (bytes.Reader & friends) reveal their size;
	// records run ~10–20 bytes, so size/12 is a close row-count guess
	// that pre-sizes the columns past most growth reallocations. A miss
	// costs at most a couple of doublings.
	rows := 0
	if l, ok := r.(interface{ Len() int }); ok {
		rows = l.Len() / 12
	}
	s, err := newBinSource(r)
	if err != nil {
		return nil, err
	}
	tp := NewTape()
	if rows > 0 {
		tp.ids = make([]int64, 0, rows)
		tp.appIdx = make([]int32, 0, rows)
		tp.arrivalNS = make([]int64, 0, rows)
		tp.serviceNS = make([]int64, 0, rows)
		tp.weights = make([]int32, 0, rows)
		tp.ioOff = append(make([]int32, 0, rows+1), 0)
	}
	tapeIdx := []int32{-1} // stream app-table index → tape app index ("" is -1)
	for s.decode() {
		rec := &s.rec
		for len(tapeIdx) < len(s.apps) {
			name := s.apps[len(tapeIdx)]
			ai, ok := tp.appOf[name]
			if !ok {
				ai = int32(len(tp.apps))
				tp.apps = append(tp.apps, name)
				tp.appOf[name] = ai
			}
			tapeIdx = append(tapeIdx, ai)
		}
		tp.ids = append(tp.ids, rec.id)
		tp.appIdx = append(tp.appIdx, tapeIdx[rec.appRef])
		tp.arrivalNS = append(tp.arrivalNS, rec.arrUS*int64(time.Microsecond))
		tp.serviceNS = append(tp.serviceNS, rec.svcUS*int64(time.Microsecond))
		tp.weights = append(tp.weights, task.DefaultWeight)
		for i := range rec.ioAt {
			tp.ioAtNS = append(tp.ioAtNS, rec.ioAt[i]*int64(time.Microsecond))
			tp.ioDurNS = append(tp.ioDurNS, rec.ioDur[i]*int64(time.Microsecond))
		}
		tp.ioOff = append(tp.ioOff, int32(len(tp.ioAtNS)))
	}
	if s.err != nil {
		return nil, s.err
	}
	return tp, nil
}

// DetectSource sniffs r's leading bytes and opens it as a binary or
// CSV trace source accordingly, so replay paths accept either format
// transparently.
func DetectSource(r io.Reader) (Source, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	head, err := br.Peek(len(binaryMagic))
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("trace: sniffing format: %w", err)
	}
	if string(head) == binaryMagic {
		return NewBinarySource(br)
	}
	return NewCSVSource(br)
}
