// Package journal is the durable write-ahead log behind salsad's async
// jobs: an append-only, CRC-framed record stream on local disk that
// lets a SIGKILLed shard reboot with its data dir and serve every job
// it had accepted — terminal jobs byte-identically, in-flight jobs by
// re-running the deterministic allocation.
//
// Record framing is deliberately minimal:
//
//	frame   = length(uint32 LE) crc(uint32 LE) body
//	body    = kind(1 byte) idLen(uint16 LE) jobID payload
//	crc     = CRC-32 (IEEE) over body
//
// Two record kinds cover a job's life: Accepted (the raw request bytes
// plus the normalized content key) and Result (the terminal HTTP
// status, exact body bytes and frozen elapsed time). Both are fsynced
// before the server acknowledges the transition, so a crash never
// loses an acceptance or an outcome that a client was told about. A
// job cut off by a crash has no Result record and re-runs from its
// Accepted one. AppendAll writes several records in one write and one
// fsync: a job whose result is already known is accepted and finished
// at the cost of a single sync.
//
// Each process boot appends to its own segment file; replay reads every
// segment in name order and keeps the longest valid prefix of each,
// so torn or truncated tails — the signature of dying mid-write — cost
// at most the unacknowledged record they belong to. Replay never fails
// on corrupt data: a bad frame simply ends that segment's prefix.
//
// Frames overwrite zeros: a segment grows by whole chunks of zeros,
// fsynced once, ahead of its frames, so a record's fsync commits no
// block allocation or size change. A zero header ends a segment's
// prefix like any bad frame, and Close trims the unfilled zeros off.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Kind discriminates journal records.
type Kind byte

const (
	// KindAccepted records an admitted job: the wire request bytes and
	// the normalized content key, enough to re-run the allocation.
	KindAccepted Kind = 1
	// Kind 2 is retired and must not be reused: journals written by
	// earlier versions may hold progress checkpoints under it, and
	// Reduce skips them like any unknown kind.

	// KindResult records the terminal outcome: status, exact body
	// bytes, and the elapsed time frozen at completion.
	KindResult Kind = 3
)

// Record is one framed journal entry.
type Record struct {
	Kind    Kind
	ID      string
	Payload []byte
}

// acceptedPayload is KindAccepted's JSON payload.
type acceptedPayload struct {
	Request []byte `json:"request"`
	Options string `json:"options"`
}

// resultPayload is KindResult's JSON payload.
type resultPayload struct {
	Status    int    `json:"status"`
	Body      []byte `json:"body"`
	Merged    bool   `json:"merged,omitempty"`
	ElapsedMS int64  `json:"elapsed_ms"`
}

// Accepted builds the admission record for a job: the raw wire request
// and the normalized options (content key) it resolved to.
func Accepted(id string, request []byte, options string) Record {
	return Record{Kind: KindAccepted, ID: id, Payload: mustJSON(acceptedPayload{Request: request, Options: options})}
}

// Result builds the terminal record: the HTTP status and exact body a
// poll must keep serving forever, plus the elapsed milliseconds frozen
// at completion.
func Result(id string, status int, body []byte, merged bool, elapsedMS int64) Record {
	return Record{Kind: KindResult, ID: id, Payload: mustJSON(resultPayload{
		Status: status, Body: body, Merged: merged, ElapsedMS: elapsedMS,
	})}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// The payload structs hold only byte slices, strings and
		// integers; marshaling cannot fail.
		panic("journal: encoding payload: " + err.Error())
	}
	return b
}

// JobState is one job's replayed state: the fold of its records in a
// journal directory, in Reduce's first-terminal-wins semantics.
type JobState struct {
	ID      string
	Request []byte // wire request bytes from the Accepted record
	Options string // normalized content key from the Accepted record

	// Terminal reports whether a Result record survived; the remaining
	// fields are meaningful only when it did.
	Terminal  bool
	Status    int
	Body      []byte
	Merged    bool
	ElapsedMS int64
}

// frame layout constants.
const (
	headerLen = 8 // uint32 length + uint32 crc
	// maxFrame rejects absurd length prefixes so a corrupt header reads
	// as end-of-prefix, not a giant allocation. Request bodies are
	// bounded at 4 MiB by the service; 16 MiB leaves generous headroom
	// for result bodies.
	maxFrame = 16 << 20
	// chunk is the step by which a segment's zeroed space grows.
	chunk = 1 << 20
)

// frameLen is the length of rec's wire frame.
func frameLen(rec Record) int { return headerLen + 3 + len(rec.ID) + len(rec.Payload) }

// appendFrame appends rec's wire frame to dst.
func appendFrame(dst []byte, rec Record) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(frameLen(rec)-headerLen))
	dst = append(dst, 0, 0, 0, 0) // the CRC, once the body is in place
	dst = append(dst, byte(rec.Kind))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(rec.ID)))
	dst = append(dst, rec.ID...)
	dst = append(dst, rec.Payload...)
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(dst[start+headerLen:]))
	return dst
}

// decodePrefix parses the longest valid frame prefix of one segment's
// bytes. Anything after the first bad frame — truncated header, length
// out of range, short body, CRC mismatch, malformed body — is a torn
// or corrupt tail and is discarded. It never fails: corruption just
// ends the prefix.
func decodePrefix(data []byte) []Record {
	var out []Record
	for off := 0; ; {
		if len(data)-off < headerLen {
			return out
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if n < 3 || n > maxFrame || len(data)-off-headerLen < n {
			return out
		}
		body := data[off+headerLen : off+headerLen+n]
		if crc32.ChecksumIEEE(body) != crc {
			return out
		}
		idLen := int(binary.LittleEndian.Uint16(body[1:3]))
		if idLen > len(body)-3 {
			return out
		}
		out = append(out, Record{
			Kind:    Kind(body[0]),
			ID:      string(body[3 : 3+idLen]),
			Payload: append([]byte(nil), body[3+idLen:]...),
		})
		off += headerLen + n
	}
}

// Reduce folds a replayed record stream into per-job states, in
// first-acceptance order. The fold is defensive about every shape a
// torn history can take:
//
//   - a Result for a job with no surviving Accepted record is dropped
//     (the acceptance was never acknowledged, so the job does not
//     exist as far as any client knows);
//   - a duplicate Accepted record keeps the first (IDs are unique per
//     process; a duplicate is corruption);
//   - a duplicate Result record keeps the first — terminal outcomes
//     are immutable, and the first one is what a client may have seen;
//   - a payload that fails to decode drops that record only;
//   - unknown kinds, the retired kind 2 among them, are skipped.
func Reduce(recs []Record) []*JobState {
	byID := make(map[string]*JobState)
	var order []*JobState
	for _, rec := range recs {
		switch rec.Kind {
		case KindAccepted:
			if byID[rec.ID] != nil {
				continue
			}
			var p acceptedPayload
			if json.Unmarshal(rec.Payload, &p) != nil {
				continue
			}
			st := &JobState{ID: rec.ID, Request: p.Request, Options: p.Options}
			byID[rec.ID] = st
			order = append(order, st)
		case KindResult:
			st := byID[rec.ID]
			if st == nil || st.Terminal {
				continue
			}
			var p resultPayload
			if json.Unmarshal(rec.Payload, &p) != nil {
				continue
			}
			st.Terminal = true
			st.Status = p.Status
			st.Body = p.Body
			st.Merged = p.Merged
			st.ElapsedMS = p.ElapsedMS
		}
	}
	return order
}

// ErrKilled is returned by Append after Kill (or a Crash hook) has
// simulated process death: the journal accepts no further writes, just
// as a SIGKILLed process would write nothing more.
var ErrKilled = errors.New("journal: killed")

// Hooks installs test-only crash instrumentation. Always nil in
// production.
type Hooks struct {
	// Crash, when non-nil, is consulted once per record before a write,
	// with the record's 0-based append index (the records of one
	// AppendAll take consecutive indexes), the record, and its encoded
	// frame length. Returning n >= 0 simulates dying n bytes into that
	// record's frame: the write's earlier frames and frame[:n] reach
	// the file, nothing is fsynced, the journal is marked killed, and
	// the append returns ErrKilled. Returning a negative value lets the
	// record through. The hook runs under the journal's lock and must
	// not call back into the journal.
	Crash func(appendIndex int, rec Record, frameLen int) int
}

// Journal is one shard's open write-ahead log: the replayed state of
// every segment in its directory, held until TakeStates hands it over,
// plus an append handle on a fresh segment for this process's own
// records.
type Journal struct {
	dir   string
	hooks *Hooks // immutable after Open

	mu      sync.Mutex
	states  []*JobState // guarded by mu; nil once taken
	f       *os.File    // guarded by mu; nil after Close
	size    int64       // guarded by mu; bytes of frames written to the new segment
	zeroed  int64       // guarded by mu; end of the fsynced zeros the frames overwrite
	synced  int64       // guarded by mu; bytes known fsynced
	appends int         // guarded by mu; records appended this process
	killed  bool        // guarded by mu
}

// Open replays every segment in dir (creating it if needed) and opens
// a fresh segment for this process's appends. Corrupt or torn data is
// never an error — replay keeps each segment's longest valid prefix —
// so Open fails only on real I/O problems.
func Open(dir string) (*Journal, error) { return OpenWithHooks(dir, nil) }

// OpenWithHooks is Open with test-only crash hooks installed.
func OpenWithHooks(dir string, hooks *Hooks) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var segs []string
	maxSeq := 0
	for _, e := range entries {
		name := e.Name()
		var seq int
		if _, err := fmt.Sscanf(name, "seg-%d.wal", &seq); err != nil || name != segName(seq) {
			continue
		}
		segs = append(segs, name)
		if seq > maxSeq {
			maxSeq = seq
		}
	}
	sort.Strings(segs)
	var recs []Record
	for _, name := range segs {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		recs = append(recs, decodePrefix(data)...)
	}
	f, err := os.OpenFile(filepath.Join(dir, segName(maxSeq+1)),
		os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o666)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &Journal{dir: dir, states: Reduce(recs), hooks: hooks, f: f}, nil
}

// segName names segment seq. Open replays no other name, so a copy
// beside the segments ("seg-00000001.wal.bak") is never replayed.
func segName(seq int) string { return fmt.Sprintf("seg-%08d.wal", seq) }

// Dir returns the journal's directory.
func (j *Journal) Dir() string { return j.dir }

// TakeStates returns the job states replayed at Open, in
// first-acceptance order, and drops the journal's reference to them,
// so that a state the caller lets go of (a retired job's request and
// body) can be collected. Later calls return nil.
func (j *Journal) TakeStates() []*JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	states := j.states
	j.states = nil
	return states
}

// Append writes one record to the current segment: AppendAll of that
// record alone.
func (j *Journal) Append(rec Record, sync bool) error { return j.AppendAll([]Record{rec}, sync) }

// AppendAll writes recs to the current segment in one write, after
// the frames already written and over zeros that an earlier fsync made
// durable, growing the zeroed space first when they pass it. With sync
// set, the write is fsynced before AppendAll returns — the discipline
// for Accepted and Result records, whose acknowledgement promises
// durability, and the only one the service uses. A crash partway
// through the write leaves a prefix of its frames, the last possibly
// torn, which replay cuts back to the whole ones. A write that fails
// leaves the end of the frames where it was, so the next append
// overwrites whatever part of it reached the file.
func (j *Journal) AppendAll(recs []Record, sync bool) error {
	n := 0
	for _, rec := range recs {
		n += frameLen(rec)
	}
	buf := make([]byte, 0, n)
	for _, rec := range recs {
		buf = appendFrame(buf, rec)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.killed {
		return ErrKilled
	}
	if j.f == nil {
		return errors.New("journal: closed")
	}
	idx := j.appends
	j.appends += len(recs)
	if end := j.size + int64(len(buf)); end > j.zeroed {
		end = (end + chunk - 1) / chunk * chunk
		if err := fillZeros(j.f, j.zeroed, end); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		j.zeroed = end
	}
	if j.hooks != nil && j.hooks.Crash != nil {
		off := 0
		for i, rec := range recs {
			fl := frameLen(rec)
			if cut := j.hooks.Crash(idx+i, rec, fl); cut >= 0 {
				written := off + min(cut, fl)
				_, _ = j.f.WriteAt(buf[:written], j.size)
				j.size += int64(written)
				j.killed = true
				return ErrKilled
			}
			off += fl
		}
	}
	if _, err := j.f.WriteAt(buf, j.size); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.size += int64(len(buf))
	if sync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		j.synced = j.size
	}
	return nil
}

// zeros is what fillZeros writes, a sixteenth of a chunk at a time.
// Nothing writes to it, so unlike a buffer allocated per growth it
// costs no resident memory.
var zeros [chunk / 16]byte

// fillZeros writes zeros over bytes [from, to) of f and fsyncs them.
// The fsync allocates the blocks and commits the file's new size, so
// the fsyncs of the records later written over the zeros commit data
// alone.
func fillZeros(f *os.File, from, to int64) error {
	for off := from; off < to; off += int64(len(zeros)) {
		if _, err := f.WriteAt(zeros[:min(to-off, int64(len(zeros)))], off); err != nil {
			return err
		}
	}
	return f.Sync()
}

// Kill simulates abrupt process death for tests and the simulation
// harness: the journal accepts no further appends, and the unsynced
// tail of the segment is torn at a seeded point — anywhere from the
// last fsync to the current end — modelling what the page cache may or
// may not have flushed when the process was SIGKILLed. Idempotent.
func (j *Journal) Kill(tear uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.killed {
		return
	}
	j.killed = true
	if j.f == nil {
		return
	}
	if unsynced := j.size - j.synced; unsynced > 0 {
		keep := j.synced + int64(tear%uint64(unsynced+1))
		_ = j.f.Truncate(keep)
	}
}

// Close trims the current segment to its frames, dropping the zeroed
// space no record filled, then fsyncs and closes it. A killed journal
// is closed as a dead process leaves it: neither trimmed nor synced.
// Appending afterwards is an error. Idempotent.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	f := j.f
	j.f = nil
	if !j.killed {
		err := f.Truncate(j.size)
		if err == nil {
			err = f.Sync()
		}
		if err != nil {
			_ = f.Close()
			return fmt.Errorf("journal: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}
