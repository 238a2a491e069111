package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// reopen closes j and replays its directory into a fresh journal — one
// simulated process restart.
func reopen(t *testing.T, j *Journal) *Journal {
	t.Helper()
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	nj, err := Open(j.Dir())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	t.Cleanup(func() { nj.Close() })
	return nj
}

func openTemp(t *testing.T) *Journal {
	t.Helper()
	j, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

// TestRoundTrip: two full job lives — accepted, then a terminal
// result — replay byte-exactly across a restart, and a second restart
// (a fresh segment per boot) still sees them. The second job's records
// go unsynced between synced ones, and the close syncs them.
func TestRoundTrip(t *testing.T) {
	j := openTemp(t)
	req := []byte(`{"graph":{"name":"g"},"seed":3}`)
	body := []byte(`{"result":"ok"}` + "\n")
	for _, step := range []struct {
		rec  Record
		sync bool
	}{
		{Accepted("j1-abc", req, "abc|mode=salsa"), true},
		{Accepted("j2-abd", []byte(`{"seed":4}`), "abd"), false},
		{Result("j1-abc", 200, body, false, 1234), true},
		{Result("j2-abd", 422, []byte(`{"error":"x"}`), true, 5), false},
	} {
		if err := j.Append(step.rec, step.sync); err != nil {
			t.Fatalf("Append(%d): %v", step.rec.Kind, err)
		}
	}
	for boot := 0; boot < 2; boot++ {
		j = reopen(t, j)
		states := j.TakeStates()
		if len(states) != 2 {
			t.Fatalf("boot %d: %d states, want 2", boot, len(states))
		}
		st := states[0]
		if st.ID != "j1-abc" || !bytes.Equal(st.Request, req) || st.Options != "abc|mode=salsa" {
			t.Errorf("boot %d: accepted fields corrupted: %+v", boot, st)
		}
		if !st.Terminal || st.Status != 200 || !bytes.Equal(st.Body, body) || st.Merged || st.ElapsedMS != 1234 {
			t.Errorf("boot %d: terminal fields corrupted: %+v", boot, st)
		}
		st = states[1]
		if st.ID != "j2-abd" || st.Options != "abd" || !st.Terminal || st.Status != 422 || !st.Merged || st.ElapsedMS != 5 {
			t.Errorf("boot %d: unsynced job's fields corrupted: %+v", boot, st)
		}
	}
}

// corruptCase is one torn-history segment replay must absorb.
type corruptCase struct {
	name string
	data []byte // raw segment bytes
	want int    // surviving states
	// checks beyond the count:
	terminal bool // want[0].Terminal
	status   int  // want[0].Status when terminal
}

// corruptionCases is the table of every torn-history shape replay must
// absorb; TestReplayCorruption checks each and FuzzReplay starts from
// them.
func corruptionCases() []corruptCase {
	// A reference two-record stream: job accepted, then finished.
	acc := appendFrame(nil, Accepted("j1-ff", []byte(`{"seed":1}`), "k"))
	res := appendFrame(nil, Result("j1-ff", 200, []byte(`{"ok":true}`), false, 10))

	corruptCRC := append(append([]byte(nil), acc...), res...)
	corruptCRC[len(acc)+4] ^= 0xff // flip one CRC byte of the result frame

	hugeLen := append([]byte(nil), acc...)
	hugeLen = binary.LittleEndian.AppendUint32(hugeLen, 1<<30) // absurd length prefix
	hugeLen = binary.LittleEndian.AppendUint32(hugeLen, 0)

	// A frame whose CRC is valid but whose body lies about the ID
	// length (idLen past the body end).
	badID := []byte{byte(KindAccepted), 0xff, 0xff, 'x'}
	badIDFrame := make([]byte, 0, headerLen+len(badID))
	badIDFrame = binary.LittleEndian.AppendUint32(badIDFrame, uint32(len(badID)))
	badIDFrame = binary.LittleEndian.AppendUint32(badIDFrame, crc32.ChecksumIEEE(badID))
	badIDFrame = append(badIDFrame, badID...)

	dup := Result("j1-ff", 500, []byte(`{"error":"late duplicate"}`), true, 999)

	// Earlier versions journaled progress checkpoints as kind 2.
	legacy := appendFrame(nil, Record{Kind: 2, ID: "j1-ff", Payload: []byte(`{"portfolio_jobs_started":2}`)})

	return []corruptCase{
		{"empty file", nil, 0, false, 0},
		{"truncated tail record", append(append([]byte(nil), acc...), res[:len(res)-5]...), 1, false, 0},
		{"torn write partial frame", append(append([]byte(nil), acc...), res[:3]...), 1, false, 0},
		{"crc mismatch mid-file", corruptCRC, 1, false, 0},
		{"garbage only", []byte("not a journal at all"), 0, false, 0},
		{"huge length prefix", hugeLen, 1, false, 0},
		{"bad id length", append(badIDFrame, acc...), 0, false, 0},
		{"duplicate terminal record", append(append(append([]byte(nil), acc...), res...), appendFrame(nil, dup)...), 1, true, 200},
		{"intact", append(append([]byte(nil), acc...), res...), 1, true, 200},
		{"legacy progress record", append(append(append([]byte(nil), acc...), legacy...), res...), 1, true, 200},
	}
}

// writeSegment makes a journal directory holding data as its one
// segment.
func writeSegment(t *testing.T, data []byte) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-00000001.wal"), data, 0o666); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestReplayCorruption: for every torn-history shape, the longest
// valid prefix survives, nothing panics, and records after the first
// bad frame are gone.
func TestReplayCorruption(t *testing.T) {
	for _, tc := range corruptionCases() {
		t.Run(tc.name, func(t *testing.T) {
			j, err := Open(writeSegment(t, tc.data))
			if err != nil {
				t.Fatalf("Open over corrupt segment: %v", err)
			}
			defer j.Close()
			states := j.TakeStates()
			if len(states) != tc.want {
				t.Fatalf("replayed %d states, want %d", len(states), tc.want)
			}
			if tc.want == 0 {
				return
			}
			st := states[0]
			if st.Terminal != tc.terminal {
				t.Errorf("Terminal = %t, want %t", st.Terminal, tc.terminal)
			}
			if tc.terminal && (st.Status != tc.status || !bytes.Equal(st.Body, []byte(`{"ok":true}`))) {
				t.Errorf("first terminal record must win: status=%d body=%s", st.Status, st.Body)
			}
		})
	}
}

// FuzzReplay replays arbitrary bytes as a journal segment. Open must
// succeed, every replayed job must have an Accepted record in the
// segment's valid prefix, and that prefix must be exactly the frames
// appendFrame renders for the records decoded from it.
func FuzzReplay(f *testing.F) {
	for _, tc := range corruptionCases() {
		f.Add(tc.data)
	}
	f.Add(twoRecordWrite(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := Open(writeSegment(t, data))
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer j.Close()
		recs := decodePrefix(data)
		accepted := make(map[string]bool)
		var prefix []byte
		for _, rec := range recs {
			if rec.Kind == KindAccepted {
				accepted[rec.ID] = true
			}
			frame := appendFrame(nil, rec)
			if again := decodePrefix(frame); len(again) != 1 || again[0].Kind != rec.Kind ||
				again[0].ID != rec.ID || !bytes.Equal(again[0].Payload, rec.Payload) {
				t.Fatalf("record %+v does not round-trip through its frame: %+v", rec, again)
			}
			prefix = append(prefix, frame...)
		}
		if !bytes.HasPrefix(data, prefix) {
			t.Fatalf("re-encoding the %d replayed records does not reproduce the segment's prefix", len(recs))
		}
		seen := make(map[string]bool)
		for _, st := range j.TakeStates() {
			if !accepted[st.ID] {
				t.Errorf("replayed job %q has no Accepted record", st.ID)
			}
			if seen[st.ID] {
				t.Errorf("job %q replayed twice", st.ID)
			}
			seen[st.ID] = true
		}
	})
}

// TestReduceOrphans: results whose acceptance did not survive are
// dropped, before or after other jobs' records — an unacknowledged job
// must not resurrect.
func TestReduceOrphans(t *testing.T) {
	states := Reduce([]Record{
		Result("ghost", 200, []byte(`{}`), false, 1),
		Accepted("real", []byte(`{"seed":2}`), "k2"),
		Result("ghost2", 200, []byte(`{}`), false, 1),
	})
	if len(states) != 1 || states[0].ID != "real" {
		t.Fatalf("Reduce kept orphans: %+v", states)
	}
}

// TestKillTearsUnsyncedTail: Kill must preserve everything fsynced and
// may tear anything after it; replay never sees a partial frame. The
// unsynced tail is one Result frame, so the job replays terminal
// exactly when the tear keeps that whole frame.
func TestKillTearsUnsyncedTail(t *testing.T) {
	res := Result("j1-aa", 200, []byte(`{}`), false, 1)
	whole := uint64(frameLen(res))
	for _, tear := range []uint64{0, 1, 7, whole, 1 << 60} {
		j := openTemp(t)
		if err := j.Append(Accepted("j1-aa", []byte(`{"seed":1}`), "k"), true); err != nil {
			t.Fatal(err)
		}
		if err := j.Append(res, false); err != nil {
			t.Fatal(err)
		}
		j.Kill(tear)
		if err := j.Append(res, true); err != ErrKilled {
			t.Fatalf("Append after Kill = %v, want ErrKilled", err)
		}
		j.Kill(tear + 1) // idempotent
		nj, err := Open(j.Dir())
		if err != nil {
			t.Fatalf("tear=%d: reopen: %v", tear, err)
		}
		states := nj.TakeStates()
		kept := tear%(whole+1) == whole
		if len(states) != 1 || states[0].ID != "j1-aa" || states[0].Terminal != kept {
			t.Fatalf("tear=%d: synced acceptance lost, or terminal %t with the whole result frame kept %t: %+v",
				tear, len(states) == 1 && states[0].Terminal, kept, states)
		}
		nj.Close()
		j.Close()
	}
}

// twoRecordWrite returns the segment one AppendAll of a job's Accepted
// and Result records leaves on disk.
func twoRecordWrite(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	j, err := Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	if err := j.AppendAll([]Record{
		Accepted("j1-cc", []byte(`{"seed":5}`), "k5"),
		Result("j1-cc", 200, []byte(`{"ok":true}`), true, 0),
	}, true); err != nil {
		tb.Fatal(err)
	}
	if err := j.Close(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "seg-00000001.wal"))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestAppendAllOneWrite: the records of one AppendAll replay like the
// same records appended one by one, and take consecutive append
// indexes.
func TestAppendAllOneWrite(t *testing.T) {
	data := twoRecordWrite(t)
	want := append(appendFrame(nil, Accepted("j1-cc", []byte(`{"seed":5}`), "k5")),
		appendFrame(nil, Result("j1-cc", 200, []byte(`{"ok":true}`), true, 0))...)
	if !bytes.Equal(data, want) {
		t.Fatalf("two-record write left %d bytes, want the two frames' %d", len(data), len(want))
	}
	var idxs []int
	j, err := OpenWithHooks(t.TempDir(), &Hooks{Crash: func(idx int, _ Record, _ int) int {
		idxs = append(idxs, idx)
		return -1
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append(Accepted("j1-dd", []byte(`{}`), "k"), true); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendAll([]Record{Result("j1-dd", 200, []byte(`{}`), false, 1), Accepted("j2-dd", []byte(`{}`), "k")}, true); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(idxs) != "[0 1 2]" {
		t.Errorf("Crash consulted at append indexes %v, want [0 1 2]", idxs)
	}
}

// TestCrashHookMidWrite: a Crash hook that dies partway into a frame
// leaves a torn tail that replay absorbs, and the journal refuses
// further work. Inside one two-record write, a crash in the first
// frame leaves nothing and a crash in the second leaves the acceptance
// alone.
func TestCrashHookMidWrite(t *testing.T) {
	for _, tc := range []struct {
		crashAt int // append index whose frame the crash tears
		want    int // replayed states
	}{{0, 0}, {1, 1}} {
		dir := t.TempDir()
		j, err := OpenWithHooks(dir, &Hooks{Crash: func(idx int, _ Record, frameLen int) int {
			if idx == tc.crashAt {
				return frameLen / 2
			}
			return -1
		}})
		if err != nil {
			t.Fatal(err)
		}
		err = j.AppendAll([]Record{
			Accepted("j1-ee", []byte(`{"seed":6}`), "k6"),
			Result("j1-ee", 200, []byte(`{}`), true, 0),
		}, true)
		if !errors.Is(err, ErrKilled) {
			t.Fatalf("crash in frame %d of a two-record write: append = %v, want ErrKilled", tc.crashAt, err)
		}
		j.Close()
		nj, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		states := nj.TakeStates()
		nj.Close()
		if len(states) != tc.want || (tc.want == 1 && states[0].Terminal) {
			t.Errorf("crash in frame %d of a two-record write: replayed %+v, want %d non-terminal states", tc.crashAt, states, tc.want)
		}
	}

	dir := t.TempDir()
	j, err := OpenWithHooks(dir, &Hooks{Crash: func(idx int, _ Record, frameLen int) int {
		if idx == 1 {
			return frameLen / 2
		}
		return -1
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Accepted("j1-bb", []byte(`{"seed":4}`), "k4"), true); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Result("j1-bb", 200, []byte(`{}`), false, 5), true); err != ErrKilled {
		t.Fatalf("crashed append = %v, want ErrKilled", err)
	}
	if err := j.Append(Accepted("j2-bb", []byte(`{"seed":5}`), "k5"), false); err != ErrKilled {
		t.Fatalf("append after crash = %v, want ErrKilled", err)
	}
	j.Close()
	nj, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer nj.Close()
	states := nj.TakeStates()
	if len(states) != 1 || states[0].Terminal {
		t.Fatalf("mid-write crash: want the acceptance alone, got %+v", states)
	}
}

// TestOpenSegmentsAccumulate: each boot appends to its own segment and
// replay folds them all, oldest first.
func TestOpenSegmentsAccumulate(t *testing.T) {
	j := openTemp(t)
	if err := j.Append(Accepted("j1-s1", []byte(`{"seed":1}`), "k1"), true); err != nil {
		t.Fatal(err)
	}
	j = reopen(t, j)
	if err := j.Append(Result("j1-s1", 200, []byte(`{"x":1}`), false, 2), true); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Accepted("j2-s2", []byte(`{"seed":2}`), "k2"), true); err != nil {
		t.Fatal(err)
	}
	j = reopen(t, j)
	states := j.TakeStates()
	if len(states) != 2 {
		t.Fatalf("%d states across segments, want 2", len(states))
	}
	if states[0].ID != "j1-s1" || !states[0].Terminal {
		t.Errorf("cross-segment fold broken: %+v", states[0])
	}
	if states[1].ID != "j2-s2" || states[1].Terminal {
		t.Errorf("second boot's acceptance lost: %+v", states[1])
	}
}

// TestTakeStatesReleases: once the states are taken, the journal holds
// no reference to them, so a state the caller drops is collected
// however long the journal stays open.
func TestTakeStatesReleases(t *testing.T) {
	j, err := Open(writeSegment(t, twoRecordWrite(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	states := j.TakeStates()
	if len(states) != 1 || !states[0].Terminal {
		t.Fatalf("replayed %+v, want one terminal state", states)
	}
	if again := j.TakeStates(); again != nil {
		t.Fatalf("second TakeStates = %+v, want nil", again)
	}
	collected := make(chan struct{})
	runtime.SetFinalizer(states[0], func(*JobState) { close(collected) })
	states = nil
	for i := 0; ; i++ {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(j)
			return
		case <-time.After(10 * time.Millisecond):
		}
		if i == 100 {
			t.Fatal("a taken state was never collected: the journal still references it")
		}
	}
}
