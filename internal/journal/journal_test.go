package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// testRecords is a spread of shapes: every kind, empty and non-empty
// payloads, binary bytes in the output.
func testRecords() []Record {
	return []Record{
		{Kind: Accepted, ID: "j000001", Client: "alice", Key: "k-1",
			Request: []byte(`{"experiment":"fig10a","scale":256}`), UnixMilli: 1},
		{Kind: Dispatched, ID: "j000001", Client: "alice", UnixMilli: 2},
		{Kind: Done, ID: "j000001", Client: "alice",
			Output: []byte{0, 1, 2, 0xff, '\n', 0xfe}, UnixMilli: 3},
		{Kind: Accepted, ID: "j000002", Client: "bob", Request: []byte(`{}`), UnixMilli: 4},
		{Kind: Failed, ID: "j000002", Client: "bob", Error: "deadline exceeded", UnixMilli: 5},
		{Kind: Cancelled, ID: "j000003", Error: "cancelled by client", UnixMilli: 6},
	}
}

func replayAll(t *testing.T, dir string) ([]Record, ReplayStats) {
	t.Helper()
	var got []Record
	rs, err := Replay(dir, func(r Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got, rs
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	st := j.Stats()
	if st.Appends != int64(len(recs)) || st.Fsyncs < int64(len(recs)) {
		t.Fatalf("stats = %+v, want %d appends and at least as many fsyncs", st, len(recs))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, rs := replayAll(t, dir)
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("replayed %d records != appended:\n got %+v\nwant %+v", len(got), got, recs)
	}
	if rs.Torn || rs.Records != len(recs) {
		t.Fatalf("replay stats = %+v", rs)
	}
}

func TestReplayMissingDirIsEmpty(t *testing.T) {
	got, rs := replayAll(t, filepath.Join(t.TempDir(), "nope"))
	if len(got) != 0 || rs.Torn {
		t.Fatalf("got %v, %+v", got, rs)
	}
}

// TestPrefixTruncationProperty pins the replay contract: truncating a
// valid journal at ANY byte offset replays a clean prefix of the
// appended records — exactly those whose frames fit entirely inside the
// prefix — without panicking, and loses at most the record spanning the
// cut.
func TestPrefixTruncationProperty(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	// frameEnd[i] = byte offset after record i's frame.
	var frameEnds []int64
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
		frameEnds = append(frameEnds, j.Stats().Bytes)
	}
	j.Close()
	full, err := os.ReadFile(filepath.Join(dir, "00000001.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(full); cut++ {
		tdir := filepath.Join(t.TempDir(), "cut")
		os.MkdirAll(tdir, 0o755)
		if err := os.WriteFile(filepath.Join(tdir, "00000001.wal"), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, end := range frameEnds {
			if end <= int64(cut) {
				want++
			}
		}
		got, rs := replayAll(t, tdir)
		if len(got) != want {
			t.Fatalf("cut at %d: replayed %d records, want %d", cut, len(got), want)
		}
		if want > 0 && !reflect.DeepEqual(got, recs[:want]) {
			t.Fatalf("cut at %d: replayed records are not the appended prefix", cut)
		}
		// A cut is clean only on a frame boundary (or exactly the header):
		// anything else leaves a partial frame behind.
		clean := cut == headerLen
		for _, end := range frameEnds {
			if int64(cut) == end {
				clean = true
			}
		}
		if wantTorn := !clean; rs.Torn != wantTorn {
			t.Fatalf("cut at %d: torn = %v, want %v", cut, rs.Torn, wantTorn)
		}
	}
}

// TestOpenTruncatesTornTail: a torn final record is discarded at Open,
// and appends after the reopen are replayable — the tail never chains
// onto garbage.
func TestOpenTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	for _, r := range recs[:3] {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.TearTail(); err != nil {
		t.Fatal(err)
	}
	j.Close()

	got, rs := replayAll(t, dir)
	if len(got) != 3 || !rs.Torn {
		t.Fatalf("pre-reopen replay: %d records, torn %v", len(got), rs.Torn)
	}

	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if j2.Stats().TruncatedBytes == 0 {
		t.Fatal("Open did not report truncating the torn tail")
	}
	for _, r := range recs[3:] {
		if err := j2.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	j2.Close()
	got, rs = replayAll(t, dir)
	if rs.Torn {
		t.Fatal("replay still torn after reopen truncated the tail")
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("replayed %d records, want all %d appended around the tear", len(got), len(recs))
	}
}

// TestOpenRecoversCorruptHeader: a smashed active-segment header is
// rewritten fresh instead of wedging Open or poisoning replay.
func TestOpenRecoversCorruptHeader(t *testing.T) {
	dir := t.TempDir()
	seg := filepath.Join(dir, "00000001.wal")
	if err := os.WriteFile(seg, []byte("not a journal segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open over corrupt header: %v", err)
	}
	if j.Stats().TruncatedBytes == 0 {
		t.Fatal("corrupt header not counted as truncated bytes")
	}
	if err := j.Append(testRecords()[0]); err != nil {
		t.Fatal(err)
	}
	j.Close()
	got, rs := replayAll(t, dir)
	if len(got) != 1 || rs.Torn {
		t.Fatalf("replay after header recovery: %d records, torn %v", len(got), rs.Torn)
	}
}

func TestRotationSpansSegments(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{SegmentBytes: 128, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for i := 0; i < 32; i++ {
		r := Record{Kind: Accepted, ID: fmt.Sprintf("j%06d", i+1), Client: "c",
			Request: bytes.Repeat([]byte("x"), 40), UnixMilli: int64(i)}
		recs = append(recs, r)
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	st := j.Stats()
	if st.Rotations == 0 || st.Segments < 2 {
		t.Fatalf("expected rotations, stats = %+v", st)
	}
	j.Close()
	got, rs := replayAll(t, dir)
	if rs.Segments != st.Segments {
		t.Fatalf("replayed %d segments, want %d", rs.Segments, st.Segments)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("cross-segment replay lost or reordered records (%d/%d)", len(got), len(recs))
	}
}

func TestCompactReplacesHistory(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{SegmentBytes: 128, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if err := j.Append(Record{Kind: Accepted, ID: fmt.Sprintf("j%06d", i+1),
			Request: bytes.Repeat([]byte("y"), 40)}); err != nil {
			t.Fatal(err)
		}
	}
	// Stash one pre-compaction segment to resurrect below.
	stashed := filepath.Join(dir, "00000001.wal")
	old, err := os.ReadFile(stashed)
	if err != nil {
		t.Fatal(err)
	}

	live := []Record{
		{Kind: Accepted, ID: "j000031", Request: []byte(`{}`)},
		{Kind: Done, ID: "j000031", Output: []byte("table\n")},
	}
	if err := j.Compact(func() []Record { return live }); err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.Compactions != 1 || st.Segments != 1 {
		t.Fatalf("post-compact stats = %+v", st)
	}
	// Appends continue into the base segment and replay after it.
	tail := Record{Kind: Cancelled, ID: "j000032", Error: "x"}
	if err := j.Append(tail); err != nil {
		t.Fatal(err)
	}
	j.Close()
	got, _ := replayAll(t, dir)
	if want := append(append([]Record(nil), live...), tail); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after compact = %+v, want %+v", got, want)
	}

	// A crash between the base rename and the old-segment unlinks leaves
	// dead low-numbered segments behind; replay must ignore them (the
	// base resets history) and Open must clean them up.
	if err := os.WriteFile(stashed, old, 0o644); err != nil {
		t.Fatal(err)
	}
	got, _ = replayAll(t, dir)
	if want := append(append([]Record(nil), live...), tail); !reflect.DeepEqual(got, want) {
		t.Fatalf("resurrected pre-base segment leaked into replay: %d records", len(got))
	}
	j3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j3.Close()
	if _, err := os.Stat(stashed); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("Open left the dead pre-base segment on disk")
	}
}

func TestHooks(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	boom := errors.New("boom")
	var seen []int64
	j.SetHooks(
		func(frame []byte) error {
			if len(seen) >= 2 {
				return boom
			}
			return nil
		},
		func(n int64) { seen = append(seen, n) },
	)
	r := testRecords()[0]
	if err := j.Append(r); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(r); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(r); !errors.Is(err, boom) {
		t.Fatalf("hooked append err = %v, want boom", err)
	}
	if !reflect.DeepEqual(seen, []int64{1, 2}) {
		t.Fatalf("after-append counts = %v", seen)
	}
	st := j.Stats()
	if st.Appends != 2 || st.AppendErrors != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// The failed append left no bytes behind: replay sees two records.
	got, rs := replayAll(t, dir)
	if len(got) != 2 || rs.Torn {
		t.Fatalf("replay after failed append: %d records, torn %v", len(got), rs.Torn)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	j, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if err := j.Append(testRecords()[0]); err == nil {
		t.Fatal("append after close succeeded")
	}
}
