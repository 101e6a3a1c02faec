package journal

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"testing"
	"time"
)

// Group-commit tests. They run with real fsyncs on a temp directory and
// drive the fsync seam: the first group fsync is held at a gate so the
// appenders behind it queue deterministically.

// gatedFsync wraps j's fsync so that the first call signals entered and
// blocks until release is closed, and call k (1-based) returns fail[k]
// instead of syncing when fail names it.
func gatedFsync(j *Journal, fail map[int]error) (entered, release chan struct{}) {
	entered, release = make(chan struct{}), make(chan struct{})
	var mu sync.Mutex
	calls := 0
	real := j.fsync
	j.fsync = func(f *os.File) error {
		mu.Lock()
		calls++
		k := calls
		mu.Unlock()
		if k == 1 {
			close(entered)
			<-release
		}
		if err := fail[k]; err != nil {
			return err
		}
		return real(f)
	}
	return entered, release
}

// groupRecord is the i-th record of a group test; every one frames to
// the same size.
func groupRecord(i int) Record {
	return Record{Kind: Accepted, ID: fmt.Sprintf("j%06d", i), Client: "c", Request: []byte(`{"experiment":"t1"}`)}
}

// appendQueued starts appender 0, waits until it leads the gated first
// fsync, then starts appenders 1..n-1 and waits until their frames are
// written — so they all wait for the second fsync. It returns each
// appender's result channel.
func appendQueued(t *testing.T, j *Journal, n int, entered chan struct{}) []chan error {
	t.Helper()
	errs := make([]chan error, n)
	start := func(i int) {
		errs[i] = make(chan error, 1)
		go func() { errs[i] <- j.Append(groupRecord(i)) }()
	}
	base := j.Stats().Bytes
	frame := int64(len(appendFrame(nil, groupRecord(0))))
	start(0)
	<-entered
	for i := 1; i < n; i++ {
		start(i)
	}
	// Bytes counts frames as they are written, before their fsync.
	deadline := time.Now().Add(10 * time.Second)
	for j.Stats().Bytes != base+int64(n)*frame {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d bytes written", j.Stats().Bytes-base, int64(n)*frame)
		}
		time.Sleep(time.Millisecond)
	}
	return errs
}

// diskBytes sums the sizes of dir's segment files.
func diskBytes(t *testing.T, dir string) int64 {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, s := range segs {
		n += s.size
	}
	return n
}

func TestGroupCommitSharesOneFsync(t *testing.T) {
	const n = 8
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var seen []int64
	j.SetHooks(nil, func(k int64) {
		mu.Lock()
		seen = append(seen, k)
		mu.Unlock()
	})
	entered, release := gatedFsync(j, nil)
	fsyncs0 := j.Stats().Fsyncs

	errs := appendQueued(t, j, n, entered)
	close(release)
	for i, ch := range errs {
		if err := <-ch; err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	st := j.Stats()
	if got := st.Fsyncs - fsyncs0; got != 2 {
		t.Fatalf("%d appends issued %d fsyncs, want 2 (one held, one for the queued group)", n, got)
	}
	if st.Appends != n || st.AppendErrors != 0 {
		t.Fatalf("stats = %+v, want %d appends", st, n)
	}
	sort.Slice(seen, func(a, b int) bool { return seen[a] < seen[b] })
	for i, k := range seen {
		if k != int64(i+1) || len(seen) != n {
			t.Fatalf("after hook saw %v, want 1..%d once each", seen, n)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, rs := replayAll(t, dir)
	if len(got) != n || rs.Torn {
		t.Fatalf("replayed %d records (torn %v), want %d", len(got), rs.Torn, n)
	}
}

// TestGroupFsyncFailureFailsItsGroup: the second fsync, covering every
// appender queued behind the first, fails — exactly those appends fail,
// the journal's size stays in step with the file, and the acknowledged
// records replay.
func TestGroupFsyncFailureFailsItsGroup(t *testing.T) {
	const n = 6
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected fsync failure")
	entered, release := gatedFsync(j, map[int]error{2: boom})
	errs := appendQueued(t, j, n, entered)
	close(release)
	if err := <-errs[0]; err != nil {
		t.Fatalf("append 0 (first group): %v", err)
	}
	for i := 1; i < n; i++ {
		if err := <-errs[i]; !errors.Is(err, boom) {
			t.Fatalf("append %d (failed group) = %v, want the fsync error", i, err)
		}
	}
	// The journal carries on after the failure.
	last := groupRecord(n)
	if err := j.Append(last); err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.Appends != 2 || st.AppendErrors != n-1 {
		t.Fatalf("stats = %+v, want 2 appends and %d errors", st, n-1)
	}
	if disk := diskBytes(t, dir); st.Bytes != disk {
		t.Fatalf("Stats().Bytes = %d, want the %d bytes on disk", st.Bytes, disk)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := replayAll(t, dir)
	ids := map[string]bool{}
	for _, r := range got {
		ids[r.ID] = true
	}
	for _, id := range []string{groupRecord(0).ID, last.ID} {
		if !ids[id] {
			t.Fatalf("acknowledged record %s missing from replay of %d records", id, len(got))
		}
	}
}

// TestGroupCommitWithRotationCompactClose: concurrent appenders over
// 128-byte segments, with compactions and a Close racing them, never
// lose an acknowledged record. The compaction snapshot is every record
// an appender has announced, the way the service announces a state
// change before journaling it.
func TestGroupCommitWithRotationCompactClose(t *testing.T) {
	const writers, each = 6, 20
	dir := t.TempDir()
	j, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var announced []Record
	acked := map[string]bool{}
	snapshot := func() []Record {
		mu.Lock()
		defer mu.Unlock()
		return append([]Record(nil), announced...)
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r := groupRecord(w*each + i)
				mu.Lock()
				announced = append(announced, r)
				mu.Unlock()
				if err := j.Append(r); err != nil {
					if !errors.Is(err, errClosed) {
						t.Errorf("append %s: %v", r.ID, err)
					}
					return
				}
				mu.Lock()
				acked[r.ID] = true
				mu.Unlock()
			}
		}()
	}
	compacted := make(chan struct{})
	go func() {
		defer close(compacted)
		for {
			err := j.Compact(snapshot)
			if errors.Is(err, errClosed) {
				return
			}
			if err != nil {
				t.Errorf("compact: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	// Close mid-stream, once some appends are acknowledged.
	for {
		mu.Lock()
		n := len(acked)
		mu.Unlock()
		if n >= writers*each/2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	<-compacted

	got, rs := replayAll(t, dir)
	if rs.Torn {
		t.Fatalf("replay torn: %+v", rs)
	}
	replayed := map[string]bool{}
	for _, r := range got {
		replayed[r.ID] = true
	}
	for id := range acked {
		if !replayed[id] {
			t.Errorf("acknowledged record %s lost (%d acknowledged, %d replayed)", id, len(acked), len(got))
		}
	}
}

// TestCloseSyncsQueuedGroup: Close waits out the in-flight fsync and
// syncs the group queued behind it, so every appender it overlaps
// returns nil and its record replays.
func TestCloseSyncsQueuedGroup(t *testing.T) {
	const n = 4
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	entered, release := gatedFsync(j, nil)
	errs := appendQueued(t, j, n, entered)
	closed := make(chan error, 1)
	go func() { closed <- j.Close() }()
	close(release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	for i, ch := range errs {
		if err := <-ch; err != nil {
			t.Fatalf("append %d overlapping Close: %v", i, err)
		}
	}
	if got, _ := replayAll(t, dir); len(got) != n {
		t.Fatalf("replayed %d records, want %d", len(got), n)
	}
}

// TestCompactWaitsForInflightFsync: Compact must not take its snapshot
// or close the active segment while a group fsync is running on it; once
// that fsync ends, the base covers the appends queued behind it, so they
// all return nil.
func TestCompactWaitsForInflightFsync(t *testing.T) {
	const n = 3
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	entered, release := gatedFsync(j, nil)
	errs := appendQueued(t, j, n, entered)
	var live []Record
	for i := 0; i < n; i++ {
		live = append(live, groupRecord(i))
	}
	compacted := make(chan error, 1)
	go func() { compacted <- j.Compact(func() []Record { return live }) }()
	// Compact cannot finish while the first fsync is held; give a broken
	// one the time to do so.
	select {
	case err := <-compacted:
		t.Fatalf("Compact returned (%v) while an fsync was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-compacted; err != nil {
		t.Fatal(err)
	}
	for i, ch := range errs {
		if err := <-ch; err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := replayAll(t, dir); len(got) != n {
		t.Fatalf("replayed %d records, want the %d of the base", len(got), n)
	}
}
