// Prometheus-style text metrics, hand-rolled: the exposition format is
// a few dozen lines of text and pulling in a client library for it
// would be the daemon's only dependency.
package service

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"

	"repro/internal/cluster"
	"repro/internal/journal"
)

// durationBuckets are the job-latency histogram bounds in seconds.
// Renders span microseconds (cache hits) to minutes (paper scale), so
// the buckets are roughly logarithmic across that range.
var durationBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 2.5, 10, 30, 120}

// histogram is a fixed-bucket cumulative histogram.
type histogram struct {
	counts []uint64 // one per bucket, plus the +Inf overflow
	sum    float64
	total  uint64
}

func (h *histogram) observe(v float64) {
	if h.counts == nil {
		h.counts = make([]uint64, len(durationBuckets)+1)
	}
	i := sort.SearchFloat64s(durationBuckets, v)
	h.counts[i]++
	h.sum += v
	h.total++
}

// metrics is the daemon's counter registry. Every mutation and every
// scrape snapshot runs under one mutex, so a scrape observes a
// consistent cut — the race-freedom the -race load test pins.
type metrics struct {
	mu        sync.Mutex
	requests  map[string]map[int]uint64 // route pattern -> status code -> count
	jobs      map[string]uint64         // event -> count
	running   int
	durations map[string]*histogram // experiment id -> job latency

	recovered     uint64 // jobs re-enqueued from the journal at boot
	replayed      uint64 // journal records replayed at boot
	watchdogKills uint64 // renders abandoned after ignoring cancellation
	panicked      uint64 // renders that panicked and failed their job
}

func newMetrics() *metrics {
	return &metrics{
		requests:  map[string]map[int]uint64{},
		jobs:      map[string]uint64{},
		durations: map[string]*histogram{},
	}
}

func (m *metrics) request(route string, code int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	byCode := m.requests[route]
	if byCode == nil {
		byCode = map[int]uint64{}
		m.requests[route] = byCode
	}
	byCode[code]++
}

func (m *metrics) jobEvent(event string) {
	m.mu.Lock()
	m.jobs[event]++
	m.mu.Unlock()
}

func (m *metrics) runningDelta(d int) {
	m.mu.Lock()
	m.running += d
	m.mu.Unlock()
}

func (m *metrics) recoveredJobs(n int) {
	m.mu.Lock()
	m.recovered += uint64(n)
	m.mu.Unlock()
}

func (m *metrics) replayedRecords(n int) {
	m.mu.Lock()
	m.replayed += uint64(n)
	m.mu.Unlock()
}

func (m *metrics) watchdogKill() {
	m.mu.Lock()
	m.watchdogKills++
	m.mu.Unlock()
}

func (m *metrics) jobPanicked() {
	m.mu.Lock()
	m.panicked++
	m.mu.Unlock()
}

func (m *metrics) observe(experiment string, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.durations[experiment]
	if h == nil {
		h = &histogram{}
		m.durations[experiment] = h
	}
	h.observe(seconds)
}

// journalScrape is the journal's scrape-time snapshot, sampled by the
// metrics handler: whether a journal is configured, whether the write
// breaker has degraded the daemon to memory-only, and the journal's own
// counters (taken under its mutex).
type journalScrape struct {
	configured bool
	degraded   bool
	stats      journal.Stats
}

// render writes one scrape in Prometheus text exposition format. The
// queue depth, image-cache, and journal counters are sampled by the
// caller at scrape time (the scheduler, cluster.ImageCache, and journal
// each snapshot their state under their own mutex), so every gauge in
// one scrape is a consistent read of its owner's state.
func (m *metrics) render(w io.Writer, queueDepth int, img cluster.CacheStats, jl journalScrape) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintln(w, "# HELP abacusd_requests_total HTTP requests served, by route and status code.")
	fmt.Fprintln(w, "# TYPE abacusd_requests_total counter")
	for _, route := range sortedKeys(m.requests) {
		byCode := m.requests[route]
		codes := make([]int, 0, len(byCode))
		for c := range byCode {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			fmt.Fprintf(w, "abacusd_requests_total{route=%q,code=\"%d\"} %d\n", route, c, byCode[c])
		}
	}

	fmt.Fprintln(w, "# HELP abacusd_jobs_total Job lifecycle events (accepted, deduped, shed, rejected, dispatched, done, failed, cancelled).")
	fmt.Fprintln(w, "# TYPE abacusd_jobs_total counter")
	for _, ev := range sortedKeys(m.jobs) {
		fmt.Fprintf(w, "abacusd_jobs_total{event=%q} %d\n", ev, m.jobs[ev])
	}

	fmt.Fprintln(w, "# HELP abacusd_queue_depth Jobs admitted but not yet dispatched.")
	fmt.Fprintln(w, "# TYPE abacusd_queue_depth gauge")
	fmt.Fprintf(w, "abacusd_queue_depth %d\n", queueDepth)

	fmt.Fprintln(w, "# HELP abacusd_jobs_running Jobs currently executing.")
	fmt.Fprintln(w, "# TYPE abacusd_jobs_running gauge")
	fmt.Fprintf(w, "abacusd_jobs_running %d\n", m.running)

	fmt.Fprintln(w, "# HELP abacusd_job_duration_seconds Wall-clock latency of completed jobs, by experiment.")
	fmt.Fprintln(w, "# TYPE abacusd_job_duration_seconds histogram")
	for _, exp := range sortedKeys(m.durations) {
		h := m.durations[exp]
		var cum uint64
		for i, le := range durationBuckets {
			cum += h.counts[i]
			fmt.Fprintf(w, "abacusd_job_duration_seconds_bucket{experiment=%q,le=%q} %d\n",
				exp, formatFloat(le), cum)
		}
		cum += h.counts[len(durationBuckets)]
		fmt.Fprintf(w, "abacusd_job_duration_seconds_bucket{experiment=%q,le=\"+Inf\"} %d\n", exp, cum)
		fmt.Fprintf(w, "abacusd_job_duration_seconds_sum{experiment=%q} %s\n", exp, formatFloat(h.sum))
		fmt.Fprintf(w, "abacusd_job_duration_seconds_count{experiment=%q} %d\n", exp, h.total)
	}

	boolGauge := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	for _, g := range []struct {
		name, help, typ string
		v               int64
	}{
		{"abacusd_jobs_recovered_total", "Jobs re-enqueued from the journal at boot.", "counter", int64(m.recovered)},
		{"abacusd_jobs_panicked_total", "Renders that panicked; each failed only its own job.", "counter", int64(m.panicked)},
		{"abacusd_watchdog_kills_total", "Renders abandoned by the stuck-job watchdog.", "counter", int64(m.watchdogKills)},
		{"abacusd_journal_enabled", "1 when a durable job journal is configured.", "gauge", boolGauge(jl.configured)},
		{"abacusd_journal_degraded", "1 when journal writes tripped the breaker and the daemon runs memory-only.", "gauge", boolGauge(jl.degraded)},
		{"abacusd_journal_appends_total", "Journal records durably appended.", "counter", jl.stats.Appends},
		{"abacusd_journal_append_errors_total", "Journal append failures.", "counter", jl.stats.AppendErrors},
		{"abacusd_journal_fsyncs_total", "Journal fsyncs issued.", "counter", jl.stats.Fsyncs},
		{"abacusd_journal_rotations_total", "Journal segment rotations.", "counter", jl.stats.Rotations},
		{"abacusd_journal_compactions_total", "Journal compactions into a base segment.", "counter", jl.stats.Compactions},
		{"abacusd_journal_replayed_records_total", "Journal records replayed at boot.", "counter", int64(m.replayed)},
		{"abacusd_journal_truncated_bytes_total", "Torn or corrupt journal bytes discarded at open.", "counter", jl.stats.TruncatedBytes},
		{"abacusd_journal_segments", "Journal segment files on disk.", "gauge", int64(jl.stats.Segments)},
		{"abacusd_journal_bytes", "Journal bytes on disk.", "gauge", jl.stats.Bytes},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n", g.name, g.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", g.name, g.typ)
		fmt.Fprintf(w, "%s %d\n", g.name, g.v)
	}

	// Image cache counters: one CacheStats copy per scrape.
	for _, c := range []struct {
		name, help string
		v          int64
	}{
		{"abacusd_image_cache_hits_total", "Device-image memory cache hits.", img.ImageHits},
		{"abacusd_image_cache_misses_total", "Device-image memory cache misses (builds).", img.ImageMisses},
		{"abacusd_image_cache_evictions_total", "Device images evicted from the memory cache.", img.ImageEvictions},
		{"abacusd_image_probe_hits_total", "Probe-plan cache hits.", img.ProbeHits},
		{"abacusd_image_probe_misses_total", "Probe-plan cache misses.", img.ProbeMisses},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n", c.name, c.help)
		fmt.Fprintf(w, "# TYPE %s counter\n", c.name)
		fmt.Fprintf(w, "%s %d\n", c.name, c.v)
	}
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
