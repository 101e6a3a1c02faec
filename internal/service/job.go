// Job requests, validation, and the per-job state machine.
package service

import (
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
)

// JobRequest is the submit body: which experiment to render and the
// knobs the CLI exposes as flags. The zero value of every optional
// field selects the CLI's default, so {"experiment":"fig10a"} is a
// complete request.
type JobRequest struct {
	// Experiment is an experiment id (see /v1/experiments) or "all".
	// Empty selects "all".
	Experiment string `json:"experiment,omitempty"`
	// Scale divides the paper's Table 2 input sizes (1 = paper scale).
	// 0 selects the CLI default of 16.
	Scale int64 `json:"scale,omitempty"`
	// Devices caps the cluster scaling experiment's card sweep; at the
	// default 1 the cluster experiment is left out of "all".
	Devices int `json:"devices,omitempty"`
	// Topology opts the heterogeneous-topology sweep into "all".
	Topology bool `json:"topology,omitempty"`
	// FaultPlan opts the fault-injection study into "all": a preset name
	// (cardloss, flap, wear) or an inline fault-plan text (the same
	// line-based grammar the CLI loads from a file).
	FaultPlan string `json:"fault_plan,omitempty"`
	// FaultName labels an inline FaultPlan's rows (presets are labelled
	// by their own name). Defaults to "custom".
	FaultName string `json:"fault_name,omitempty"`
	// TimeoutMS bounds the job's execution (dispatch to completion) in
	// milliseconds; the context deadline propagates through every
	// simulation leaf. 0 selects the server default; values above the
	// server maximum are clamped.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Client identifies the submitter for per-client fairness. Empty
	// falls back to the X-Abacus-Client header, then to the remote host.
	Client string `json:"client,omitempty"`
	// DedupeKey makes the submit idempotent: a resubmit naming the same
	// key returns the already-accepted job (200) instead of running the
	// work twice. Keys are journaled with the job, so idempotency
	// survives a daemon crash: a client that lost the response to an
	// accepted submit can safely resend after the restart.
	DedupeKey string `json:"dedupe_key,omitempty"`
}

// maxRequestBytes bounds a submit body; inline fault plans are a few
// hundred bytes, so a megabyte is generous.
const maxRequestBytes = 1 << 20

// maxScale bounds the scale knob: divisors past 2^20 all floor the
// inputs to their minimum sizes anyway.
const maxScale = 1 << 20

// nameRE constrains client ids and fault names: they appear in rendered
// rows, metric labels, and log lines, so keep them printable and short.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9._:-]{1,64}$`)

// dedupeRE constrains dedupe keys; clients typically use UUIDs or
// hashes, so allow more length than display names get.
var dedupeRE = regexp.MustCompile(`^[A-Za-z0-9._:-]{1,128}$`)

// DecodeJobRequest reads and strictly decodes one JSON job request:
// unknown fields, trailing garbage, and oversized bodies are errors, so
// a typo'd knob is a 400 instead of a silently ignored field.
func DecodeJobRequest(r io.Reader) (*JobRequest, error) {
	dec := json.NewDecoder(io.LimitReader(r, maxRequestBytes))
	dec.DisallowUnknownFields()
	var req JobRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("decode job request: %w", err)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		return nil, fmt.Errorf("decode job request: trailing data after JSON object")
	}
	return &req, nil
}

// Normalize validates req in place, filling defaults (experiment "all",
// scale 16, devices 1) and resolving the fault plan. It returns the
// parsed plan (nil when no fault study was requested) or an error
// describing the first invalid field.
func (req *JobRequest) Normalize() (*faults.Plan, error) {
	if req.Experiment == "" {
		req.Experiment = "all"
	}
	if _, err := experiments.Select(req.Experiment, 1, false, false); err != nil {
		return nil, err
	}
	if req.Scale == 0 {
		req.Scale = 16
	}
	if req.Scale < 1 || req.Scale > maxScale {
		return nil, fmt.Errorf("scale %d outside [1,%d]", req.Scale, maxScale)
	}
	if req.Devices == 0 {
		req.Devices = 1
	}
	if req.Devices < 1 || req.Devices > core.MaxDevices {
		return nil, fmt.Errorf("devices %d outside [1,%d]", req.Devices, core.MaxDevices)
	}
	if req.TimeoutMS < 0 {
		return nil, fmt.Errorf("timeout_ms %d is negative", req.TimeoutMS)
	}
	if req.Client != "" && !nameRE.MatchString(req.Client) {
		return nil, fmt.Errorf("client %q must match %s", req.Client, nameRE)
	}
	if req.DedupeKey != "" && !dedupeRE.MatchString(req.DedupeKey) {
		return nil, fmt.Errorf("dedupe_key %q must match %s", req.DedupeKey, dedupeRE)
	}
	if req.FaultName != "" && !nameRE.MatchString(req.FaultName) {
		return nil, fmt.Errorf("fault_name %q must match %s", req.FaultName, nameRE)
	}
	if req.FaultPlan == "" {
		if req.FaultName != "" {
			return nil, fmt.Errorf("fault_name without fault_plan")
		}
		return nil, nil
	}
	plan, name, err := resolveFaultPlan(req.FaultPlan)
	if err != nil {
		return nil, err
	}
	if req.FaultName == "" {
		req.FaultName = name
	}
	return plan, nil
}

// resolveFaultPlan turns the fault_plan field into a plan: a preset
// name resolves to its built-in plan (and labels the rows after
// itself), anything else parses as inline plan text labelled "custom"
// unless the request names it.
func resolveFaultPlan(arg string) (*faults.Plan, string, error) {
	if !strings.ContainsAny(arg, "\n ") {
		if p, err := faults.Preset(arg); err == nil {
			return p, arg, nil
		}
	}
	p, err := faults.Parse([]byte(arg))
	if err != nil {
		return nil, "", fmt.Errorf("fault_plan: not a preset (%s) and %v",
			strings.Join(faults.PresetNames, ", "), err)
	}
	return p, "custom", nil
}

// JobState is the lifecycle of a submitted job.
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// terminal reports whether the state is final.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobStatus is the wire representation of a job's current state.
type JobStatus struct {
	ID         string   `json:"id"`
	Client     string   `json:"client"`
	Experiment string   `json:"experiment"`
	Scale      int64    `json:"scale"`
	Devices    int      `json:"devices"`
	State      JobState `json:"state"`
	// Seq is the dispatch sequence number (1-based, assigned when a
	// worker picks the job up); 0 means the job never ran. The fairness
	// tests read it, and it gives operators a total dispatch order.
	Seq int64 `json:"seq,omitempty"`
	// Bytes counts result bytes produced so far; it grows while the job
	// streams and is final once the state is terminal.
	Bytes int    `json:"bytes"`
	Error string `json:"error,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

// job is the server-side state of one submitted job. Every mutable
// field is guarded by mu; cond broadcasts on output growth and state
// changes, which is what the streaming and long-poll handlers wait on.
type job struct {
	id        string
	client    string
	req       JobRequest
	reqJSON   []byte       // req as its accept record carries it, encoded once
	plan      *faults.Plan // resolved fault plan (nil: none)
	timeout   time.Duration
	submitted time.Time
	// journaled is closed once the job's accept append has returned (at
	// once for a job restored from the journal); a dedupe hit waits on it.
	journaled chan struct{}

	mu        sync.Mutex
	cond      *sync.Cond
	state     JobState
	seq       int64
	out       []byte
	errMsg    string
	started   time.Time
	finished  time.Time
	cancelled bool          // cancel requested (before or during run)
	cancelRun func()        // cancels the running render's context
	done      chan struct{} // closed when the state turns terminal
}

func newJob(id string, req JobRequest, reqJSON []byte, plan *faults.Plan, timeout time.Duration, now time.Time) *job {
	j := &job{
		id: id, client: req.Client, req: req, reqJSON: reqJSON, plan: plan,
		timeout: timeout, submitted: now, journaled: make(chan struct{}),
		state: StateQueued, done: make(chan struct{}),
	}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// Write appends rendered output; the job is handed to Suite.Render as
// its io.Writer, so bytes become visible to streaming readers exactly
// as the render produces them. Once the job is terminal its output is
// frozen, which is what lets its journal records alias j.out.
func (j *job) Write(p []byte) (int, error) {
	j.mu.Lock()
	if j.state.terminal() {
		// A watchdog-abandoned render keeps producing bytes after the job
		// was failed; drop them so a terminal byte count — and with it the
		// stream handler's "last chunk" detection — stays final.
		j.mu.Unlock()
		return len(p), nil
	}
	j.out = append(j.out, p...)
	j.cond.Broadcast()
	j.mu.Unlock()
	return len(p), nil
}

// status snapshots the job for the wire.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.id, Client: j.client,
		Experiment: j.req.Experiment, Scale: j.req.Scale, Devices: j.req.Devices,
		State: j.state, Seq: j.seq, Bytes: len(j.out), Error: j.errMsg,
		SubmittedAt: j.submitted,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st
}

// finalize moves the job to a terminal state exactly once; later calls
// are no-ops (a cancel can race completion).
func (j *job) finalize(state JobState, errMsg string, now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return false
	}
	j.state = state
	j.errMsg = errMsg
	j.finished = now
	close(j.done)
	j.cond.Broadcast()
	return true
}
