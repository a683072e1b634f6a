package server

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

func (s Status) terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// errClientGone cancels a job whose last waiting client disconnected.
var errClientGone = errors.New("all waiting clients disconnected")

// errJobEnded releases a job's context once it is terminal.
var errJobEnded = errors.New("job ended")

// Event is one line of a job's NDJSON progress stream.
type Event struct {
	Type           string  `json:"type"` // queued running single mix retry done failed canceled
	JobID          string  `json:"job_id"`
	Mix            string  `json:"mix,omitempty"` // benchmark name for "single" events
	Completed      int     `json:"completed,omitempty"`
	Total          int     `json:"total,omitempty"`
	FairThroughput float64 `json:"fair_throughput,omitempty"`
	Error          string  `json:"error,omitempty"`
	// Telemetry carries the finished mix's stall/occupancy digest on
	// "mix" events (sweeps run with telemetry enabled).
	Telemetry *telemetry.Summary `json:"telemetry,omitempty"`
}

// Job is one queued or running simulation sweep.
type Job struct {
	ID   string
	Key  string // content address of the result
	Spec RunSpec

	scheme experiments.SchemeSpec
	mixes  []workload.Mix

	//tlrob:allow(a queued Job carries its request context like http.Request; cancellation is wired to waiter disconnects)
	ctx    context.Context
	cancel context.CancelCauseFunc
	done   chan struct{}

	mu         sync.Mutex
	status     Status
	result     []byte
	errMsg     string
	events     []Event
	subs       map[chan Event]bool
	waiters    int
	detached   bool
	createdAt  time.Time
	startedAt  time.Time
	finishedAt time.Time
}

// Done is closed when the job reaches a terminal status.
func (j *Job) Done() <-chan struct{} { return j.done }

// Snapshot is the wire form of a job's state.
type Snapshot struct {
	ID        string          `json:"id"`
	Status    Status          `json:"status"`
	Spec      RunSpec         `json:"spec"`
	Error     string          `json:"error,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
	CreatedAt time.Time       `json:"created_at"`
	StartedAt *time.Time      `json:"started_at,omitempty"`
	EndedAt   *time.Time      `json:"ended_at,omitempty"`
}

// Snapshot returns the job's current state.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	snap := Snapshot{
		ID:        j.ID,
		Status:    j.status,
		Spec:      j.Spec,
		Error:     j.errMsg,
		Result:    j.result,
		CreatedAt: j.createdAt,
	}
	if !j.startedAt.IsZero() {
		t := j.startedAt
		snap.StartedAt = &t
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		snap.EndedAt = &t
	}
	return snap
}

// Status returns the job's current status.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Result returns the result payload of a done job.
func (j *Job) Result() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.status == StatusDone
}

func (j *Job) setStarted() {
	j.mu.Lock()
	j.status = StatusRunning
	j.startedAt = time.Now()
	j.mu.Unlock()
}

// finish moves the job to a terminal status, records the outcome, emits
// the terminal event and closes every subscriber channel.
func (j *Job) finish(st Status, result []byte, errMsg string) {
	ev := Event{Type: string(st), Error: errMsg}
	j.mu.Lock()
	if j.status.terminal() {
		j.mu.Unlock()
		return
	}
	j.status = st
	j.result = result
	j.errMsg = errMsg
	j.finishedAt = time.Now()
	j.appendAndBroadcastLocked(ev)
	for ch := range j.subs {
		close(ch)
	}
	j.subs = nil
	j.mu.Unlock()
	close(j.done)
}

// emit appends a progress event and fans it out to subscribers. A
// subscriber that cannot keep up skips events (its stream remains
// ordered, and the terminal event always arrives via channel close).
func (j *Job) emit(ev Event) {
	j.mu.Lock()
	if !j.status.terminal() {
		j.appendAndBroadcastLocked(ev)
	}
	j.mu.Unlock()
}

func (j *Job) appendAndBroadcastLocked(ev Event) {
	ev.JobID = j.ID
	j.events = append(j.events, ev)
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// Subscribe returns a channel replaying the job's past events and then
// streaming live ones; it is closed after the terminal event. The
// returned cancel func detaches the subscription.
func (j *Job) Subscribe() (<-chan Event, func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	ch := make(chan Event, 64+len(j.events))
	for _, ev := range j.events {
		// Capacity covers the full replay, so the default arm is
		// unreachable; it makes the never-blocks-under-j.mu property
		// explicit instead of an arithmetic fact a reader must rederive.
		select {
		case ch <- ev:
		default:
		}
	}
	if j.status.terminal() {
		close(ch)
		return ch, func() {}
	}
	j.subs[ch] = true
	return ch, func() {
		j.mu.Lock()
		if j.subs != nil {
			delete(j.subs, ch)
		}
		j.mu.Unlock()
	}
}

// addWaiter registers one more waiting client (a coalesced wait=1
// submission).
func (j *Job) addWaiter() {
	j.mu.Lock()
	j.waiters++
	j.mu.Unlock()
}

// detach marks the job as fire-and-forget: it keeps running even after
// every waiting client disconnects.
func (j *Job) detach() {
	j.mu.Lock()
	j.detached = true
	j.mu.Unlock()
}

// Release drops one waiting client. When the last waiter of a
// non-detached job leaves before completion, the job is cancelled — an
// abandoned request must stop burning cores.
func (j *Job) Release() {
	j.mu.Lock()
	j.waiters--
	cancel := j.waiters <= 0 && !j.detached && !j.status.terminal()
	j.mu.Unlock()
	if cancel {
		j.cancel(errClientGone)
	}
}
