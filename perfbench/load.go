package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"nfvxai/internal/nfv/telemetry"
)

// result is one request's outcome; times are offsets from the phase
// start.
type result struct {
	op   *op
	sent time.Duration
	done time.Duration
	reply
	err error
	bad bool // failed a check
}

func (r *result) latency() time.Duration { return r.done - r.sent }

func (r *result) ok() bool { return r.err == nil && r.status == http.StatusOK }

func (r *result) send(c *http.Client, base string, start time.Time) {
	r.sent = time.Since(start)
	r.reply, r.err = post(c, base+r.op.path(), r.op.body)
	r.done = time.Since(start)
}

// runClosed runs n closed-loop clients over the requests s deals until
// dur has passed since start or s runs out. Each client sends its next
// request as soon as its last reply arrives. It returns the results in
// send order and the time the last reply arrived.
func runClosed(c *http.Client, base string, s *stream, n int, start time.Time, dur time.Duration) ([]result, time.Duration) {
	per := make([][]result, n)
	var wg sync.WaitGroup
	for k := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				o := s.next()
				if o == nil {
					return
				}
				r := result{op: o}
				r.send(c, base, start)
				per[k] = append(per[k], r)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var res []result
	for _, rs := range per {
		res = append(res, rs...)
	}
	sort.Slice(res, func(i, j int) bool { return res[i].sent < res[j].sent })
	return res, elapsed
}

// sendAll sends ops over n connections, untimed by any schedule.
func sendAll(c *http.Client, base string, ops []*op, n int) []result {
	res, _ := runClosed(c, base, listStream(ops), n, time.Now(), math.MaxInt64)
	return res
}

// ─── retraining through an ingest-only feed ─────────────────────────────

// feedName is the benchmark's ingest-only feed.
const feedName = "perfbench"

// retrainName names the model the retrains run on: trained like the
// served model it copies but on another seed, so its artifact digest,
// and with it every cache entry a swap drops, is its own.
const (
	retrainName = "perfbench-retrain"
	retrainSeed = explaindSeed + 1
)

// maxIngest is the most records one ingest request carries (the
// server's limit is 512).
const maxIngest = 512

// retrainer drives manual retrains of one model: ingest a block of
// records into the feed, wait until the model's monitor has consumed
// them, submit a retrain job and poll until the swapped model serves.
type retrainer struct {
	c    *http.Client
	base string
	// like is the served model the retrained one copies; model is
	// retrainName.
	like, model string
	// bodies[k] are the ingest request bodies of block k: block 0
	// prefills the window, block k ≥ 1 precedes retrain k.
	bodies [][][]byte
	sent   int // records ingested so far
	swaps  int // retrains observed so far
}

func newRetrainer(c *http.Client, base, model string, recs []telemetry.Record) (*retrainer, error) {
	r := &retrainer{c: c, base: base, like: model, model: retrainName}
	blocks := [][]telemetry.Record{recs[:windowRows]}
	for i := windowRows; i+blockRecords <= len(recs); i += blockRecords {
		blocks = append(blocks, recs[i:i+blockRecords])
	}
	for _, b := range blocks {
		var bodies [][]byte
		for i := 0; i < len(b); i += maxIngest {
			body, err := json.Marshal(map[string]any{"records": b[i:min(i+maxIngest, len(b))]})
			if err != nil {
				return nil, err
			}
			bodies = append(bodies, body)
		}
		r.bodies = append(r.bodies, bodies)
	}
	return r, nil
}

// create trains the retrained model and waits until it serves.
func (r *retrainer) create() error {
	parts := strings.Split(r.like, "/") // scenario/model/target
	req := map[string]any{"name": r.model, "scenario": parts[0], "model": parts[1], "target": parts[2],
		"hours": 1, "seed": retrainSeed}
	if err := postJSON(r.c, r.base+"/v1/models", req, nil); err != nil {
		return err
	}
	deadline := time.Now().Add(readyTimeout)
	for {
		var mi struct {
			Status string `json:"status"`
		}
		if _, err := getJSON(r.c, r.base+"/v1/models/"+r.model, &mi); err != nil {
			return err
		}
		switch {
		case mi.Status == "ready":
			return nil
		case mi.Status == "failed":
			return fmt.Errorf("training %s failed", r.model)
		case time.Now().After(deadline):
			return fmt.Errorf("%s not ready after %v", r.model, readyTimeout)
		}
		time.Sleep(jobPoll)
	}
}

// attach creates the feed, attaches the model without automatic
// retraining, and ingests the prefill block.
func (r *retrainer) attach() error {
	feed := map[string]any{"name": feedName, "scenario": "web", "simulate": false,
		// Deep enough for a whole block: a full buffer drops records,
		// which would make the retrain window nondeterministic.
		"buffer": 4096}
	if err := postJSON(r.c, r.base+"/v1/feeds", feed, nil); err != nil {
		return err
	}
	att := map[string]any{"model": r.model, "max_rows": windowRows, "auto_retrain": false}
	if err := postJSON(r.c, r.base+"/v1/feeds/"+feedName+"/attach", att, nil); err != nil {
		return err
	}
	return r.ingest(0)
}

func (r *retrainer) ingest(k int) error {
	for _, body := range r.bodies[k] {
		var ir struct {
			Accepted int `json:"accepted"`
		}
		rep, err := post(r.c, r.base+"/v1/feeds/"+feedName+"/records", body)
		if err == nil && rep.status != http.StatusOK {
			err = fmt.Errorf("ingest: %d %s", rep.status, rep.body)
		}
		if err == nil {
			err = json.Unmarshal(rep.body, &ir)
		}
		if err != nil {
			return err
		}
		r.sent += ir.Accepted
	}
	// Retrain only once the monitor has consumed every record, so the
	// window is exactly the records sent.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var fi struct {
			Stats struct {
				Dropped uint64 `json:"dropped"`
			} `json:"stats"`
			Attachments []struct {
				Records int `json:"records"`
			} `json:"attachments"`
		}
		if _, err := getJSON(r.c, r.base+"/v1/feeds/"+feedName, &fi); err != nil {
			return err
		}
		if fi.Stats.Dropped > 0 {
			return fmt.Errorf("feed dropped %d records", fi.Stats.Dropped)
		}
		if len(fi.Attachments) == 1 && fi.Attachments[0].Records == r.sent {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("monitor consumed too slowly: %+v of %d", fi.Attachments, r.sent)
		}
		time.Sleep(time.Millisecond)
	}
}

// jobPoll is how often a retrain job's status is polled. Polling much
// faster puts hundreds of requests a second beside the fit on a 2-core
// machine and makes its time depend on how they interleave.
const jobPoll = 5 * time.Millisecond

// retrain runs cycle k: ingest block k, then retrain and wait until the
// swapped model serves. It returns the time from submitting the job
// until the swapped model served.
func (r *retrainer) retrain(k int) (time.Duration, error) {
	if err := r.ingest(k); err != nil {
		return 0, err
	}
	submit := time.Now()
	var job struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		Error  string `json:"error"`
	}
	req := map[string]any{"kind": "retrain", "params": map[string]string{"feed": feedName}}
	if err := postJSON(r.c, r.base+"/v1/models/"+r.model+"/jobs", req, &job); err != nil {
		return 0, err
	}
	for job.Status != "done" {
		if job.Status == "failed" || job.Status == "cancelled" {
			return 0, fmt.Errorf("retrain job %s %s: %s", job.ID, job.Status, job.Error)
		}
		time.Sleep(jobPoll)
		if _, err := getJSON(r.c, r.base+"/v1/jobs/"+job.ID, &job); err != nil {
			return 0, err
		}
	}
	var mi struct {
		Status   string `json:"status"`
		Retrains int    `json:"retrains"`
	}
	if _, err := getJSON(r.c, r.base+"/v1/models/"+r.model, &mi); err != nil {
		return 0, err
	}
	if mi.Status != "ready" || mi.Retrains != r.swaps+1 {
		return 0, fmt.Errorf("after retrain %d: model %s is %s with %d retrains", k, r.model, mi.Status, mi.Retrains)
	}
	r.swaps++
	return time.Since(submit), nil
}
