package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
)

// shot is one request of an open-loop run.
type shot struct {
	due     time.Time
	lag     time.Duration // how late the generator sent it
	gotConn atomic.Int64  // unix ns the transport handed it a connection (traced only)
	end     time.Time     // last byte of the summary record
	status  int
	err     error
	configs []api.RunRecord
	summary *api.RunRecord
}

func (s *shot) latency() time.Duration { return s.end.Sub(s.due) }

// ok is a request that reached a passing, verified verdict.
func (s *shot) ok() bool {
	return s.err == nil && s.status == http.StatusOK && s.summary != nil &&
		s.summary.Error == "" && s.summary.Verified && s.summary.Passed
}

// digest covers what the server simulated — per configuration its id,
// kernel, cycles, events and completion, and the verdict — and leaves
// out every wall time.
func (s *shot) digest() string {
	var b bytes.Buffer
	for _, c := range s.configs {
		fmt.Fprintf(&b, "%d %s %s %d %d %v\n", c.Round, c.Config, c.Kernel, c.Cycles, c.Events, c.Completed)
	}
	if sm := s.summary; sm != nil {
		fmt.Fprintf(&b, "%d %d %d %v %v %v\n", sm.Rounds, sm.Configs, sm.Events, sm.Verified, sm.Passed, sm.Mismatches)
	}
	return hash64(b.Bytes())
}

// openLoop sends n requests on a fixed schedule — request i is due at
// start + i·interval — whatever the server's pace. Each request runs
// on its own goroutine, so a slow reply delays only the requests that
// wait for its connection, and every request's latency runs from its
// due time: a stall is charged to the requests queued behind it. The
// client's transport caps the connections.
func openLoop(ctx context.Context, client *http.Client, url string, body func(i int) []byte, n int, interval time.Duration, traced bool) []*shot {
	shots := make([]*shot, n)
	var wg sync.WaitGroup
	start := time.Now().Add(interval)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		s := &shot{due: due, lag: time.Since(due)}
		shots[i] = s
		wg.Add(1)
		go func(b []byte) {
			defer wg.Done()
			s.do(ctx, client, url, b, traced)
		}(body(i))
	}
	wg.Wait()
	return shots
}

// do posts one request and reads its NDJSON reply up to the summary.
func (s *shot) do(ctx context.Context, client *http.Client, url string, body []byte, traced bool) {
	defer func() {
		if s.end.IsZero() {
			s.end = time.Now()
		}
	}()
	if traced {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GotConn: func(httptrace.GotConnInfo) { s.gotConn.Store(time.Now().UnixNano()) },
		})
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		s.err = err
		return
	}
	resp, err := client.Do(req)
	if err != nil {
		s.err = err
		return
	}
	defer resp.Body.Close()
	s.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var r api.RunRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			s.err = fmt.Errorf("reply record: %w", err)
			return
		}
		if r.Record == api.RecordSummary {
			s.end = time.Now()
			s.summary = &r
			io.Copy(io.Discard, resp.Body) // let the connection be reused
			return
		}
		s.configs = append(s.configs, r)
	}
	s.err = sc.Err()
	if s.err == nil {
		s.err = errors.New("reply ended without a summary record")
	}
}
