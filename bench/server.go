package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"colsort"
	"colsort/internal/record"
	"colsort/internal/server"
)

const (
	serverStream = "server-stream"

	// clients is the closed loop's client count: callers of a sort service
	// wait for their reply before sending again. It equals the sandbox's
	// cores, so the load generator never oversubscribes them by itself.
	clients = 2
	// payloadsPerClient distinct bodies are generated per client at set-up
	// and reused in turn, so that generating a body is never part of the loop.
	payloadsPerClient = 4
	// serverJobs is the server's MaxJobs: above the client count, so the
	// closed loop is never refused.
	serverJobs = 4
)

// serverRun is an in-process colsort server behind a real loopback listener,
// with the request bodies its clients send.
type serverRun struct {
	eng    *colsort.Engine
	srv    *server.Server
	hs     *http.Server
	served chan error
	client *http.Client
	url    string

	records  int64 // per body
	payloads [][]byte
	wants    []record.Checksum
	replies  [][]byte // one reply buffer per client
	next     []int    // per client: requests sent so far
}

// startServer builds the engine — colsort-server's defaults: P=4, 16384-record
// buffers, disks in memory, 4 wire jobs — the server and its listener, and
// generates the request bodies from seed.
func startServer(sz sizing, seed uint64) (*serverRun, error) {
	eng, err := colsort.NewEngine(colsort.EngineConfig{Config: colsort.Config{
		Procs: procs, MemPerProc: sz.mem, RecordSize: recSize}})
	if err != nil {
		return nil, err
	}
	srv, err := server.New(eng, server.Config{MaxJobs: serverJobs})
	if err != nil {
		eng.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		return nil, err
	}
	s := &serverRun{
		eng: eng, srv: srv,
		hs:      &http.Server{Handler: srv.Handler()},
		served:  make(chan error, 1),
		client:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}},
		url:     "http://" + ln.Addr().String() + "/v1/sort",
		records: sz.bodyRecords,
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	for i := 0; i < clients*payloadsPerClient; i++ {
		body, want := fillInput(uniform(seed+uint64(i)), sz.bodyRecords)
		s.payloads = append(s.payloads, body.Data)
		s.wants = append(s.wants, want)
	}
	for c := 0; c < clients; c++ {
		s.replies = append(s.replies, make([]byte, sz.bodyRecords*recSize))
	}
	s.next = make([]int, clients)
	return s, nil
}

// close shuts the listener down, waits for the serving goroutine, and drains
// the server, which closes the engine.
func (s *serverRun) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx) //nolint:errcheck // the drain below reports what matters
	<-s.served
	s.srv.Drain(ctx) //nolint:errcheck // teardown of a finished benchmark
	s.client.CloseIdleConnections()
}

var errBusy = errors.New("server refused the request with 429")

// request POSTs body i and reads the whole reply into buf. total is request
// start to last body byte; first is request start to first body byte. The
// reply is checked after the clock has stopped.
func (s *serverRun) request(ctx context.Context, i int, buf []byte) (total, first time.Duration, err error) {
	body := s.payloads[i]
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // keep the connection reusable
		if resp.StatusCode == http.StatusTooManyRequests {
			return 0, 0, errBusy
		}
		return 0, 0, fmt.Errorf("%s: status %s", serverStream, resp.Status)
	}
	n, err := resp.Body.Read(buf)
	first = time.Since(t0)
	if err == nil {
		_, err = io.ReadFull(resp.Body, buf[n:])
	}
	total = time.Since(t0)
	if err != nil && !(err == io.EOF && n == len(buf)) {
		return total, first, fmt.Errorf("%s: short reply: %w", serverStream, err)
	}
	if extra, _ := io.Copy(io.Discard, resp.Body); extra > 0 {
		return total, first, fmt.Errorf("%s: reply %d bytes longer than the body sent", serverStream, extra)
	}
	return total, first, checkSorted(bytes.NewReader(buf), s.records, s.wants[i])
}

// loopStats is what one closed loop observed. Latencies and the loop's wall
// time are at quiet-machine speed (see probe.go).
type loopStats struct {
	lat     []time.Duration // successful requests
	wall    time.Duration
	rawWall time.Duration
	bytes   int64     // payload bytes of successful requests
	busy    int       // requests refused with 429
	rss     []float64 // peak resident set of each segment, MiB
	tally
}

// loop runs the closed loop until at least minRequests
// were made and seconds have passed. Every reply is checked. The loop runs in
// segments of sz.segmentSeconds with a probe between them: the clients stop
// sending, the in-flight replies arrive, the machine's speed is read, and the
// segment's times are scaled by it.
func (s *serverRun) loop(ctx context.Context, sz sizing, minRequests int, seconds float64) loopStats {
	var st loopStats
	start := time.Now()
	for ctx.Err() == nil && (st.attempted < minRequests || time.Since(start).Seconds() < seconds) {
		var seg loopStats
		runtime.GC() // as before a file workload's repetition
		resetPeakRSS()
		tm, _ := timed(func() error {
			seg = s.segment(ctx, sz.segmentSeconds)
			return nil
		})
		scale := float64(tm.quiet) / float64(tm.raw)
		for _, d := range seg.lat {
			st.lat = append(st.lat, time.Duration(float64(d)*scale))
		}
		st.rss = append(st.rss, peakRSSMiB())
		st.wall += tm.quiet
		st.rawWall += tm.raw
		st.bytes += seg.bytes
		st.busy += seg.busy
		st.merge(seg.tally)
	}
	return st
}

// segment is one stretch of the closed loop: every client sends its next
// request as soon as the last reply is read and checked, until seconds have
// passed; each makes at least one request.
func (s *serverRun) segment(ctx context.Context, seconds float64) loopStats {
	var st loopStats
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := s.replies[c]
			for k := 0; ctx.Err() == nil && (k == 0 || time.Since(start).Seconds() < seconds); k++ {
				i := c*payloadsPerClient + s.next[c]%payloadsPerClient
				s.next[c]++
				total, _, err := s.request(ctx, i, buf)
				mu.Lock()
				st.add(err)
				if err == nil {
					st.lat = append(st.lat, total)
					st.bytes += int64(len(buf))
				} else if errors.Is(err, errBusy) {
					st.busy++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return st
}

// diskBytes is the engine's cumulative disk traffic of completed jobs.
func (s *serverRun) diskBytes() int64 {
	c := s.eng.Stats().Counters
	return c.DiskReadBytes + c.DiskWriteBytes
}

// setUpServer sets the server workload up sz.setups times — engine, server,
// listener, request bodies and the warm-up requests — and keeps the last.
func setUpServer(ctx context.Context, sz sizing, seed uint64, t *tally) (*serverRun, float64, error) {
	var s *serverRun
	var secs []float64
	for i := 0; i < sz.setups; i++ {
		if s != nil {
			s.close()
		}
		var warm loopStats
		runtime.GC()
		tm, err := timed(func() (err error) {
			if s, err = startServer(sz, seed); err != nil {
				return err
			}
			warm = s.segment(ctx, sz.warmSeconds)
			return nil
		})
		if err != nil {
			return nil, 0, err
		}
		t.merge(warm.tally)
		if warm.failed > 0 {
			s.close()
			return nil, 0, fmt.Errorf("%s: warm-up: %w", serverStream, warm.firstErr)
		}
		secs = append(secs, tm.quiet.Seconds())
	}
	return s, median(secs), nil
}

// measureServer runs the server workload with tracing off.
func measureServer(ctx context.Context, sz sizing, seed uint64, seconds float64) (result, error) {
	var t tally
	s, setup, err := setUpServer(ctx, sz, seed, &t)
	if err != nil {
		return result{}, err
	}
	defer s.close()

	disk0 := s.diskBytes()
	st := s.loop(ctx, sz, sz.minRequests, seconds)
	disk := s.diskBytes() - disk0
	t.merge(st.tally)
	if len(st.lat) == 0 {
		return result{}, fmt.Errorf("%s: no request succeeded: %w", serverStream, st.firstErr)
	}
	m := metrics{}
	m.set("sort_mb_s", unitMBps, mbPerSec(st.bytes, st.wall))
	m.set("req_p50_ms", unitMs, ms(durQuantile(st.lat, 0.5)))
	m.set("io_amp", unitX, float64(disk)/float64(2*st.bytes))
	m.set("peak_rss_mib", unitMiB, median(st.rss))
	m.set("setup_s", unitS, setup)
	fmt.Printf("%s: %d timed requests of %d MiB by %d clients; %.3fs at quiet-machine speed, %.3fs as measured\n",
		serverStream, len(st.lat), s.records*recSize>>20, clients, st.wall.Seconds(), st.rawWall.Seconds())
	return t.result(m), nil
}
