package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The glsimd-sweep grids. Set-up prefills the cache with readSpec; the
// cold job's grid is readSpec's cells plus as many new ones, so half of
// it is cache hits and half is simulated and written beside them.
// 32-core CSW/SYNTH cells are left out: each takes seconds even at the
// test tier.
const (
	readSpec = "bench=KERN2|KERN3|KERN6|UNSTR|OCEAN barrier=GL|DSW cores=16 tier=test seed=%d"
	coldSpec = "bench=KERN2|KERN3|KERN6|UNSTR|OCEAN barrier=GL|DSW cores=16|32 tier=test seed=%d"
)

// Per round, the cached grid is resubmitted hitJobs times and a single
// cell is read cellGets times, one request at a time over one connection:
// enough that each round's p99 has at least ten samples beyond it.
const (
	hitJobs  = 1000
	cellGets = 3000
)

// Both request loops take a yardstick reading every quarter of their
// requests (see yardstick.go), so that a request's latency is scaled by
// readings at most a few hundred milliseconds away.
const readingsPerLoop = 4

// jobStatus is the part of serve.JobStatus the client checks.
type jobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Cells []struct {
		Label   string `json:"label"`
		InputFP string `json:"input_fingerprint"`
		State   string `json:"state"`
		Cached  bool   `json:"cached"`
		Error   string `json:"error"`
	} `json:"cells"`
	Failed int    `json:"failed"`
	Error  string `json:"error"`
}

// jobResult is the part of the job result document the client checks.
type jobResult struct {
	Cells []struct {
		Label    string          `json:"label"`
		InputFP  string          `json:"input_fingerprint"`
		ReportFP string          `json:"report_fingerprint"`
		Cached   bool            `json:"cached"`
		Report   json.RawMessage `json:"report"`
	} `json:"cells"`
}

// client is one closed-loop glsimd client on one keep-alive connection.
// It reuses its read buffers, so that the heap the server allocates is
// most of what alloc_mb and the garbage collector see.
type client struct {
	base    string
	hc      *http.Client
	body    bytes.Buffer
	scanBuf []byte
}

// do sends req and returns the response body, which stays valid until
// the next request.
func (c *client) do(req *http.Request) ([]byte, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	c.body.Reset()
	if _, err := c.body.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	body := c.body.Bytes()
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}

func (c *client) get(path string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	return c.do(req)
}

// job submits spec and waits for its terminal state on the SSE stream.
func (c *client) job(spec string) (*jobStatus, error) {
	body, _ := json.Marshal(map[string]string{"spec": spec})
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	raw, err := c.do(req)
	if err != nil {
		return nil, err
	}
	var st jobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events %s: %s", st.ID, resp.Status)
	}
	if c.scanBuf == nil {
		c.scanBuf = make([]byte, 64<<10)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(c.scanBuf, 4<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "done":
			var done jobStatus
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &done); err != nil {
				return nil, fmt.Errorf("events %s: %w", st.ID, err)
			}
			// The handler returns after the done event; reading to EOF
			// lets the connection go back to the pool.
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				return nil, err
			}
			return &done, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("events %s: stream ended without a done event", st.ID)
}

// checkJob fails a job that did not finish cleanly, or whose cells were
// not all served from the cache when cached is set.
func checkJob(st *jobStatus, cached bool) error {
	if st.State != string(serve.StateDone) || st.Failed != 0 {
		return fmt.Errorf("job %s: state %s, %d failed cells %s", st.ID, st.State, st.Failed, st.Error)
	}
	for _, c := range st.Cells {
		if c.State != string(serve.StateDone) || (cached && !c.Cached) {
			return fmt.Errorf("job %s cell %s: state %s cached=%v %s", st.ID, c.Label, c.State, c.Cached, c.Error)
		}
	}
	return nil
}

// runTimer is the traced server's Runner: serve.RunCell timed, with the
// reports' counts kept for the round.
type runTimer struct {
	mu     sync.Mutex
	counts *layerCounts
	busy   time.Duration
}

func (rt *runTimer) run(ctx context.Context, c serve.Cell) (*sim.Report, error) {
	t := now()
	rep, err := serve.RunCell(ctx, c)
	d := now().Sub(t)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.busy += d
	if err == nil && rt.counts != nil {
		rt.counts.addReport(rep)
	}
	return rep, err
}

// servedRound starts a glsimd server with cmd/glsimd's default options
// on a loopback listener and prefills its cache, the set-up, timed in
// process CPU time like simRound's; it then times the cold job, the
// cached resubmits and the single-cell reads.
func servedRound(r *runner, traced bool) *round {
	rd := &round{fps: map[string]string{}}
	rt := &runTimer{}
	opts := serve.Options{
		ConcurrentJobs: 2,
		CacheEntries:   1024,
		QueueDepth:     64,
		RequestTimeout: 30 * time.Second,
	}
	if traced {
		rd.layers = &layerCounts{}
		opts.Runner = rt.run
	}

	rd.reading(traced)
	runtime.GC() // as in simRound
	a0 := heapAllocs()
	c0 := cpuSeconds()
	srv := serve.NewServer(opts)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		r.op(srv.Drain(ctx))
	}()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if !r.op(err) {
		return rd
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln)
	}()
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	cl := &client{base: "http://" + ln.Addr().String(), hc: &http.Client{Transport: tr, Timeout: time.Minute}}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		tr.CloseIdleConnections()
		r.op(hs.Shutdown(ctx))
		<-served
	}()

	st, err := cl.job(fmt.Sprintf(readSpec, r.seed))
	if r.op(err) {
		r.op(checkJob(st, false))
	}
	rd.at().setupS = cpuSeconds() - c0
	if traced {
		rd.layers.setupAllocB = float64(heapAllocs() - a0)
	}

	stats0 := srv.Stats()
	rt.mu.Lock()
	rt.counts, rt.busy = rd.layers, 0
	rt.mu.Unlock()
	spec := fmt.Sprintf(coldSpec, r.seed)
	rd.reading(traced)
	a0 = heapAllocs()
	t, c := now(), cpuSeconds()
	st, err = cl.job(spec)
	rd.at().coldS = since(t)
	rd.at().simCPU = cpuSeconds() - c
	if !r.op(err) || !r.op(checkJob(st, false)) {
		return rd
	}
	getFP, getBody := checkResult(r, rd, cl, st.ID, spec)
	rd.at().wallS += since(t)
	rd.reading(traced)
	t = now()
	for n := 0; n < hitJobs; n++ {
		if n > 0 && n%(hitJobs/readingsPerLoop) == 0 {
			rd.at().wallS += since(t)
			rd.reading(traced)
			t = now()
		}
		th := now()
		st, err := cl.job(spec)
		rd.at().hitMs = append(rd.at().hitMs, ms(since(th)))
		if r.op(err) {
			r.op(checkJob(st, true))
		}
	}
	rd.at().wallS += since(t)
	rd.reading(traced)
	// Single-cell reads all go to one cell the cold job simulated: reports
	// differ in size, so reads spread over cells form one latency level
	// per cell, and the median fell between two of them.
	t = now()
	for n := 0; n < cellGets && getFP != ""; n++ {
		if n > 0 && n%(cellGets/readingsPerLoop) == 0 {
			rd.at().wallS += since(t)
			rd.reading(traced)
			t = now()
		}
		tg := now()
		body, err := cl.get("/v1/cells/" + getFP)
		rd.at().getMs = append(rd.at().getMs, ms(since(tg)))
		if r.op(err) && !bytes.Equal(body, getBody) {
			r.fail("GET /v1/cells/%s: bytes differ from the cold job's result", getFP)
		}
	}
	rd.at().wallS += since(t)
	rd.allocB = heapAllocs() - a0
	rd.reading(traced)
	if traced {
		rt.mu.Lock()
		rt.counts = nil
		rd.layers.cellRunS = rt.busy.Seconds()
		rt.mu.Unlock()
		rd.layers.serveStats(stats0, srv.Stats())
	}
	r.checkFingerprints("glsimd-sweep", rd.fps)
	return rd
}

// checkResult fetches the cold job's result document and checks every
// cell: the cache-hit half marked cached and the rest simulated, the
// report fingerprint, and the barrier count the workload must execute.
// It reads each cell once through /v1/cells and requires those bytes to
// be the result's report. It returns the first simulated cell's input
// fingerprint and bytes.
func checkResult(r *runner, rd *round, cl *client, id, spec string) (string, []byte) {
	raw, err := cl.get("/v1/jobs/" + id + "/result")
	var res jobResult
	if r.op(err) {
		r.op(json.Unmarshal(raw, &res))
	}
	js, err := serve.ParseJobSpec(spec)
	if err != nil {
		r.fail("%s: %v", spec, err)
		return "", nil
	}
	cells := js.Cells()
	if len(res.Cells) != len(cells) {
		r.fail("job %s: %d result cells, spec has %d", id, len(res.Cells), len(cells))
		return "", nil
	}
	var getFP string
	var getBody []byte
	for i, c := range cells {
		got := res.Cells[i]
		var rep struct {
			Cycles   uint64 `json:"cycles"`
			Barriers uint64 `json:"barrier_episodes"`
		}
		r.attempted++
		bench, err := workload.ByName(c.Bench, c.Tier)
		switch {
		case err != nil:
			r.fail("cell %s: %v", c.Label(), err)
		case got.InputFP != c.Fingerprint():
			r.fail("cell %s: input fingerprint %s, want %s", c.Label(), got.InputFP, c.Fingerprint())
		case got.Cached != (c.Cores == 16):
			r.fail("cell %s: cached=%v, only the 16-core half was prefilled", c.Label(), got.Cached)
		case json.Unmarshal(got.Report, &rep) != nil:
			r.fail("cell %s: unreadable report", c.Label())
		case rep.Barriers != bench.Barriers(c.Threads):
			r.fail("cell %s: %d barriers, want %d", c.Label(), rep.Barriers, bench.Barriers(c.Threads))
		default:
			rd.fps[c.Label()] = fmt.Sprintf("%s barriers=%d", got.ReportFP, rep.Barriers)
			if !got.Cached {
				rd.cycles += rep.Cycles
			}
		}
		body, err := cl.get("/v1/cells/" + got.InputFP)
		if !r.op(err) {
			continue
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, body); err != nil || !bytes.Equal(compact.Bytes(), got.Report) {
			r.fail("GET /v1/cells/%s: bytes differ from the cold job's result", got.InputFP)
			continue
		}
		if !got.Cached && getFP == "" {
			getFP, getBody = got.InputFP, bytes.Clone(body)
		}
	}
	return getFP, getBody
}

// serveStats records the server's counters over the timed part.
func (l *layerCounts) serveStats(before, after metrics.Snapshot) {
	delta := func(name string) uint64 { return after.Counters[name] - before.Counters[name] }
	l.counts.cellsSimulated = delta("serve.cells.simulated")
	l.counts.cacheHits = delta("serve.cache.hits")
	l.counts.cacheMisses = delta("serve.cache.misses")
	l.counts.flightShared = delta("serve.flight.shared")
	qa, qb := after.Histograms["serve.queue.wait_ms"], before.Histograms["serve.queue.wait_ms"]
	if n := qa.Count - qb.Count; n > 0 {
		l.queueWaitMs = float64(qa.Sum-qb.Sum) / float64(n)
	}
}
