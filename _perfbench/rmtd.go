package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/server"
	"repro/rmt"
)

// The rmtd workload: a closed loop of rmtdClients clients, each holding
// one keep-alive connection to an in-process server.New(Workers: 2) on a
// loopback listener and sending its next request only after the reply to
// the previous one (rmt.Client callers block on each reply).
//
// No recorded rmtd traffic exists to derive the mix from. The repository's
// only rmtd caller, cmd/faultinject -server, sends /campaign alone, and the
// README's /run example uses budget 50000. The mix below is a chosen shape:
// mostly /run at small budgets, Zipf-skewed over a key space larger than
// the server's default 512-entry cache (server.Config.CacheEntries), with
// small shares of /sweep and /campaign. Which numbers have a source:
//   - rmtdClients and Workers = 2: one per core of the 2-core host the
//     benchmark was sized on.
//   - genKernels: the /run key space must exceed 512 keys, and 7 modes ×
//     18 registry kernels × 3 budgets is only 378, so at least 7 generated
//     kernels are needed; 16 (714 keys, 1.4× the cache) is assumed.
//   - rmtdBudgets: 4000 is the size at which a miss was measured at about
//     8.6 ms p50 before this benchmark existed; 1000 and 2000 are assumed.
//   - zipfS, sweepShare and campShare are assumed, not measured. Together
//     they set the hit ratio (about 0.9) that makes op_ms_p50 a hit latency,
//     and the hit/miss balance of work_per_s; every run prints the measured
//     shares (rmtd.share.*) so a reader can see the mix that was served.
const (
	rmtdClients = 2
	genKernels  = 16
	zipfS       = 1.0
	sweepShare  = 0.02 // of requests
	campShare   = 0.01
)

var rmtdBudgets = []uint64{1000, 2000, 4000}

// rankSeed shuffles the Zipf ranking of the /run keys.
const rankSeed = 0xC0FFEE

// rmtdKey is one distinct request.
type rmtdKey struct {
	path string
	body []byte
	spec rmt.Spec // /run keys only
	size uint64   // /run budget; warmup is half of it
}

// rmtdKeys builds the request key space: first every /run key, then the
// /sweep and /campaign keys. It does not depend on the seed.
func rmtdKeys() (run, sweep, camp []rmtdKey) {
	kernels := rmt.Kernels()
	for g := 1; g <= genKernels; g++ {
		kernels = append(kernels, fmt.Sprintf("gen:%d", g))
	}
	for _, m := range rmt.Modes() {
		for _, k := range kernels {
			for _, b := range rmtdBudgets {
				spec := facadeSpec(m, k)
				run = append(run, rmtdKey{"/run", runBody(spec, b), spec, b})
			}
		}
	}
	for i := 0; i < 8; i++ {
		a, b := kernels[i], kernels[(i*5+3)%len(kernels)]
		// Marshal cannot fail on maps of strings, numbers and bools.
		body, _ := json.Marshal(map[string]any{
			"specs":  []map[string]any{wireSpec(facadeSpec(rmt.SRT, a)), wireSpec(facadeSpec(rmt.Base, b))},
			"budget": 1000, "warmup": 500,
		})
		sweep = append(sweep, rmtdKey{path: "/sweep", body: body})
	}
	for i, m := range []rmt.Mode{rmt.SRT, rmt.CRT, rmt.SRTR, rmt.Adaptive} {
		w := wireSpec(facadeSpec(m, "compress"))
		w["n"], w["seed"], w["budget"], w["warmup"] = 8, i+1, 2000, 1000
		body, _ := json.Marshal(w) // as above
		camp = append(camp, rmtdKey{path: "/campaign", body: body})
	}
	return run, sweep, camp
}

func wireSpec(s rmt.Spec) map[string]any {
	return map[string]any{
		"mode": s.Mode.String(), "programs": s.Programs, "psr": s.PSR,
		"checker_latency": s.CheckerLatency, "adaptive_threshold": s.AdaptiveThreshold,
	}
}

func runBody(s rmt.Spec, budget uint64) []byte {
	w := wireSpec(s)
	w["budget"], w["warmup"] = budget, budget/2
	b, _ := json.Marshal(w) // cannot fail on maps of strings, numbers and bools
	return b
}

// stream is one client's seeded request sequence. Requests are mostly
// /run, drawn Zipf-skewed over a fixed, shuffled ranking of the /run keys
// (both clients share the ranking, so they contend for the same hot keys),
// with small shares of /sweep and /campaign. The seed draws the sequence
// but not the ranking: a seed-chosen ranking would decide which keys miss
// the cache, and so what a miss costs on average, making requests per
// second differ from seed to seed for reasons other than the program.
type stream struct {
	rng   uint64
	cdf   []float64 // Zipf CDF over /run ranks
	rank  []int     // rank -> /run key index
	nRun  int
	nSw   int
	nCamp int
}

func newStream(seed uint64, client, nRun, nSw, nCamp int) *stream {
	cdf := make([]float64, nRun)
	var t float64
	for r := range cdf {
		t += 1 / math.Pow(float64(r+1), zipfS)
		cdf[r] = t
	}
	for r := range cdf {
		cdf[r] /= t
	}
	rank := make([]int, nRun)
	for i := range rank {
		rank[i] = i
	}
	p := splitmix64(rankSeed)
	for i := nRun - 1; i > 0; i-- {
		p = splitmix64(p)
		j := int(p % uint64(i+1))
		rank[i], rank[j] = rank[j], rank[i]
	}
	return &stream{rng: splitmix64(seed ^ uint64(client+1)<<32), cdf: cdf, rank: rank,
		nRun: nRun, nSw: nSw, nCamp: nCamp}
}

// next returns the next key index: /run keys first, then /sweep, then
// /campaign, in rmtdKeys order.
func (s *stream) next() int {
	s.rng = splitmix64(s.rng)
	u := float64(s.rng>>11) / (1 << 53)
	switch {
	case u < campShare:
		return s.nRun + s.nSw + int(s.rng%uint64(s.nCamp))
	case u < campShare+sweepShare:
		return s.nRun + int(s.rng%uint64(s.nSw))
	}
	s.rng = splitmix64(s.rng)
	v := float64(s.rng>>11) / (1 << 53)
	return s.rank[sort.SearchFloat64s(s.cdf, v)]
}

// rmtdStats is one phase's client-side view.
type rmtdStats struct {
	mu            sync.Mutex
	hitMs, missMs []float64
	dedup         int
	sweep, camp   int       // /sweep and /campaign requests served
	missSample    []int     // /run keys that missed, in order
	missSampleMs  []float64 // their latencies
	server0       serverCounters
	server1       serverCounters
}

type serverCounters struct{ hits, misses, evictions, rejected float64 }

type rmtdSession struct {
	seed    uint64
	srv     *server.Server
	served  chan error
	url     string
	clients []*http.Client
	keys    []rmtdKey
	nRun    int
	streams []*stream

	canned *cannedServer // started by warm; calibrates op latency

	mu     sync.Mutex
	bodies map[int][32]byte // first body seen per key
	stats  map[*phase]*rmtdStats
}

// setupRmtd starts the server on a loopback port, opens one keep-alive
// connection per client, builds the seeded request streams and warms the
// serving path.
func setupRmtd(seed uint64) (session, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &rmtdSession{
		seed:   seed,
		srv:    server.New(server.Config{Workers: 2}),
		served: make(chan error, 1),
		url:    "http://" + l.Addr().String(),
		bodies: map[int][32]byte{},
		stats:  map[*phase]*rmtdStats{},
	}
	go func() { s.served <- s.srv.Serve(l) }()
	run, sweep, camp := rmtdKeys()
	s.nRun = len(run)
	s.keys = append(append(append(s.keys, run...), sweep...), camp...)
	for c := 0; c < rmtdClients; c++ {
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}})
		s.streams = append(s.streams, newStream(seed, c, len(run), len(sweep), len(camp)))
	}
	// Warm every mode's serving path on every registry kernel, alternating
	// clients, on keys outside the measured key space (budget 3000).
	for i, kernel := range rmt.Kernels() {
		for _, m := range rmt.Modes() {
			if _, _, err := s.post(i%rmtdClients, "/run", runBody(facadeSpec(m, kernel), 3000)); err != nil {
				s.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return s, nil
}

// rmtdWarm is how long the request stream runs, untimed, before the first
// window: long enough for the cache to fill and its hit ratio to settle,
// so every window sees the steady state rather than part of the fill.
const rmtdWarm = 3 * time.Second

// refRoundTripMs is roundTrip's median on the reference host, the one
// that runs calib.go's kernel in refCalibMs.
const refRoundTripMs = 0.037

// warm runs the seeded request stream untimed, so the first window starts
// with the cache at its steady state. Its replies are checked, and become
// the first reply of each key they cover. It also starts the canned
// responder that roundTrip uses.
func (s *rmtdSession) warm() error {
	var err error
	if s.canned, err = s.startCanned(); err != nil {
		return err
	}
	ph := &phase{}
	s.run(time.Now().Add(rmtdWarm), nil, ph)
	if ph.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed: %v", ph.failed, ph.attempted, ph.failures)
	}
	return nil
}

// roundTrip drives the canned responder for 100 ms and returns the median
// request time in milliseconds. A request's latency is mostly client,
// loopback and wake-up time, which a slow host stretches far less than it
// stretches the compute calib.go times — 13% against 48% in one slow
// spell — so the op latencies are scaled by this instead.
func (s *rmtdSession) roundTrip() (float64, float64) {
	return median(s.canned.drive(100 * time.Millisecond).opMs), refRoundTripMs
}

func (s *rmtdSession) close() error {
	if s.canned != nil {
		s.canned.stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	return err
}

// post sends one request and returns the body and the X-Cache state; a
// non-2xx status is an error.
func (s *rmtdSession) post(client int, path string, body []byte) ([]byte, string, error) {
	resp, err := s.clients[client].Post(s.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode/100 != 2 {
		return nil, "", fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, resp.Header.Get("X-Cache"), nil
}

func (s *rmtdSession) run(deadline time.Time, tr *tracer, ph *phase) {
	// A phase runs in several slices; its stats span all of them.
	s.mu.Lock()
	st, seen := s.stats[ph]
	if !seen {
		st = &rmtdStats{}
		s.stats[ph] = st
	}
	s.mu.Unlock()
	if !seen {
		st.server0 = s.counters(ph)
	}
	var wg sync.WaitGroup
	for c := 0; c < rmtdClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s.client(c, deadline, tr, ph, st)
		}(c)
	}
	wg.Wait()
	st.server1 = s.counters(ph)
}

func (s *rmtdSession) client(c int, deadline time.Time, tr *tracer, ph *phase, st *rmtdStats) {
	for op := 0; time.Now().Before(deadline); op++ {
		k := s.streams[c].next()
		key := s.keys[k]
		var body []byte
		var state string
		t0 := time.Now()
		err := tr.call("rmtd"+key.path, 0, op, c, func(int) error {
			var err error
			body, state, err = s.post(c, key.path, key.body)
			return err
		})
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		if err != nil {
			ph.note("%s: %v", key.path, err)
			ph.record(false, ms, 0, 0)
			continue
		}
		sum := sha256.Sum256(body)
		s.mu.Lock()
		first, seen := s.bodies[k]
		if !seen {
			s.bodies[k] = sum
		}
		s.mu.Unlock()
		ok := !seen || first == sum
		if !ok {
			ph.note("%s %s reply differs from the key's first reply", key.path, state)
		}
		var cycles float64
		if state == "miss" {
			if cycles, err = bodyCycles(key.path, body); err != nil {
				ph.note("%s reply: %v", key.path, err)
				ok = false
			}
		}
		ph.record(ok, ms, 1, cycles)
		st.mu.Lock()
		switch state {
		case "hit":
			st.hitMs = append(st.hitMs, ms)
		case "miss":
			st.missMs = append(st.missMs, ms)
			if key.path == "/run" && len(st.missSample) < 16 {
				st.missSample = append(st.missSample, k)
				st.missSampleMs = append(st.missSampleMs, ms)
			}
		case "dedup":
			st.dedup++
		}
		switch key.path {
		case "/sweep":
			st.sweep++
		case "/campaign":
			st.camp++
		}
		st.mu.Unlock()
	}
}

// bodyCycles reads the simulated cycles out of a computed reply.
func bodyCycles(path string, body []byte) (float64, error) {
	switch path {
	case "/run":
		var r struct{ Cycles uint64 }
		err := json.Unmarshal(body, &r)
		return float64(r.Cycles), err
	case "/sweep":
		var rs []struct{ Cycles uint64 }
		var t uint64
		err := json.Unmarshal(body, &rs)
		for _, r := range rs {
			t += r.Cycles
		}
		return float64(t), err
	}
	var r struct {
		TotalCycles uint64 `json:"total_cycles"`
	}
	err := json.Unmarshal(body, &r)
	return float64(r.TotalCycles), err
}

// counters reads the server's cache and admission counters from
// /metricsz.
func (s *rmtdSession) counters(ph *phase) serverCounters {
	var c serverCounters
	resp, err := s.clients[0].Get(s.url + "/metricsz")
	if err != nil {
		ph.note("/metricsz: %v", err)
		ph.record(false, 0, 0, 0)
		return c
	}
	defer resp.Body.Close()
	var snap struct {
		Metrics []struct {
			Name    string
			Counter float64
		}
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		ph.note("/metricsz: %v", err)
		ph.record(false, 0, 0, 0)
		return c
	}
	for _, m := range snap.Metrics {
		switch m.Name {
		case "rmtd_cache_hits_total":
			c.hits += m.Counter
		case "rmtd_cache_misses_total":
			c.misses += m.Counter
		case "rmtd_cache_evictions_total":
			c.evictions += m.Counter
		case "rmtd_rejected_total":
			c.rejected += m.Counter
		}
	}
	return c
}

// sampleKeys is the fixed, seed-independent set of /run keys re-checked
// against an in-process run after every phase.
func (s *rmtdSession) sampleKeys() []int {
	var out []int
	for i := 0; i < 8; i++ {
		out = append(out, i*s.nRun/8+i)
	}
	return out
}

// verify re-requests the sample keys and compares each reply byte for
// byte with server.EncodeResult of an in-process rmt.Run.
func (s *rmtdSession) verify(ph *phase) {
	for _, k := range s.sampleKeys() {
		err := s.recheck(k)
		if err != nil {
			ph.note("sample %d: %v", k, err)
		}
		ph.mu.Lock()
		ph.attempted++
		if err != nil {
			ph.failed++
		}
		ph.mu.Unlock()
	}
}

func (s *rmtdSession) recheck(k int) error {
	key := s.keys[k]
	body, _, err := s.post(0, key.path, key.body)
	if err != nil {
		return err
	}
	res, err := rmt.Run(context.Background(), key.spec, rmt.WithBudget(key.size), rmt.WithWarmup(key.size/2))
	if err != nil {
		return fmt.Errorf("in-process: %w", err)
	}
	if !bytes.Equal(body, server.EncodeResult(res)) {
		return errors.New("reply differs from the in-process result")
	}
	return nil
}

func (s *rmtdSession) phaseStats(ph *phase) *rmtdStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats[ph]
}

func (s *rmtdSession) details(ph *phase) []figure {
	st := s.phaseStats(ph)
	n := len(st.hitMs) + len(st.missMs) + st.dedup
	share := func(k int) float64 { return float64(k) / float64(max(n, 1)) }
	return []figure{
		{"rmtd_hit_ms_p50", median(st.hitMs), "ms", len(st.hitMs)},
		{"rmtd_hit_ms_p99", percentile(st.hitMs, 99), "ms", len(st.hitMs)},
		{"rmtd_miss_ms_p50", median(st.missMs), "ms", len(st.missMs)},
		{"rmtd_miss_ms_p90", percentile(st.missMs, 90), "ms", len(st.missMs)},
		{"rmtd.share.hit", share(len(st.hitMs)), "ratio", n},
		{"rmtd.share.miss", share(len(st.missMs)), "ratio", n},
		{"rmtd.share.dedup", share(st.dedup), "ratio", n},
		{"rmtd.share.sweep", share(st.sweep), "ratio", n},
		{"rmtd.share.campaign", share(st.camp), "ratio", n},
	}
}

func (s *rmtdSession) layers(t *phase, out map[string]float64) error {
	st := s.phaseStats(t)
	d := serverCounters{
		hits:      st.server1.hits - st.server0.hits,
		misses:    st.server1.misses - st.server0.misses,
		evictions: st.server1.evictions - st.server0.evictions,
		rejected:  st.server1.rejected - st.server0.rejected,
	}
	if d.hits+d.misses > 0 {
		out["server.hit_ratio"] = d.hits / (d.hits + d.misses)
	}
	out["server.evictions"] = d.evictions
	out["server.rejected"] = d.rejected
	out["server.dedup"] = float64(st.dedup)

	// Miss overhead: a miss's latency minus an in-process rmt.Run of the
	// same request, and the cost of encoding that result.
	var overhead, encode []float64
	for i, k := range st.missSample {
		key := s.keys[k]
		var res *rmt.Result
		dRun, _, _, err := timed(func() (err error) {
			res, err = rmt.Run(context.Background(), key.spec, rmt.WithBudget(key.size), rmt.WithWarmup(key.size/2))
			return err
		})
		if err != nil {
			return err
		}
		dEnc, _, _, _ := timed(func() error { server.EncodeResult(res); return nil })
		overhead = append(overhead, st.missSampleMs[i]-float64(dRun.Nanoseconds())/1e6)
		encode = append(encode, float64(dEnc.Nanoseconds())/1e3)
	}
	out["server.miss_overhead_ms_p50"] = median(overhead)
	out["server.encode_us_p50"] = median(encode)

	if err := buildProbes(out); err != nil {
		return err
	}
	a, err := s.clientAllocsPerReq()
	if err != nil {
		return err
	}
	out["rmtd.client_allocs_per_req"] = a
	for _, k := range s.sampleKeys() {
		key := s.keys[k]
		if err := modelCounts([]rmt.Spec{key.spec}, key.size, key.size/2, out); err != nil {
			return err
		}
	}
	return nil
}

// clientAllocsPerReq measures the heap allocations the benchmark's own
// client side makes per request, which rmtd's allocs_per_op includes: the
// same client loop, keys, streams and reply checks, run for one second
// against the canned responder, which allocates nothing per request.
func (s *rmtdSession) clientAllocsPerReq() (float64, error) {
	c, err := s.startCanned()
	if err != nil {
		return 0, err
	}
	defer c.stop()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ph := c.drive(time.Second)
	runtime.ReadMemStats(&after)
	if ph.failed > 0 || len(ph.opMs) == 0 {
		return 0, fmt.Errorf("client probe: %d of %d requests failed", ph.failed, ph.attempted)
	}
	return float64(after.Mallocs-before.Mallocs) / float64(len(ph.opMs)), nil
}

// cannedServer is a loopback responder that answers every request with one
// canned /run reply marked as a hit, plus a client pair that sends it the
// workload's request streams: the client side of a hit without the
// program's server behind it.
type cannedServer struct {
	p     *rmtdSession // the clients
	l     net.Listener
	wg    sync.WaitGroup
	mu    sync.Mutex
	conns []net.Conn
}

func (s *rmtdSession) startCanned() (*cannedServer, error) {
	key := s.keys[s.sampleKeys()[0]]
	res, err := rmt.Run(context.Background(), key.spec, rmt.WithBudget(key.size), rmt.WithWarmup(key.size/2))
	if err != nil {
		return nil, err
	}
	reply := server.EncodeResult(res)
	canned := append([]byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"+
		"X-Cache: hit\r\nContent-Length: %d\r\n\r\n", len(reply))), reply...)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c := &cannedServer{l: l, p: &rmtdSession{url: "http://" + l.Addr().String(), keys: s.keys, nRun: s.nRun,
		bodies: map[int][32]byte{}, stats: map[*phase]*rmtdStats{}}}
	for i := 0; i < rmtdClients; i++ {
		c.p.clients = append(c.p.clients, &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}})
		o := s.streams[i]
		c.p.streams = append(c.p.streams, newStream(s.seed, i, o.nRun, o.nSw, o.nCamp))
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			c.mu.Lock()
			c.conns = append(c.conns, conn)
			c.mu.Unlock()
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				cannedResponder(conn, canned)
			}()
		}
	}()
	return c, nil
}

// drive runs the client pair against the responder for d.
func (c *cannedServer) drive(d time.Duration) *phase {
	ph, st := &phase{}, &rmtdStats{}
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for i := 0; i < rmtdClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.p.client(i, deadline, nil, ph, st)
		}(i)
	}
	wg.Wait()
	return ph
}

// stop closes the clients, the listener and every connection, and waits
// for the responder's goroutines to end.
func (c *cannedServer) stop() {
	for _, hc := range c.p.clients {
		hc.CloseIdleConnections()
	}
	c.l.Close()
	c.mu.Lock()
	for _, conn := range c.conns {
		conn.Close()
	}
	c.mu.Unlock()
	c.wg.Wait()
}

var contentLength = []byte("Content-Length: ")

// cannedResponder answers each HTTP/1.1 request on c with canned, reading
// the request line, headers and Content-Length body without allocating.
func cannedResponder(c net.Conn, canned []byte) {
	r := bufio.NewReader(c)
	for {
		n := 0
		for {
			line, err := r.ReadSlice('\n')
			if err != nil {
				return
			}
			if len(line) <= 2 {
				break
			}
			if v, ok := bytes.CutPrefix(line, contentLength); ok {
				n = 0
				for _, d := range bytes.TrimSpace(v) {
					n = n*10 + int(d-'0')
				}
			}
		}
		if _, err := r.Discard(n); err != nil {
			return
		}
		if _, err := c.Write(canned); err != nil {
			return
		}
	}
}
