package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scalegnn/internal/serve"
	"scalegnn/internal/tensor"
)

// The open-loop load generator. Requests come from a script built from the
// seed before timing starts. One pacing goroutine releases each request at
// its due time (sleeping, never spinning) to at most nproc sender
// goroutines, one keep-alive HTTP connection each. Latency is measured from the due
// time, so a stall also charges the requests queued behind it; the
// generator reports how late it released requests, because a time.Sleep
// overshoots by most of a millisecond and sub-millisecond latency from due
// time is mostly the Go timer. serve.service_ms is timed from the send.

const (
	scriptSize   = 1 << 15 // requests in the seeded pool every rung draws from
	maxIDs       = 32      // node ids per request: uniform on 1..maxIDs
	zipfS        = 1.1     // Zipf exponent of node popularity
	verifyEvery  = 8       // one request in verifyEvery asks for logits and is verified
	slo          = 25 * time.Millisecond
	abortLate    = 250 * time.Millisecond // a request this late ends its rung early
	postSwap     = 50 * time.Millisecond  // window after a swap for serve.post_swap_p99_ms
	swapsPerRung = 2                      // Engine.Swap calls in every rung
	keepUp       = 0.95                   // achieved/offered a passing rung must reach
)

// script is the seeded request pool.
type script struct {
	urls   []string
	nodes  [][]int
	verify []bool
}

// buildScript draws scriptSize requests of 1..maxIDs node ids whose
// popularity is Zipf(zipfS) over a seeded permutation of the n nodes.
func buildScript(seed uint64, n int) *script {
	rng := rand.New(rand.NewPCG(seed, seed^0x5eed_10ad))
	perm := rng.Perm(n)
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(n-1))
	s := &script{}
	var b strings.Builder
	for i := 0; i < scriptSize; i++ {
		ids := make([]int, 1+rng.IntN(maxIDs))
		b.Reset()
		b.WriteString("/predict?nodes=")
		for j := range ids {
			ids[j] = perm[zipf.Uint64()]
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(ids[j]))
		}
		v := rng.IntN(verifyEvery) == 0
		if v {
			b.WriteString("&logits=1")
		}
		s.urls = append(s.urls, b.String())
		s.nodes = append(s.nodes, ids)
		s.verify = append(s.verify, v)
	}
	return s
}

// generation is one model the engine can serve, with the logits offline
// Score gave for every node.
type generation struct {
	model serve.Model
	logit *tensor.Matrix
	pred  []int
}

// loadgen drives one engine behind one HTTP server.
type loadgen struct {
	addr   string
	conns  []*conn // one keep-alive connection per sender
	script *script
	eng    *serve.Engine
	gens   [2]generation // generation g is served by gens[(g-1)%2]
	next   int           // gens index the next swap installs
	offset int           // script index of the next rung's first request
	tamper bool          // perturb one expected logit of every verified response
}

func newLoadgen(addr string, s *script, workers int, eng *serve.Engine, gens [2]generation) *loadgen {
	return &loadgen{
		addr: addr, conns: make([]*conn, workers), script: s,
		eng: eng, gens: gens, next: 1,
	}
}

func (g *loadgen) close() {
	for _, c := range g.conns {
		if c != nil {
			c.nc.Close()
		}
	}
}

// conn is a minimal HTTP/1.1 client connection: it writes GET requests and
// parses responses with http.ReadResponse, keeping the generator's own CPU
// cost (which competes with the server for the same cores) small.
type conn struct {
	nc net.Conn
	br *bufio.Reader
}

// get sends one GET on the sender's connection, dialing it first if it is
// closed. A request that fails leaves the connection closed.
func (g *loadgen) get(w int, path string) (*http.Response, error) {
	if g.conns[w] == nil {
		nc, err := net.Dial("tcp", g.addr)
		if err != nil {
			return nil, err
		}
		g.conns[w] = &conn{nc: nc, br: bufio.NewReader(nc)}
	}
	c := g.conns[w]
	resp, err := func() (*http.Response, error) {
		if err := c.nc.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
			return nil, err
		}
		if _, err := io.WriteString(c.nc, "GET "+path+" HTTP/1.1\r\nHost: "+g.addr+"\r\n\r\n"); err != nil {
			return nil, err
		}
		return http.ReadResponse(c.br, nil)
	}()
	if err != nil {
		c.nc.Close()
		g.conns[w] = nil
	}
	return resp, err
}

// record is one scripted request's fate.
type record struct {
	due, released, sent, done time.Time
	skipped                   bool
	fail                      string // non-200, transport error or wrong answer
}

// swapEvent is one Engine.Swap made while a rung ran.
type swapEvent struct {
	at  time.Time
	dur time.Duration
	bad string
}

// rungStats summarises one rung at a fixed offered rate.
type rungStats struct {
	rate     float64
	sent     int
	failures []string
	fromDue  []time.Duration // completed requests, latency from due time
	service  []time.Duration // completed requests, latency from send
	late     []time.Duration // release time minus due time
	postSwap []time.Duration // latency from due of requests due just after a swap
	swaps    []swapEvent
	achieved float64 // completed requests per second of the rung
	aborted  bool
}

func (s *rungStats) p99() time.Duration {
	return time.Duration(quantile(durFloats(s.fromDue), 0.99))
}

// passes reports whether the rung met the SLO: p99 from due time within
// slo, the achieved rate keeping up with the offered one, and no failures.
func (s *rungStats) passes() bool {
	return !s.aborted && len(s.failures) == 0 && len(s.fromDue) > 0 &&
		s.p99() <= slo && s.achieved >= keepUp*s.rate
}

func durFloats(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d)
	}
	return out
}

// rung offers rate requests per second for dur, swapping models
// swapsPerRung times, and waits until every released request has completed.
func (g *loadgen) rung(rate float64, dur time.Duration) *rungStats {
	n := max(1, int(rate*dur.Seconds()))
	period := time.Duration(float64(time.Second) / rate)
	recs := make([]record, n)
	jobs := make(chan int, n) // sized to the number of sends: the pacer never blocks
	var abort atomic.Bool
	var wg sync.WaitGroup
	offset := g.offset
	g.offset = (g.offset + n) % len(g.script.urls)
	for w := range g.conns {
		wg.Add(1)
		//lint:ignore naked-go one sender per keep-alive connection, joined by wg before the rung returns
		go func(w int) {
			defer wg.Done()
			for i := range jobs {
				g.send(w, &recs[i], (offset+i)%len(g.script.urls), &abort)
			}
		}(w)
	}
	start := time.Now().Add(time.Millisecond)
	stop := make(chan struct{})
	swapped := make(chan []swapEvent)
	//lint:ignore naked-go the swapper runs beside the pacer for one rung, which waits for its result
	go func() { swapped <- g.swapLoop(stop, start, dur) }()

	for i := 0; i < n && !abort.Load(); {
		now := time.Now()
		for ; i < n; i++ {
			due := start.Add(time.Duration(i) * period)
			if due.After(now) {
				break
			}
			recs[i].due, recs[i].released = due, now
			jobs <- i
		}
		if i < n {
			time.Sleep(time.Until(start.Add(time.Duration(i) * period)))
		}
	}
	close(jobs)
	wg.Wait()
	close(stop)
	st := &rungStats{rate: rate, swaps: <-swapped, aborted: abort.Load()}
	st.collect(recs, start, dur)
	return st
}

// send issues one scripted request and, for a verified one, compares the
// answer with offline Score of the generation that answered.
func (g *loadgen) send(w int, rec *record, idx int, abort *atomic.Bool) {
	if abort.Load() {
		rec.skipped = true
		return
	}
	rec.sent = time.Now()
	resp, err := g.get(w, g.script.urls[idx])
	if err != nil {
		rec.done, rec.fail = time.Now(), "transport: "+err.Error()
		return
	}
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		rec.done, rec.fail = time.Now(), "status "+resp.Status
		return
	}
	if g.script.verify[idx] {
		rec.fail = g.verify(resp.Body, g.script.nodes[idx])
	}
	// Drain what is left (the decoder stops before the trailing newline):
	// the transport reuses a connection only after its body is read to EOF.
	if _, err := io.Copy(io.Discard, resp.Body); err != nil && rec.fail == "" {
		rec.fail = "read body: " + err.Error()
	}
	resp.Body.Close()
	rec.done = time.Now()
	if rec.done.Sub(rec.due) > abortLate {
		abort.Store(true)
	}
}

// verify decodes a /predict answer with logits and checks every node's
// prediction and logits against the answering generation's offline Score.
func (g *loadgen) verify(body io.Reader, ids []int) string {
	var got struct {
		Generation  uint64      `json:"generation"`
		Nodes       []int       `json:"nodes"`
		Predictions []int       `json:"predictions"`
		Logits      [][]float64 `json:"logits"`
	}
	if err := json.NewDecoder(body).Decode(&got); err != nil {
		return "decode: " + err.Error()
	}
	if got.Generation == 0 {
		return "generation 0"
	}
	ref := g.gens[(got.Generation-1)%2]
	if len(got.Nodes) != len(ids) || len(got.Predictions) != len(ids) || len(got.Logits) != len(ids) {
		return fmt.Sprintf("answer for %d nodes, asked %d", len(got.Nodes), len(ids))
	}
	for j, id := range ids {
		if got.Nodes[j] != id || got.Predictions[j] != ref.pred[id] {
			return fmt.Sprintf("node %d: generation %d predicted %d, offline %d", id, got.Generation, got.Predictions[j], ref.pred[id])
		}
		want := ref.logit.Row(id)
		for c, v := range got.Logits[j] {
			w := want[c]
			if g.tamper && j == 0 && c == 0 {
				w += 1e-9
			}
			if v != w {
				return fmt.Sprintf("node %d class %d: generation %d logit %v, offline %v", id, c, got.Generation, v, w)
			}
		}
	}
	return ""
}

// swapLoop swaps the other model in swapsPerRung times, evenly spread over
// the rung that starts at start and lasts dur (at 1/4 and 3/4 of it for two
// swaps), so that every rung, whatever its rate and length, pays the same
// number of cache flushes with each post-swap window inside the rung. It
// stops early when stop closes.
func (g *loadgen) swapLoop(stop <-chan struct{}, start time.Time, dur time.Duration) []swapEvent {
	var out []swapEvent
	for k := range swapsPerRung {
		at := start.Add(dur * time.Duration(2*k+1) / (2 * swapsPerRung))
		t := time.NewTimer(time.Until(at))
		select {
		case <-stop:
			t.Stop()
			return out
		case <-t.C:
			want := g.next
			start := time.Now()
			gen := g.eng.Swap(g.gens[want].model, serve.SwapInfo{Source: "fit"})
			ev := swapEvent{at: start, dur: time.Since(start)}
			if int((gen-1)%2) != want {
				ev.bad = fmt.Sprintf("swap installed generation %d, expected model %d", gen, want)
			}
			out = append(out, ev)
			g.next = 1 - want
		}
	}
	<-stop
	return out
}

func (s *rungStats) collect(recs []record, start time.Time, dur time.Duration) {
	var last time.Time
	ok := 0
	for i := range recs {
		rec := &recs[i]
		if rec.skipped || rec.sent.IsZero() {
			continue
		}
		s.sent++
		s.late = append(s.late, rec.released.Sub(rec.due))
		if rec.fail != "" {
			s.failures = append(s.failures, rec.fail)
			continue
		}
		ok++
		lat := rec.done.Sub(rec.due)
		s.fromDue = append(s.fromDue, lat)
		s.service = append(s.service, rec.done.Sub(rec.sent))
		if rec.done.After(last) {
			last = rec.done
		}
		for _, sw := range s.swaps {
			if d := rec.due.Sub(sw.at); d >= 0 && d < postSwap {
				s.postSwap = append(s.postSwap, lat)
				break
			}
		}
	}
	for _, sw := range s.swaps {
		if sw.bad != "" {
			s.failures = append(s.failures, sw.bad)
		}
	}
	span := max(last.Sub(start), dur)
	s.achieved = float64(ok) / span.Seconds()
}

// ladder is the fixed offered-rate ladder in requests per second: rungs 5%
// apart, so a 10% change in capacity moves the knee by about two rungs.
func ladder() []float64 {
	var out []float64
	for r := 1000.0; r < 200000; r *= 1.05 {
		out = append(out, float64(int(r)))
	}
	return out
}

// staircase runs trials rungs as an up-down staircase from rung at: after a
// passing rung the next one is a rung up the ladder, after a failing one a
// rung down, so the rungs settle around the rate at which a rung passes
// half the time. It returns the rung to run next and every rung it ran.
func (g *loadgen) staircase(at, trials int, dur time.Duration) (int, []*rungStats) {
	rates := ladder()
	var ran []*rungStats
	for range trials {
		st := g.rung(rates[at], dur)
		ran = append(ran, st)
		if st.passes() {
			at = min(at+1, len(rates)-1)
		} else {
			at = max(at-1, 0)
		}
	}
	return at, ran
}

// stairKnee is the geometric mean of the offered rates of staircase rungs:
// the knee, the rate at which a rung passes half the time. Averaging over
// many rungs resolves it finer than the ladder's 5% step.
func stairKnee(ran []*rungStats) float64 {
	var sum float64
	for _, st := range ran {
		sum += math.Log(st.rate)
	}
	return math.Exp(sum / float64(len(ran)))
}

// coarse is how many rungs a climb skips until its first failure, and
// firstRung (about 4 100 req/s) is where the first climb starts.
const (
	coarse    = 6
	firstRung = 29
)

// climb walks the ladder from rung from, coarse rungs at a time until a
// rung fails, then one rung at a time from the last passing rung. It
// returns the index of the highest passing rung (-1 if none) and every
// rung it ran.
func (g *loadgen) climb(from int, dur time.Duration) (int, []*rungStats) {
	rates := ladder()
	var ran []*rungStats
	try := func(i int) bool {
		st := g.rung(rates[i], dur)
		ran = append(ran, st)
		return st.passes()
	}
	// Step down until the starting rung passes.
	for !try(from) {
		if from == 0 {
			return -1, ran
		}
		from = max(0, from-coarse)
	}
	best, i := from, from+coarse
	for i < len(rates) && try(i) {
		best, i = i, i+coarse
	}
	for j := best + 1; j < min(i, len(rates)) && try(j); j++ {
		best = j
	}
	return best, ran
}
