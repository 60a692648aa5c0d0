package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	cxl2sim "repro"
	"repro/internal/experiments"
	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/service"
)

// serve: two clients in a closed loop against an in-process cxlsimd with
// only its in-memory cache. The clients move in lockstep rounds of one
// request each, so which requests overlap is fixed by the seed: a hit
// round asks for two hot keys, a miss round pairs a fresh seed with a hot
// key, and a duplicate round sends the same fresh request from both
// clients at once, so one of them is coalesced onto the other's run.
const (
	serveRounds    = 240
	serveMissRound = 36 // fresh seed on one client
	serveDupRound  = 12 // the same fresh request on both clients
	serveHotSeeds  = 2  // hot keys per request template
	serveClients   = 2
	// serveWorkers is the server's runner pool. Misses pair with hits
	// and duplicates coalesce, so runs seldom overlap.
	serveWorkers = 1
)

// serveReq is one HTTP request of the schedule.
type serveReq struct {
	Path string
	Body string
}

func (q serveReq) key() string { return q.Path + " " + q.Body }

// serveTemplates are the request shapes: two sections and two §V
// measurements, each small enough that a miss costs milliseconds.
var serveTemplates = []func(seed int64) serveReq{
	func(s int64) serveReq {
		return serveReq{"/v1/sections/table3", fmt.Sprintf(`{"seed":%d}`, s)}
	},
	func(s int64) serveReq {
		return serveReq{"/v1/sections/fig4", fmt.Sprintf(`{"reps":200,"seed":%d}`, s)}
	},
	func(s int64) serveReq {
		return serveReq{"/v1/measure", fmt.Sprintf(`{"kind":"d2h","op":"NC-rd","reps":400,"seed":%d}`, s)}
	},
	func(s int64) serveReq {
		return serveReq{"/v1/measure", fmt.Sprintf(`{"kind":"h2d","op":"ld","place":"LLC-1","reps":400,"seed":%d}`, s)}
	},
}

// serveSchedule derives the rounds from seed. Round kinds come in fixed
// numbers, shuffled, and fresh requests cycle through the templates, so
// every seed has the same mix of hits, misses and duplicates.
func serveSchedule(seed int64) [][serveClients]serveReq {
	rnd := rng.New(seed)
	var hot []serveReq
	for _, t := range serveTemplates {
		for k := 0; k < serveHotSeeds; k++ {
			hot = append(hot, t(rng.DeriveSeed(seed, fmt.Sprintf("perfbench/serve/hot/%d", k))))
		}
	}
	fresh := 0
	nextFresh := func() serveReq {
		fresh++
		return serveTemplates[fresh%len(serveTemplates)](rng.DeriveSeed(seed, fmt.Sprintf("perfbench/serve/fresh/%d", fresh)))
	}
	kinds := make([]byte, serveRounds)
	for i := range kinds {
		switch {
		case i < serveMissRound:
			kinds[i] = 'm'
		case i < serveMissRound+serveDupRound:
			kinds[i] = 'd'
		default:
			kinds[i] = 'h'
		}
	}
	rnd.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	rounds := make([][serveClients]serveReq, serveRounds)
	for i, k := range kinds {
		switch k {
		case 'm':
			rounds[i] = [serveClients]serveReq{nextFresh(), hot[rnd.Intn(len(hot))]}
		case 'd':
			f := nextFresh()
			rounds[i] = [serveClients]serveReq{f, f}
		default:
			rounds[i] = [serveClients]serveReq{hot[rnd.Intn(len(hot))], hot[rnd.Intn(len(hot))]}
		}
	}
	return rounds
}

func runServe(r *rep) {
	srv, err := service.New(service.Config{
		Workers: serveWorkers, MaxConcurrent: serveClients, Log: log.New(io.Discard, "", 0),
	})
	if err != nil {
		panic(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	var served sync.WaitGroup
	served.Add(1)
	go func() {
		defer served.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed after Close below
	}()
	defer func() {
		_ = hs.Close()
		served.Wait()
	}()

	tr := &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 60 * time.Second}
	base := "http://" + ln.Addr().String()
	rounds := serveSchedule(r.seed)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		time.Sleep(time.Millisecond)
	}
	r.ready()

	a0 := allocBytes()
	coalesced := 0
	r.tr.do("serve.clients", 0, func(clientsSpan int) {
		for _, round := range rounds {
			var wg sync.WaitGroup
			var sources [serveClients]string
			for c := range round {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					sources[c] = r.send(client, base, round[c], clientsSpan)
				}(c)
			}
			wg.Wait()
			for _, src := range sources {
				if src == "coalesced" {
					coalesced++
				}
			}
		}
	})
	r.add("alloc_mb.service", float64(allocBytes()-a0)/(1<<20))
	r.add("service.coalesced", float64(coalesced))
	r.mu.Lock()
	r.rec.WorkS = time.Since(r.dispatched).Seconds()
	r.mu.Unlock()
	if err := r.scrapeMetrics(client, base); err != nil {
		r.op(err)
	}
	keys := make([]string, 0, len(r.rec.Bodies))
	for k := range r.rec.Bodies {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		r.out.WriteString(k + " " + r.rec.Bodies[k] + "\n")
	}
}

// send issues one request, records its latency by cache outcome, and
// checks its status and that its body matches earlier answers to the
// same request. It returns the X-Cache outcome.
func (r *rep) send(client *http.Client, base string, q serveReq, parent int) string {
	var status int
	var body []byte
	var source string
	var err error
	start := time.Now()
	r.tr.do("http:"+q.Path, parent, func(int) {
		var resp *http.Response
		resp, err = client.Post(base+q.Path, "application/json", strings.NewReader(q.Body))
		if err != nil {
			return
		}
		defer resp.Body.Close()
		status, source = resp.StatusCode, resp.Header.Get("X-Cache")
		body, err = io.ReadAll(resp.Body)
	})
	el := time.Since(start)
	r.request(el)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("%s %s: status %d: %s", q.Path, q.Body, status, bytes.TrimSpace(body))
	}
	if err == nil {
		got := bodyRecord(q, body)
		r.mu.Lock()
		if prev, ok := r.rec.Bodies[q.key()]; ok && prev != got {
			err = fmt.Errorf("%s %s: body differs between responses", q.Path, q.Body)
		}
		r.rec.Bodies[q.key()] = got
		switch source {
		case "hit-mem":
			r.rec.HitMS = append(r.rec.HitMS, ms(el))
		case "miss":
			r.rec.MissMS = append(r.rec.MissMS, ms(el))
		}
		r.mu.Unlock()
	}
	r.op(err)
	return source
}

// bodyRecord is what a repetition keeps of a response: measurement
// bodies whole (they are small and are compared field by field), section
// bodies as a digest.
func bodyRecord(q serveReq, body []byte) string {
	if q.Path == "/v1/measure" {
		return string(body)
	}
	return digest(body)
}

// scrapeMetrics reads the service's own counters from /metrics.
func (r *rep) scrapeMetrics(client *http.Client, base string) error {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	want := map[string]string{
		"cxlsimd_cache_hit_rate":             "service.cache_hit_ratio",
		"cxlsimd_cache_evictions_total":      "service.cache_evictions",
		`cxlsimd_requests_total{code="429"}`: "service.shed",
	}
	found := map[string]float64{"service.shed": 0} // the 429 line is absent until one is shed
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if metric, hit := want[name]; ok && hit {
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return fmt.Errorf("parse /metrics %s: %w", name, err)
			}
			found[metric] = v
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("read /metrics: %w", err)
	}
	for _, metric := range want {
		v, ok := found[metric]
		if !ok {
			return fmt.Errorf("/metrics lacks %s", metric)
		}
		r.add(metric, v)
	}
	return nil
}

// checkServe renders every distinct request of the schedule directly,
// through the section registry and the measurement job builders, and
// compares each with what every repetition was served.
func checkServe(seed int64, recs []record) (int, []error) {
	seen := map[string]bool{}
	attempted := 0
	var errs []error
	for _, round := range serveSchedule(seed) {
		for _, q := range round {
			if seen[q.key()] {
				continue
			}
			seen[q.key()] = true
			attempted++
			want, err := directRender(q)
			if err != nil {
				errs = append(errs, fmt.Errorf("direct render %s: %w", q.key(), err))
				continue
			}
			for i, rec := range recs {
				got, ok := rec.Bodies[q.key()]
				if !ok {
					errs = append(errs, fmt.Errorf("repetition %d has no answer to %s", i, q.key()))
				} else if err := want(got); err != nil {
					errs = append(errs, fmt.Errorf("repetition %d, %s: %w", i, q.key(), err))
				}
			}
		}
	}
	return attempted, errs
}

// directRender computes the in-process answer to q and returns a check
// of a repetition's bodyRecord against it.
func directRender(q serveReq) (func(got string) error, error) {
	if name, ok := strings.CutPrefix(q.Path, "/v1/sections/"); ok {
		var req struct {
			Reps int   `json:"reps"`
			Seed int64 `json:"seed"`
		}
		if err := json.Unmarshal([]byte(q.Body), &req); err != nil {
			return nil, err
		}
		sec, ok := experiments.SectionByName(experiments.Sections(req.Reps), name)
		if !ok {
			return nil, fmt.Errorf("unknown section %q", name)
		}
		results := runner.Run(sec.Jobs, runner.Options{Workers: 1, RootSeed: req.Seed})
		var b bytes.Buffer
		if err := sec.Render(&b, results); err != nil {
			return nil, err
		}
		want := digest(b.Bytes())
		return func(got string) error {
			if got != want {
				return errors.New("section body differs from the direct render")
			}
			return nil
		}, nil
	}
	var req struct {
		Kind  string `json:"kind"`
		Op    string `json:"op"`
		Place string `json:"place"`
		Reps  int    `json:"reps"`
		Seed  int64  `json:"seed"`
	}
	if err := json.Unmarshal([]byte(q.Body), &req); err != nil {
		return nil, err
	}
	if req.Place == "" {
		req.Place = "cold"
	}
	spec := cxl2sim.MeasureSpec{Reps: req.Reps, Place: cxl2sim.PlacementNames[req.Place]}
	id := "measure/" + req.Kind + "/" + req.Op
	var job runner.Job
	switch req.Kind {
	case "d2h":
		job = cxl2sim.MeasureD2HJob(id, cxl2sim.Config{}, cxl2sim.D2HOpNames[req.Op], spec)
	case "h2d":
		job = cxl2sim.MeasureH2DJob(id, cxl2sim.Config{}, cxl2sim.HostOpNames[req.Op], spec)
	default:
		return nil, fmt.Errorf("unknown kind %q", req.Kind)
	}
	res := runner.Run([]runner.Job{job}, runner.Options{Workers: 1, RootSeed: req.Seed})[0]
	if res.Err != nil {
		return nil, res.Err
	}
	m := res.Value.(cxl2sim.Measurement)
	return func(got string) error {
		var resp struct {
			Reps         int     `json:"reps"`
			Burst        int     `json:"burst"`
			MedianNs     float64 `json:"median_ns"`
			StdDevNs     float64 `json:"stddev_ns"`
			BandwidthGBs float64 `json:"bandwidth_gbs"`
		}
		if err := json.Unmarshal([]byte(got), &resp); err != nil {
			return fmt.Errorf("decode measure body: %w", err)
		}
		if resp.Reps != m.Reps || resp.Burst != m.Burst || resp.MedianNs != m.MedianNs ||
			resp.StdDevNs != m.StdDevNs || resp.BandwidthGBs != m.BandwidthGBs {
			return fmt.Errorf("measure body %+v differs from the direct measurement %+v", resp, m)
		}
		return nil
	}, nil
}
