// Package kvs models the latency-sensitive co-running application of §VII:
// a Redis-like in-memory key-value store serving YCSB operations. Its
// dataset lives in a simulated kernel address space, so memory pressure
// swaps real pages out through zswap and requests take real major faults;
// its serving loop runs on a simulated core, so kswapd/ksmd work on the
// same core steals cycles; and cache pollution reported by the offload
// backends inflates service times. Tail latency (p99) emerges from those
// three mechanisms — the paper's interference story — rather than from a
// fitted curve.
package kvs

import (
	"encoding/binary"
	"fmt"

	"repro/internal/kernel"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/ycsb"
)

// Config shapes one server.
type Config struct {
	// Records is the number of key-value records the server holds.
	Records uint64
	// ValueBytes is the stored value size (Redis-style small values).
	ValueBytes int
	// BaseService is the CPU time to parse, look up and respond to one
	// request absent interference.
	BaseService sim.Time
	// PollutionPenaltyPerLine converts displaced-LLC-line counts reported
	// by the offload backends into extra service time (cache refill).
	PollutionPenaltyPerLine sim.Time
	// PollutionCap bounds the per-request pollution penalty (a request
	// cannot miss more lines than it touches).
	PollutionCap sim.Time
}

// DefaultConfig returns a Redis-like configuration.
func DefaultConfig() Config {
	return Config{
		Records:                 20000,
		ValueBytes:              256,
		BaseService:             8 * sim.Microsecond,
		PollutionPenaltyPerLine: 60 * sim.Nanosecond,
		PollutionCap:            6 * sim.Microsecond,
	}
}

// Validate reports the first problem, or "".
func (c Config) Validate() string {
	switch {
	case c.Records == 0:
		return "kvs: Records must be positive"
	case c.ValueBytes <= 0 || c.ValueBytes > phys.PageSize:
		return "kvs: ValueBytes out of range"
	case c.BaseService <= 0:
		return "kvs: BaseService must be positive"
	}
	return ""
}

// Server is one KVS instance pinned to a core.
type Server struct {
	cfg  Config
	eng  *sim.Engine
	core *sim.Resource
	as   *kernel.AddressSpace
	// req is the request process, reused (via Restart) across requests:
	// requests run synchronously inside their arrival event, so one chain
	// is always finished before the next begins and reuse is safe.
	req *sim.Proc
	// page is the scratch page requests read their dataset page into.
	page []byte

	recPerPage uint64
	// pollution returns the cumulative polluted-line count of the kernel
	// features; deltas between requests become cache-refill penalties.
	pollution    func() uint64
	lastPolluted uint64

	lat      *stats.Sample
	faultLat *stats.Sample
	cleanLat *stats.Sample
	served   uint64
	faults   uint64
	verifyOK bool
}

// NewServer builds a server whose dataset is mapped into as (pages are
// allocated from the shared MM, participating in reclaim). pollution may be
// nil.
func NewServer(eng *sim.Engine, cfg Config, core *sim.Resource, as *kernel.AddressSpace, pollution func() uint64) (*Server, error) {
	if msg := cfg.Validate(); msg != "" {
		return nil, fmt.Errorf("%s", msg)
	}
	s := &Server{
		cfg:        cfg,
		eng:        eng,
		core:       core,
		as:         as,
		page:       make([]byte, phys.PageSize),
		recPerPage: uint64(phys.PageSize / cfg.ValueBytes),
		pollution:  pollution,
		lat:        stats.NewSample(4096),
		faultLat:   stats.NewSample(256),
		cleanLat:   stats.NewSample(4096),
		verifyOK:   true,
	}
	s.req = sim.NewProc(eng, "req", core)
	return s, nil
}

// LoadDataset maps the dataset pages with deterministic, compressible
// values. It must run before serving; allocation pressure may already
// trigger reclaim (charged to proc).
func (s *Server) LoadDataset(proc *sim.Proc) error {
	pages := (s.cfg.Records + s.recPerPage - 1) / s.recPerPage
	buf := make([]byte, phys.PageSize)
	for vpn := uint64(0); vpn < pages; vpn++ {
		for r := uint64(0); r < s.recPerPage; r++ {
			key := vpn*s.recPerPage + r
			fillValue(buf[int(r)*s.cfg.ValueBytes:int(r+1)*s.cfg.ValueBytes], key)
		}
		if err := s.as.Map(vpn, buf, proc); err != nil {
			return fmt.Errorf("kvs: loading page %d: %w", vpn, err)
		}
	}
	return nil
}

// fillValue writes the canonical value for key: a compressible pattern that
// still identifies the key, so reads verify integrity through swap cycles.
// The pattern is key's little-endian bytes repeated: one word, then
// doubling copies.
func fillValue(dst []byte, key uint64) {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], key)
	for n := copy(dst, w[:]); n < len(dst); n *= 2 {
		copy(dst[n:], dst[:n])
	}
}

// valueOK checks a read value against the canonical pattern, a word at a
// time.
func valueOK(v []byte, key uint64) bool {
	i := 0
	for ; i+8 <= len(v); i += 8 {
		if binary.LittleEndian.Uint64(v[i:]) != key {
			return false
		}
	}
	for ; i < len(v); i++ {
		if v[i] != byte(key>>(uint(i%8)*8)) {
			return false
		}
	}
	return true
}

// Serve processes one operation arriving at time arrival. It runs the full
// request on the server's core, faulting pages in as needed, and records
// the end-to-end latency.
func (s *Server) Serve(op ycsb.Op, arrival sim.Time) {
	proc := s.req
	proc.Restart()
	proc.AdvanceTo(arrival)

	// Cache-pollution penalty: lines displaced by kernel features since the
	// last request must be refilled.
	if s.pollution != nil {
		cur := s.pollution()
		delta := cur - s.lastPolluted
		s.lastPolluted = cur
		pen := sim.Time(delta) * s.cfg.PollutionPenaltyPerLine
		if pen > s.cfg.PollutionCap {
			pen = s.cfg.PollutionCap
		}
		if pen > 0 {
			proc.Compute(pen)
		}
	}

	proc.Compute(s.cfg.BaseService / 2)

	key := op.Key % s.cfg.Records
	vpn := key / s.recPerPage
	faultsBefore := s.as.MM().Stats().MajorFaults
	switch op.Kind {
	case ycsb.Read:
		if err := s.as.ReadInto(vpn, s.page, proc); err == nil {
			off := int(key%s.recPerPage) * s.cfg.ValueBytes
			if !valueOK(s.page[off:off+s.cfg.ValueBytes], key) {
				s.verifyOK = false
			}
		}
	case ycsb.Update, ycsb.Insert:
		if err := s.as.ReadInto(vpn, s.page, proc); err == nil {
			off := int(key%s.recPerPage) * s.cfg.ValueBytes
			fillValue(s.page[off:off+s.cfg.ValueBytes], key)
			if werr := s.as.Write(vpn, s.page, proc); werr != nil {
				s.verifyOK = false
			}
		}
	}
	faulted := s.as.MM().Stats().MajorFaults > faultsBefore
	if faulted {
		s.faults++
	}

	proc.Compute(s.cfg.BaseService / 2)
	latUs := (proc.Now() - arrival).Microseconds()
	s.lat.Add(latUs)
	if faulted {
		s.faultLat.Add(latUs)
	} else {
		s.cleanLat.Add(latUs)
	}
	s.served++
}

// P99 reports the 99th-percentile latency in microseconds.
func (s *Server) P99() float64 { return s.lat.P99() }

// Latencies exposes the recorded sample.
func (s *Server) Latencies() *stats.Sample { return s.lat }

// FaultLatencies exposes latencies of requests that took a major fault.
func (s *Server) FaultLatencies() *stats.Sample { return s.faultLat }

// CleanLatencies exposes latencies of fault-free requests.
func (s *Server) CleanLatencies() *stats.Sample { return s.cleanLat }

// Served reports how many requests completed.
func (s *Server) Served() uint64 { return s.served }

// Faults reports how many requests took a major fault.
func (s *Server) Faults() uint64 { return s.faults }

// VerifyOK reports whether every read returned the canonical value —
// end-to-end data integrity through compression/swap/merge cycles.
func (s *Server) VerifyOK() bool { return s.verifyOK }
