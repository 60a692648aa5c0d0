package kvs

import (
	"bytes"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/timing"
	"repro/internal/ycsb"
)

type fix struct {
	eng  *sim.Engine
	mm   *kernel.MM
	core *sim.Resource
	srv  *Server
}

func newFix(t *testing.T, totalPages int, cfg Config, pollution func() uint64) *fix {
	t.Helper()
	eng := sim.NewEngine()
	mm := kernel.NewMM(timing.Default(), mem.NewStore("host"), 0, totalPages)
	mm.SetSwap(kernel.NewBackingSwap(20*sim.Microsecond, 25*sim.Microsecond))
	core := sim.NewResource("core0")
	as := mm.NewAddressSpace(1)
	srv, err := NewServer(eng, cfg, core, as, pollution)
	if err != nil {
		t.Fatal(err)
	}
	loader := sim.NewProc(eng, "loader", nil)
	if err := srv.LoadDataset(loader); err != nil {
		t.Fatal(err)
	}
	return &fix{eng: eng, mm: mm, core: core, srv: srv}
}

func smallCfg() Config {
	cfg := DefaultConfig()
	cfg.Records = 1024 // 64 pages at 256 B values
	return cfg
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Records: 0, ValueBytes: 256, BaseService: 1},
		{Records: 10, ValueBytes: 0, BaseService: 1},
		{Records: 10, ValueBytes: 8192, BaseService: 1},
		{Records: 10, ValueBytes: 256, BaseService: 0},
	}
	for i, c := range bad {
		if c.Validate() == "" {
			t.Errorf("config %d accepted", i)
		}
	}
	if DefaultConfig().Validate() != "" {
		t.Fatal("default config invalid")
	}
}

func TestServeReadsVerify(t *testing.T) {
	f := newFix(t, 256, smallCfg(), nil)
	gen := ycsb.MustNewGenerator(ycsb.C, ycsb.Uniform, 1024, 1)
	for i := 0; i < 500; i++ {
		f.srv.Serve(gen.Next(), f.eng.Now())
	}
	if !f.srv.VerifyOK() {
		t.Fatal("read verification failed")
	}
	if f.srv.Served() != 500 {
		t.Fatalf("served = %d", f.srv.Served())
	}
	if f.srv.P99() <= 0 {
		t.Fatal("no latency recorded")
	}
}

func TestUpdatesPersist(t *testing.T) {
	f := newFix(t, 256, smallCfg(), nil)
	f.srv.Serve(ycsb.Op{Kind: ycsb.Update, Key: 7}, 0)
	f.srv.Serve(ycsb.Op{Kind: ycsb.Read, Key: 7}, 0)
	if !f.srv.VerifyOK() {
		t.Fatal("update broke verification")
	}
}

func TestFaultsUnderMemoryPressure(t *testing.T) {
	// Dataset 64 pages but only 40 frames: serving faults pages back in
	// through swap, and data stays correct.
	f := newFix(t, 40, smallCfg(), nil)
	gen := ycsb.MustNewGenerator(ycsb.A, ycsb.Uniform, 1024, 2)
	for i := 0; i < 2000; i++ {
		f.srv.Serve(gen.Next(), f.eng.Now())
	}
	if f.srv.Faults() == 0 {
		t.Fatal("expected major faults under pressure")
	}
	if !f.srv.VerifyOK() {
		t.Fatal("data corrupted through swap cycles")
	}
	if f.mm.Stats().SwapOuts == 0 {
		t.Fatal("no reclaim happened")
	}
}

func TestFaultingRequestsAreSlower(t *testing.T) {
	pressured := newFix(t, 40, smallCfg(), nil)
	relaxed := newFix(t, 256, smallCfg(), nil)
	gen1 := ycsb.MustNewGenerator(ycsb.C, ycsb.Uniform, 1024, 3)
	gen2 := ycsb.MustNewGenerator(ycsb.C, ycsb.Uniform, 1024, 3)
	for i := 0; i < 2000; i++ {
		pressured.srv.Serve(gen1.Next(), pressured.eng.Now())
		relaxed.srv.Serve(gen2.Next(), relaxed.eng.Now())
	}
	if pressured.srv.P99() <= relaxed.srv.P99() {
		t.Fatalf("pressure p99 %.1f <= relaxed p99 %.1f", pressured.srv.P99(), relaxed.srv.P99())
	}
}

func TestPollutionPenaltyInflatesService(t *testing.T) {
	var polluted uint64
	cfg := smallCfg()
	noisy := newFix(t, 256, cfg, func() uint64 { return polluted })
	quiet := newFix(t, 256, cfg, nil)
	for i := 0; i < 200; i++ {
		polluted += 200 // kernel features trash 200 lines between requests
		noisy.srv.Serve(ycsb.Op{Kind: ycsb.Read, Key: uint64(i)}, noisy.eng.Now())
		quiet.srv.Serve(ycsb.Op{Kind: ycsb.Read, Key: uint64(i)}, quiet.eng.Now())
	}
	if noisy.srv.P99() <= quiet.srv.P99() {
		t.Fatalf("pollution did not inflate latency: %.1f vs %.1f", noisy.srv.P99(), quiet.srv.P99())
	}
}

func TestPollutionPenaltyCapped(t *testing.T) {
	var polluted uint64
	cfg := smallCfg()
	f := newFix(t, 256, cfg, func() uint64 { return polluted })
	polluted = 1 << 40 // absurd delta must be capped
	f.srv.Serve(ycsb.Op{Kind: ycsb.Read, Key: 1}, 0)
	max := (cfg.BaseService + cfg.PollutionCap).Microseconds() + 1
	if got := f.srv.P99(); got > max {
		t.Fatalf("latency %.1f exceeds capped bound %.1f", got, max)
	}
}

func TestCoreContentionRaisesTail(t *testing.T) {
	// A co-runner burning the core in bursts (kswapd-like) inflates p99.
	f := newFix(t, 256, smallCfg(), nil)
	hog := sim.NewProc(f.eng, "hog", f.core)
	gen := ycsb.MustNewGenerator(ycsb.C, ycsb.Uniform, 1024, 4)
	var now sim.Time
	for i := 0; i < 1000; i++ {
		if i%50 == 0 {
			hog.AdvanceTo(now)
			hog.Compute(100 * sim.Microsecond) // burst
		}
		f.srv.Serve(gen.Next(), now)
		now += 20 * sim.Microsecond
	}
	base := newFix(t, 256, smallCfg(), nil)
	gen2 := ycsb.MustNewGenerator(ycsb.C, ycsb.Uniform, 1024, 4)
	now = 0
	for i := 0; i < 1000; i++ {
		base.srv.Serve(gen2.Next(), now)
		now += 20 * sim.Microsecond
	}
	if f.srv.P99() < 2*base.srv.P99() {
		t.Fatalf("core contention p99 %.1f, baseline %.1f: tail should spike", f.srv.P99(), base.srv.P99())
	}
}

func TestLoadGenPoissonArrivals(t *testing.T) {
	f := newFix(t, 256, smallCfg(), nil)
	gen := ycsb.MustNewGenerator(ycsb.B, ycsb.Uniform, 1024, 5)
	lg := NewLoadGen(f.eng, []*Server{f.srv}, gen, 50_000, 6)
	lg.Start()
	f.eng.RunUntil(100 * sim.Millisecond)
	lg.Stop()
	f.eng.Run()
	// ~5000 requests expected over 100 ms at 50k/s.
	if f.srv.Served() < 4000 || f.srv.Served() > 6000 {
		t.Fatalf("served = %d, want ~5000", f.srv.Served())
	}
	if !f.srv.VerifyOK() {
		t.Fatal("verification failed under load")
	}
}

func TestAntagonistDrivesReclaim(t *testing.T) {
	eng := sim.NewEngine()
	mm := kernel.NewMM(timing.Default(), mem.NewStore("host"), 0, 128)
	mm.SetSwap(kernel.NewBackingSwap(20*sim.Microsecond, 25*sim.Microsecond))
	core := sim.NewResource("antcore")
	k := kernel.NewKswapd(eng, mm, core)
	_ = k
	as := mm.NewAddressSpace(9)
	ant := NewAntagonist(eng, as, core, 7)
	ant.Keep = 120 // working set near capacity: free pages sit below the low watermark
	ant.Start()
	eng.RunUntil(50 * sim.Millisecond)
	ant.Stop()
	eng.Run()
	if ant.Allocated() < 100 {
		t.Fatalf("antagonist allocated only %d pages", ant.Allocated())
	}
	if mm.Stats().SwapOuts == 0 {
		t.Fatal("antagonist churn never drove reclaim")
	}
}

// TestValuePatternMatchesByteLoop pins fillValue and valueOK, which work a
// word at a time, to the byte-at-a-time definition of the pattern (key's
// little-endian bytes repeated) for every length up to 300, including one
// flipped byte anywhere in the value.
func TestValuePatternMatchesByteLoop(t *testing.T) {
	want := func(key uint64, n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(key >> (uint(i%8) * 8))
		}
		return b
	}
	keys := []uint64{0, 1, 0xff, 0x1234, 0xdeadbeef, 1<<63 | 5, ^uint64(0), 0x0102030405060708}
	for _, key := range keys {
		for n := 1; n <= 300; n++ {
			got := bytes.Repeat([]byte{0xA5}, n)
			fillValue(got, key)
			if w := want(key, n); !bytes.Equal(got, w) {
				t.Fatalf("fillValue(key %#x, %d bytes) = %x, want %x", key, n, got, w)
			}
			if !valueOK(got, key) {
				t.Fatalf("valueOK(key %#x, %d bytes) rejects the canonical value", key, n)
			}
			for i := 0; i < n; i++ {
				got[i] ^= 0x10
				if valueOK(got, key) {
					t.Fatalf("valueOK(key %#x, %d bytes) accepts byte %d flipped", key, n, i)
				}
				got[i] ^= 0x10
			}
		}
	}
}
