package mem

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/phys"
)

// lineModel is the reference the page-frame store is checked against: one
// map entry per line ever written.
type lineModel map[phys.Addr]*[phys.LineSize]byte

func (m lineModel) read(addr phys.Addr, dst []byte) {
	for i := 0; i < len(dst); {
		a := addr + phys.Addr(i)
		var line [phys.LineSize]byte
		if l := m[phys.LineAddr(a)]; l != nil {
			line = *l
		}
		i += copy(dst[i:], line[phys.LineOffset(a):])
	}
}

func (m lineModel) write(addr phys.Addr, src []byte) {
	for i := 0; i < len(src); {
		a := addr + phys.Addr(i)
		l := m[phys.LineAddr(a)]
		if l == nil {
			l = new([phys.LineSize]byte)
			m[phys.LineAddr(a)] = l
		}
		i += copy(l[phys.LineOffset(a):], src[i:])
	}
}

// fuzzPages is how many pages the fuzz ops address: few enough that ops
// collide on pages, and split over two distant regions so page keys are
// not all small.
const fuzzPages = 8

// fuzzAddr decodes three bytes into an address: a page among fuzzPages
// (the upper half far above the lower) and a byte offset within it.
func fuzzAddr(p, hi, lo byte) phys.Addr {
	page := phys.Addr(int(p) % fuzzPages)
	if page >= fuzzPages/2 {
		page += 1 << 24
	}
	return page*phys.PageSize + phys.Addr(int(hi)<<8|int(lo))%phys.PageSize
}

// pattern returns n bytes derived from seed, distinct from zero for most
// seeds so that written data is told apart from unwritten lines.
func pattern(seed byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7) + 1
	}
	return b
}

// maxFuzzOps bounds one input's op sequence, so that long mutated inputs
// do not stall the fuzzer on the byte-wise model.
const maxFuzzOps = 128

// runStoreOps decodes ops from data and applies each to a Store and to
// the line model, failing on the first disagreement. Each op is an opcode
// byte followed by its operands; short input or maxFuzzOps ops end the
// sequence.
//
//	0 WriteLine  page hi lo seed
//	1 ReadLine   page hi lo
//	2 Write      page hi lo len seed   (len up to 2 pages, may straddle)
//	3 Read       page hi lo len        (len up to 2 pages, may straddle)
//	4 PeekLine   page hi lo
//	5 Write of a whole page            page seed
//	6 Read of a whole page             page
//	7 one line per page (sparse)       line count seed
//	8 PageView of a whole page         page
//
// A page once viewed is viewed afresh, and checked again, after every
// later write op: a view taken before a write is not relied on after it.
func runStoreOps(t *testing.T, data []byte) {
	next := func(n int) ([]byte, bool) {
		if len(data) < n {
			return nil, false
		}
		b := data[:n]
		data = data[n:]
		return b, true
	}
	s := NewStore("fuzz")
	model := lineModel{}
	check := func(what string, got, want []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: store and model disagree\n got %x\nwant %x", what, got, want)
		}
	}
	// checkView takes a PageView of the page at a and checks it against
	// the model: a page whose every line is written comes back aliasing
	// the store, any other as the scratch, holding the model's bytes.
	viewed := [fuzzPages]bool{}
	checkView := func(what string, a phys.Addr) {
		t.Helper()
		scratch := bytes.Repeat([]byte{0xEE}, phys.PageSize)
		got := s.PageView(a, scratch)
		want := make([]byte, phys.PageSize)
		model.read(a, want)
		check(what, got, want)
		full := true
		for i := 0; i < phys.LinesPerPage; i++ {
			full = full && model[a+phys.Addr(i*phys.LineSize)] != nil
		}
		if inScratch := &got[0] == &scratch[0]; full == inScratch {
			t.Fatalf("%s: page fully written = %v, view is the scratch = %v", what, full, inScratch)
		}
		if full && &got[0] != &s.PeekLine(a)[0] {
			t.Fatalf("%s: full-page view does not alias the store", what)
		}
	}
	span := func(b byte) int { return int(b) * 2 * phys.PageSize / 255 }
	for op := 0; op < maxFuzzOps; op++ {
		code, ok := next(1)
		if !ok {
			break
		}
		var desc string
		wrote := false
		switch code[0] % 9 {
		case 0:
			b, ok := next(4)
			if !ok {
				return
			}
			a := fuzzAddr(b[0], b[1], b[2])
			line := pattern(b[3], phys.LineSize)
			s.WriteLine(a, line)
			model.write(phys.LineAddr(a), line)
			desc, wrote = fmt.Sprintf("op %d WriteLine(%v)", op, a), true
		case 1:
			b, ok := next(3)
			if !ok {
				return
			}
			a := fuzzAddr(b[0], b[1], b[2])
			got, want := make([]byte, phys.LineSize), make([]byte, phys.LineSize)
			got[0] = 0xFF // ReadLine must overwrite stale buffer contents
			s.ReadLine(a, got)
			model.read(phys.LineAddr(a), want)
			desc = fmt.Sprintf("op %d ReadLine(%v)", op, a)
			check(desc, got, want)
		case 2:
			b, ok := next(5)
			if !ok {
				return
			}
			a := fuzzAddr(b[0], b[1], b[2])
			src := pattern(b[4], span(b[3]))
			s.Write(a, src)
			model.write(a, src)
			desc, wrote = fmt.Sprintf("op %d Write(%v, %d)", op, a, len(src)), true
		case 3:
			b, ok := next(4)
			if !ok {
				return
			}
			a := fuzzAddr(b[0], b[1], b[2])
			n := span(b[3])
			got, want := bytes.Repeat([]byte{0xEE}, n), make([]byte, n)
			s.Read(a, got)
			model.read(a, want)
			desc = fmt.Sprintf("op %d Read(%v, %d)", op, a, n)
			check(desc, got, want)
		case 4:
			b, ok := next(3)
			if !ok {
				return
			}
			a := fuzzAddr(b[0], b[1], b[2])
			got := s.PeekLine(a)
			want := model[phys.LineAddr(a)]
			desc = fmt.Sprintf("op %d PeekLine(%v)", op, a)
			if (got == nil) != (want == nil) {
				t.Fatalf("%s: nil = %v, model has line = %v", desc, got == nil, want != nil)
			}
			if want != nil {
				check(desc, got, want[:])
			}
		case 5:
			b, ok := next(2)
			if !ok {
				return
			}
			a := fuzzAddr(b[0], 0, 0)
			page := pattern(b[1], phys.PageSize)
			s.Write(a, page)
			model.write(a, page)
			desc, wrote = fmt.Sprintf("op %d Write(page %v)", op, a), true
		case 6:
			b, ok := next(1)
			if !ok {
				return
			}
			a := fuzzAddr(b[0], 0, 0)
			got, want := make([]byte, phys.PageSize), make([]byte, phys.PageSize)
			s.Read(a, got)
			model.read(a, want)
			desc = fmt.Sprintf("op %d Read(page %v)", op, a)
			check(desc, got, want)
		case 7:
			b, ok := next(3)
			if !ok {
				return
			}
			idx := int(b[0]) % phys.LinesPerPage
			for p := 0; p < 1+int(b[1])%fuzzPages; p++ {
				a := fuzzAddr(byte(p), 0, 0) + phys.Addr(idx*phys.LineSize)
				line := pattern(b[2]+byte(p), phys.LineSize)
				s.WriteLine(a, line)
				model.write(a, line)
			}
			desc, wrote = fmt.Sprintf("op %d sparse line %d", op, idx), true
		case 8:
			b, ok := next(1)
			if !ok {
				return
			}
			p := int(b[0]) % fuzzPages
			viewed[p] = true
			desc = fmt.Sprintf("op %d PageView(%v)", op, fuzzAddr(byte(p), 0, 0))
			checkView(desc, fuzzAddr(byte(p), 0, 0))
		}
		if wrote {
			for p, v := range viewed {
				if v {
					checkView(fmt.Sprintf("%s, then page %d viewed afresh", desc, p), fuzzAddr(byte(p), 0, 0))
				}
			}
		}
		if s.LinesWritten() != len(model) {
			t.Fatalf("%s: LinesWritten = %d, model has %d lines", desc, s.LinesWritten(), len(model))
		}
	}
	// Every page the ops can address reads back as the model holds it.
	for p := 0; p < fuzzPages; p++ {
		a := fuzzAddr(byte(p), 0, 0)
		got, want := make([]byte, phys.PageSize), make([]byte, phys.PageSize)
		s.Read(a, got)
		model.read(a, want)
		check(fmt.Sprintf("final page %v", a), got, want)
		checkView(fmt.Sprintf("final view %v", a), a)
	}
}

// FuzzStore checks the page-frame store against a plain per-line map over
// decoded op sequences: unaligned and page-straddling ranges, one line per
// page, and whole pages, with PeekLine nil-ness and LinesWritten compared
// after every op, and PageView checked for aliasing full frames only. The
// checked-in corpus seeds a sparse stride, a whole page overwritten by a
// straddling write, line inserts that fill a page out of order, and views
// re-taken across page and line writes.
func FuzzStore(f *testing.F) {
	f.Fuzz(runStoreOps)
}
