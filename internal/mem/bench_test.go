package mem

import (
	"testing"

	"repro/internal/phys"
)

// sparsePages is how many pages BenchmarkStoreSparseLines touches per op.
const sparsePages = 1024

// BenchmarkStoreSparseLines measures the device sections' access shape: a
// short-lived store in which each touched page holds a single line, the
// way Rig.devLine scatters lines over device memory. One op fills a fresh
// store with one line in each of sparsePages pages, then reads every line
// back.
func BenchmarkStoreSparseLines(b *testing.B) {
	line := make([]byte, phys.LineSize)
	for i := range line {
		line[i] = byte(i + 1)
	}
	dst := make([]byte, phys.LineSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewStore("sparse")
		for p := 0; p < sparsePages; p++ {
			s.WriteLine(sparseAddr(p), line)
		}
		for p := 0; p < sparsePages; p++ {
			s.ReadLine(sparseAddr(p), dst)
		}
	}
}

// sparseAddr is line p%64 of page p.
func sparseAddr(p int) phys.Addr {
	return phys.Addr(p)*phys.PageSize + phys.Addr(p%phys.LinesPerPage)*phys.LineSize
}

// storePages is the resident page count of BenchmarkStorePages.
const storePages = 256

// BenchmarkStorePages measures the kernel models' access shape: whole
// 4 KiB pages moved through the store, as page migration, swap-in and the
// ksm scan do. One op reads one resident page and writes it over another.
func BenchmarkStorePages(b *testing.B) {
	s := NewStore("pages")
	page := make([]byte, phys.PageSize)
	for p := 0; p < storePages; p++ {
		page[0] = byte(p)
		s.Write(phys.Addr(p)*phys.PageSize, page)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := phys.Addr(i%storePages) * phys.PageSize
		dst := phys.Addr((i*7+1)%storePages) * phys.PageSize
		s.Read(src, page)
		s.Write(dst, page)
	}
}
