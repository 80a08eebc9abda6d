package symtab

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func TestInternStableAndDense(t *testing.T) {
	a := Intern("symtab-test-A")
	b := Intern("symtab-test-B")
	if a == None || b == None {
		t.Fatalf("Intern returned None: %d %d", a, b)
	}
	if a == b {
		t.Fatalf("distinct labels share a symbol: %d", a)
	}
	if got := Intern("symtab-test-A"); got != a {
		t.Fatalf("re-Intern = %d, want %d", got, a)
	}
	if got := Name(a); got != "symtab-test-A" {
		t.Fatalf("Name(%d) = %q", a, got)
	}
}

func TestSymOfDoesNotAllocate(t *testing.T) {
	if s, ok := SymOf("symtab-test-never-interned"); ok {
		t.Fatalf("SymOf on fresh label = %d, true", s)
	}
	before := Len()
	SymOf("symtab-test-never-interned-2")
	if Len() != before {
		t.Fatal("SymOf grew the table")
	}
}

func TestEmptyStringIsNotNone(t *testing.T) {
	if s := Intern(""); s == None {
		t.Fatal("empty label interned as None")
	}
}

func TestNameUnknown(t *testing.T) {
	if got := Name(None); got != "" {
		t.Fatalf("Name(None) = %q", got)
	}
	if got := Name(Sym(1 << 30)); got != "" {
		t.Fatalf("Name(out of range) = %q", got)
	}
}

func TestConcurrentIntern(t *testing.T) {
	const workers = 8
	var wg sync.WaitGroup
	results := make([][]Sym, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]Sym, 64)
			for i := range out {
				out[i] = Intern(fmt.Sprintf("symtab-conc-%d", i))
			}
			results[w] = out
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range results[w] {
			if results[w][i] != results[0][i] {
				t.Fatalf("worker %d disagrees at %d: %d vs %d", w, i, results[w][i], results[0][i])
			}
		}
	}
}

// TestInternDoesNotPinSource: the table keeps its own copy of a fresh label,
// so a label sliced out of a large text (a request's init literal) does not
// keep that text alive for the life of the process.
func TestInternDoesNotPinSource(t *testing.T) {
	src := strings.Repeat("x", 16<<10) + "symtab-test-pinned"
	label := src[16<<10:]
	name := Name(Intern(label))
	lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	if p := uintptr(unsafe.Pointer(unsafe.StringData(name))); name != label || p >= lo && p < lo+uintptr(len(src)) {
		t.Errorf("interned %q points into its 16-kB source", name)
	}
}
