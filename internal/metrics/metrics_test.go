package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestTableRendering(t *testing.T) {
	tbl := NewTable("demo", "name", "value", "time")
	tbl.Row("alpha", 42, 1500*time.Microsecond)
	tbl.Row("a-much-longer-name", 3.14159, 2*time.Second)
	s := tbl.String()
	for _, want := range []string{"== demo ==", "name", "-----", "alpha", "1.50ms", "2.00s", "3.14", "a-much-longer-name"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Errorf("line count = %d:\n%s", len(lines), s)
	}
	// Columns align: header and rows have the same prefix width for col 2.
	hdr := lines[1]
	row := lines[3]
	if strings.Index(hdr, "value") != strings.Index(row, "42") {
		t.Errorf("columns misaligned:\n%s", s)
	}
	// Untitled table has no title line.
	if s2 := NewTable("", "a").String(); strings.Contains(s2, "==") {
		t.Errorf("untitled table rendered a title:\n%s", s2)
	}
}

func TestFormatDuration(t *testing.T) {
	cases := map[time.Duration]string{
		2 * time.Second:         "2.00s",
		1500 * time.Millisecond: "1.50s",
		3 * time.Millisecond:    "3.00ms",
		250 * time.Microsecond:  "250.00µs",
		480 * time.Nanosecond:   "480ns",
	}
	for d, want := range cases {
		if got := FormatDuration(d); got != want {
			t.Errorf("FormatDuration(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestTimeAndTimeN(t *testing.T) {
	d := Time(func() { time.Sleep(2 * time.Millisecond) })
	if d < 2*time.Millisecond {
		t.Errorf("Time too short: %v", d)
	}
	n := 0
	best := TimeN(3, func() { n++ })
	if n != 3 || best < 0 {
		t.Errorf("TimeN ran %d times, best %v", n, best)
	}
}
