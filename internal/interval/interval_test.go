package interval

import (
	"testing"
	"testing/quick"
)

func mustRegion(t *testing.T, s, e int64) Region {
	t.Helper()
	r, err := NewRegion(s, e)
	if err != nil {
		t.Fatalf("NewRegion(%d,%d): %v", s, e, err)
	}
	return r
}

func TestNewRegionValidation(t *testing.T) {
	if _, err := NewRegion(5, 4); err == nil {
		t.Fatal("NewRegion(5,4) should fail")
	}
	r := mustRegion(t, 3, 3)
	if !r.Valid() || r.Length() != 1 {
		t.Fatalf("point region: valid=%v length=%d", r.Valid(), r.Length())
	}
	if got := mustRegion(t, 2, 9).Length(); got != 8 {
		t.Fatalf("Length [2,9] = %d, want 8", got)
	}
}

func TestContainsAndOverlaps(t *testing.T) {
	cases := []struct {
		a, b               Region
		contains, overlaps bool
	}{
		{Region{0, 10}, Region{2, 5}, true, true},
		{Region{0, 10}, Region{0, 10}, true, true},
		{Region{0, 10}, Region{0, 11}, false, true},
		{Region{0, 10}, Region{10, 20}, false, true}, // touching endpoints overlap (closed)
		{Region{0, 10}, Region{11, 20}, false, false},
		{Region{5, 9}, Region{1, 4}, false, false},
		{Region{5, 9}, Region{1, 5}, false, true},
		{Region{3, 3}, Region{3, 3}, true, true},
	}
	for _, c := range cases {
		if got := c.a.Contains(c.b); got != c.contains {
			t.Errorf("%s.Contains(%s) = %v, want %v", c.a, c.b, got, c.contains)
		}
		if got := c.a.Overlaps(c.b); got != c.overlaps {
			t.Errorf("%s.Overlaps(%s) = %v, want %v", c.a, c.b, got, c.overlaps)
		}
	}
}

func TestOverlapsIsSymmetric(t *testing.T) {
	f := func(a0, a1, b0, b1 int16) bool {
		a := normRegion(int64(a0), int64(a1))
		b := normRegion(int64(b0), int64(b1))
		return a.Overlaps(b) == b.Overlaps(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestContainsImpliesOverlaps(t *testing.T) {
	f := func(a0, a1, b0, b1 int16) bool {
		a := normRegion(int64(a0), int64(a1))
		b := normRegion(int64(b0), int64(b1))
		if a.Contains(b) {
			return a.Overlaps(b)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompareOrdering(t *testing.T) {
	if Compare(Region{1, 5}, Region{2, 3}) != -1 ||
		Compare(Region{2, 3}, Region{1, 5}) != 1 ||
		Compare(Region{1, 3}, Region{1, 5}) != -1 ||
		Compare(Region{1, 5}, Region{1, 5}) != 0 {
		t.Fatal("Compare ordering broken")
	}
}

func normRegion(a, b int64) Region {
	if a > b {
		a, b = b, a
	}
	return Region{Start: a, End: b}
}
