package platform

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewCopies(t *testing.T) {
	ss := []float64{1, 2}
	pl := New(ss...)
	ss[0] = 9
	if pl.Speeds[0] != 1 {
		t.Fatal("New aliases caller slice")
	}
}

func TestHomogeneous(t *testing.T) {
	pl := Homogeneous(3, 2)
	if pl.Processors() != 3 || pl.TotalSpeed() != 6 {
		t.Fatalf("bad homogeneous platform: %+v", pl)
	}
	if !pl.IsHomogeneous() {
		t.Fatal("Homogeneous not homogeneous")
	}
	if New(1, 2).IsHomogeneous() {
		t.Fatal("1,2 reported homogeneous")
	}
}

func TestValidate(t *testing.T) {
	if err := New(1, 2).Validate(); err != nil {
		t.Errorf("valid platform rejected: %v", err)
	}
	if err := New().Validate(); err == nil {
		t.Error("empty platform accepted")
	}
	if err := New(1, 0).Validate(); err == nil {
		t.Error("zero speed accepted")
	}
}

func TestMinMaxFastest(t *testing.T) {
	pl := New(2, 5, 1, 5)
	if pl.SubsetMinSpeed([]int{0, 1, 2, 3}) != 1 || pl.MaxSpeed() != 5 {
		t.Fatal("min/max wrong")
	}
	if got := pl.Fastest(); got != 1 { // first of the two fastest
		t.Fatalf("Fastest = %d", got)
	}
}

func TestSubsetAggregates(t *testing.T) {
	pl := New(2, 5, 1, 4)
	if pl.SubsetMinSpeed([]int{0, 1, 3}) != 2 {
		t.Error("SubsetMinSpeed wrong")
	}
	if pl.SubsetSpeedSum([]int{0, 2}) != 3 {
		t.Error("SubsetSpeedSum wrong")
	}
}

func TestSortedBySpeed(t *testing.T) {
	pl := New(3, 1, 2, 1)
	got := pl.SortedBySpeed()
	want := []int{1, 3, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortedBySpeed = %v, want %v", got, want)
		}
	}
}

func TestSortedBySpeedIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pl := Random(rng, 1+rng.Intn(10), 9)
		idx := pl.SortedBySpeed()
		seen := make(map[int]bool)
		prev := 0.0
		for i, q := range idx {
			if seen[q] {
				return false
			}
			seen[q] = true
			if i > 0 && pl.Speeds[q] < prev {
				return false
			}
			prev = pl.Speeds[q]
		}
		return len(seen) == pl.Processors()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandomBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		pl := Random(rng, 5, 8)
		if pl.Processors() != 5 {
			t.Fatal("wrong processor count")
		}
		for _, s := range pl.Speeds {
			if s < 1 || s > 8 || s != float64(int(s)) {
				t.Fatalf("speed out of range: %v", s)
			}
		}
		if err := pl.Validate(); err != nil {
			t.Fatalf("random platform invalid: %v", err)
		}
	}
}

func TestDistinctSpeeds(t *testing.T) {
	pl := New(3, 1, 4, 1, 5, 3, 1+1e-12)
	got := pl.DistinctSpeeds()
	want := []float64{1, 1 + 1e-12, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("DistinctSpeeds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DistinctSpeeds = %v, want %v", got, want)
		}
	}
	if pl.Speeds[0] != 3 || pl.Speeds[6] != 1+1e-12 {
		t.Fatalf("DistinctSpeeds changed the platform: %v", pl.Speeds)
	}
}
