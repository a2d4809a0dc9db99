package stats

import (
	"reflect"
	"sort"
	"testing"
)

// TestTopKMatchesSort pins the heap selection to a full sort and a
// cut, on values full of ties broken by a second key, for every k
// from 0 to past the number offered.
func TestTopKMatchesSort(t *testing.T) {
	type item struct{ score, id int }
	before := func(a, b item) bool {
		if a.score != b.score {
			return a.score > b.score
		}
		return a.id < b.id
	}
	rng := NewRNG(11)
	var items []item
	for i := 0; i < 80; i++ {
		items = append(items, item{score: rng.Intn(5), id: (i * 37) % 80})
	}
	all := append([]item(nil), items...)
	sort.Slice(all, func(i, j int) bool { return before(all[i], all[j]) })
	for k := 0; k <= len(items)+2; k++ {
		top := NewTopK(k, before)
		for _, it := range items {
			top.Offer(it)
		}
		got := top.Sorted()
		want := all[:min(k, len(all))]
		if got == nil || cap(got) > k || !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: %v (cap %d), want %v", k, got, cap(got), want)
		}
	}
}
