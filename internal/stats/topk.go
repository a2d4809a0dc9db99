package stats

// TopK keeps the k best values offered to it under a strict total
// order: before(a, b) reports that a ranks ahead of b. It holds them in
// a heap whose root is the worst of the k, so n offers cost
// O(n log k) and nothing is kept beyond the k.
type TopK[T any] struct {
	k      int
	before func(a, b T) bool
	h      []T
}

// NewTopK returns an empty selection of at most k values.
func NewTopK[T any](k int, before func(a, b T) bool) *TopK[T] {
	return &TopK[T]{k: k, before: before, h: make([]T, 0, max(k, 0))}
}

// Offer considers x for the selection.
func (t *TopK[T]) Offer(x T) {
	switch {
	case len(t.h) < t.k:
		t.h = append(t.h, x)
		t.siftUp(len(t.h) - 1)
	case t.k > 0 && t.before(x, t.h[0]):
		t.h[0] = x
		t.siftDown(t.h, 0)
	}
}

// Sorted returns the selection best first: it heap-sorts the heap in
// place, sending the worst to the back, so the TopK must not be
// offered more values afterwards. The slice is never nil, and its
// capacity is at most k.
func (t *TopK[T]) Sorted() []T {
	h := t.h
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		t.siftDown(h[:end], 0)
	}
	return h
}

func (t *TopK[T]) siftUp(i int) {
	h := t.h
	for i > 0 {
		parent := (i - 1) / 2
		if !t.before(h[parent], h[i]) {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func (t *TopK[T]) siftDown(h []T, i int) {
	for {
		worst := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(h) && t.before(h[worst], h[c]) {
				worst = c
			}
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}
