// Package spatial is the index manager's overlap index: an unordered list
// of (rectangle, value) pairs. The data store manager keeps one per dataset
// to find cached intermediate results whose regions intersect a new query
// window, and the scheduling graph one to find overlap candidates.
//
// Caches and queues keep the lists short (under a hundred live entries on
// every benchmark workload), so a scan is all a search needs; see DESIGN.md
// §3 "Indexing".
package spatial

import "mqsched/internal/geom"

// Tree maps rectangles to values of type T. Delete matches values with ==.
// The zero Tree is an empty index.
type Tree[T comparable] struct {
	entries []entry[T]
}

type entry[T comparable] struct {
	rect  geom.Rect
	value T
}

// NewTree returns an empty index.
func NewTree[T comparable]() *Tree[T] { return &Tree[T]{} }

// Len returns the number of stored entries.
func (t *Tree[T]) Len() int { return len(t.entries) }

// Insert adds value with bounding rectangle r. Empty rectangles are
// rejected: a cached result always covers at least one pixel.
func (t *Tree[T]) Insert(r geom.Rect, value T) {
	if r.Empty() {
		panic("spatial: Insert with empty rectangle")
	}
	t.entries = append(t.entries, entry[T]{r, value})
}

// Search appends to out every value whose rectangle intersects r, in no
// particular order, and returns the extended slice. Pass nil to allocate.
func (t *Tree[T]) Search(r geom.Rect, out []T) []T {
	for _, e := range t.entries {
		if e.rect.Overlaps(r) {
			out = append(out, e.value)
		}
	}
	return out
}

// Delete removes the entry with exactly rectangle r and value v, reporting
// whether it was found. If duplicates exist, one is removed.
func (t *Tree[T]) Delete(r geom.Rect, v T) bool {
	for i, e := range t.entries {
		if e.value == v && e.rect.Eq(r) {
			last := len(t.entries) - 1
			t.entries[i] = t.entries[last]
			t.entries[last] = entry[T]{} // drop the reference for the GC
			t.entries = t.entries[:last]
			return true
		}
	}
	return false
}
