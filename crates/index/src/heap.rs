//! Distance-ordered heaps used by beam search (the paper's "search set"
//! and "result set", §2.1).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A `(distance, id)` pair with total ordering (ties broken by id, so all
/// searches are deterministic).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Distance to the query (smaller is closer).
    pub dist: f32,
    /// Vector identifier.
    pub id: usize,
}

impl Neighbor {
    /// Create a neighbor record.
    pub fn new(dist: f32, id: usize) -> Self {
        Neighbor { dist, id }
    }
}

impl Eq for Neighbor {}

impl Ord for Neighbor {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist
            .partial_cmp(&other.dist)
            .unwrap_or(Ordering::Equal)
            .then(self.id.cmp(&other.id))
    }
}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Min-heap by distance: the paper's unbounded *search set* of candidates
/// to expand.
#[derive(Debug, Clone, Default)]
pub struct MinDistHeap {
    heap: BinaryHeap<std::cmp::Reverse<Neighbor>>,
}

impl MinDistHeap {
    /// Create an empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a candidate.
    pub fn push(&mut self, n: Neighbor) {
        self.heap.push(std::cmp::Reverse(n));
    }

    /// Remove and return the closest candidate.
    pub fn pop(&mut self) -> Option<Neighbor> {
        self.heap.pop().map(|r| r.0)
    }

    /// The closest candidate without removing it.
    pub fn peek(&self) -> Option<Neighbor> {
        self.heap.peek().map(|r| r.0)
    }

    /// Number of queued candidates.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Remove all candidates, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

/// Bounded max-heap by distance: the paper's *result set* of the k′ (ef)
/// nearest vectors visited so far.
#[derive(Debug, Clone)]
pub struct MaxDistHeap {
    heap: BinaryHeap<Neighbor>,
    capacity: usize,
}

impl MaxDistHeap {
    /// Create a heap keeping at most `capacity` nearest entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        MaxDistHeap {
            heap: BinaryHeap::with_capacity(capacity + 1),
            capacity,
        }
    }

    /// Insert if closer than the current worst (or the heap is not full).
    /// Returns `true` if inserted.
    pub fn push(&mut self, n: Neighbor) -> bool {
        if self.heap.len() < self.capacity {
            self.heap.push(n);
            true
        } else if let Some(&worst) = self.heap.peek() {
            if n < worst {
                self.heap.pop();
                self.heap.push(n);
                true
            } else {
                false
            }
        } else {
            false
        }
    }

    /// Current worst (largest) kept distance — the early-termination
    /// threshold. `f32::INFINITY` while not yet full.
    pub fn threshold(&self) -> f32 {
        if self.heap.len() < self.capacity {
            f32::INFINITY
        } else {
            self.heap.peek().map_or(f32::INFINITY, |n| n.dist)
        }
    }

    /// Number of kept entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no entries are kept.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drain into a closest-first sorted vector.
    pub fn into_sorted(self) -> Vec<Neighbor> {
        let mut v = self.heap.into_vec();
        v.sort();
        v
    }

    /// Empty the heap and rebound it to `capacity`, keeping the backing
    /// allocation (scratch reuse across searches).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn reset(&mut self, capacity: usize) {
        assert!(capacity > 0, "capacity must be positive");
        self.heap.clear();
        self.capacity = capacity;
    }

    /// Drain all kept entries into `out` (cleared first), closest first,
    /// leaving the heap empty but its allocation intact.
    pub fn drain_sorted_into(&mut self, out: &mut Vec<Neighbor>) {
        out.clear();
        out.extend(self.heap.drain());
        out.sort();
    }

    /// Iterate over kept entries in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = &Neighbor> {
        self.heap.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_heap_pops_closest_first() {
        let mut h = MinDistHeap::new();
        h.push(Neighbor::new(3.0, 1));
        h.push(Neighbor::new(1.0, 2));
        h.push(Neighbor::new(2.0, 3));
        assert_eq!(h.pop().map(|n| n.id), Some(2));
        assert_eq!(h.pop().map(|n| n.id), Some(3));
        assert_eq!(h.pop().map(|n| n.id), Some(1));
        assert!(h.pop().is_none());
    }

    #[test]
    fn max_heap_keeps_k_nearest() {
        let mut h = MaxDistHeap::new(2);
        assert!(h.push(Neighbor::new(5.0, 1)));
        assert!(h.push(Neighbor::new(3.0, 2)));
        assert!(h.push(Neighbor::new(1.0, 3))); // evicts 5.0
        assert!(!h.push(Neighbor::new(9.0, 4))); // too far
        let sorted = h.into_sorted();
        assert_eq!(sorted.iter().map(|n| n.id).collect::<Vec<_>>(), vec![3, 2]);
    }

    #[test]
    fn threshold_is_infinite_until_full() {
        let mut h = MaxDistHeap::new(2);
        assert_eq!(h.threshold(), f32::INFINITY);
        h.push(Neighbor::new(1.0, 0));
        assert_eq!(h.threshold(), f32::INFINITY);
        h.push(Neighbor::new(2.0, 1));
        assert_eq!(h.threshold(), 2.0);
    }

    #[test]
    fn deterministic_tie_breaking() {
        let mut h = MinDistHeap::new();
        h.push(Neighbor::new(1.0, 9));
        h.push(Neighbor::new(1.0, 3));
        assert_eq!(h.pop().map(|n| n.id), Some(3));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        MaxDistHeap::new(0);
    }
}
