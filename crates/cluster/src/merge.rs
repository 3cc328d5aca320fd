//! Deterministic partial top-k merge for scatter-gather results.
//!
//! [`Neighbor`]'s total order (distance, then id) makes the k smallest
//! elements of any candidate multiset with distinct ids a *unique* set,
//! so the merge is independent of shard arrival order and host thread
//! count — the property the cluster proptest pins down against a single
//! sorted merge of all candidates.

use ansmet_index::{MaxDistHeap, Neighbor};

/// Merge per-shard partial top-k lists into the global top-k, closest
/// first, ties broken by id. Insertion-order independent: shards hold
/// disjoint id sets, so the (distance, id) order is strict.
pub fn merge_partials(k: usize, partials: &[Vec<Neighbor>]) -> Vec<Neighbor> {
    let mut heap = MaxDistHeap::new(k.max(1));
    for partial in partials {
        for &n in partial {
            heap.push(n);
        }
    }
    heap.into_sorted()
}

/// Incremental global top-k accumulator: the router streams candidate
/// distances in as shard hops complete, and reads back the current kth
/// distance to tighten still-running shards' ET thresholds.
#[derive(Debug, Clone)]
pub struct GlobalTopK {
    heap: MaxDistHeap,
}

impl GlobalTopK {
    /// An empty accumulator keeping the `k` closest candidates.
    pub fn new(k: usize) -> Self {
        GlobalTopK {
            heap: MaxDistHeap::new(k.max(1)),
        }
    }

    /// Offer one candidate (true distance, global id).
    pub fn offer(&mut self, n: Neighbor) {
        self.heap.push(n);
    }

    /// The current kth distance, or `f32::INFINITY` until k candidates
    /// have been offered.
    pub fn kth(&self) -> f32 {
        self.heap.threshold()
    }

    /// A *strictly safe* ET bound: the next representable `f32` above
    /// the current kth distance (∞ until the heap is full). A candidate
    /// whose true distance ties the final kth (and could win the id
    /// tie-break) stays strictly below this bound, so the ANSMET engine
    /// can never prune it. Inner-product distances are negative, so this
    /// must step toward +∞ from either sign.
    pub fn safe_bound(&self) -> f32 {
        self.kth().next_up()
    }

    /// Candidates currently held (≤ k).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no candidate has been offered yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(d: f32, id: usize) -> Neighbor {
        Neighbor::new(d, id)
    }

    #[test]
    fn merge_equals_single_sorted_merge() {
        let partials = vec![
            vec![n(3.0, 5), n(1.0, 2)],
            vec![n(2.0, 9), n(1.0, 1), n(4.0, 0)],
            vec![],
        ];
        let merged = merge_partials(3, &partials);
        let mut all: Vec<Neighbor> = partials.concat();
        all.sort();
        assert_eq!(merged, all[..3].to_vec());
        // Duplicate-distance tie-break: id 1 beats id 2 at dist 1.0.
        assert_eq!(merged[0], n(1.0, 1));
        assert_eq!(merged[1], n(1.0, 2));
    }

    #[test]
    fn merge_is_order_independent() {
        let a = vec![vec![n(1.0, 1), n(5.0, 5)], vec![n(1.0, 2), n(3.0, 3)]];
        let b = vec![a[1].clone(), a[0].clone()];
        assert_eq!(merge_partials(3, &a), merge_partials(3, &b));
    }

    #[test]
    fn global_topk_bound_tightens() {
        let mut g = GlobalTopK::new(2);
        assert_eq!(g.kth(), f32::INFINITY);
        assert_eq!(g.safe_bound(), f32::INFINITY);
        g.offer(n(4.0, 1));
        assert!(g.kth().is_infinite(), "not full yet");
        g.offer(n(2.0, 2));
        assert_eq!(g.kth(), 4.0);
        assert!(g.safe_bound() > 4.0);
        g.offer(n(1.0, 3));
        assert_eq!(g.kth(), 2.0);
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn safe_bound_is_strictly_above_kth() {
        for x in [0.0f32, -0.0, 1.0, 137.25, 1e30, -1e-30, -0.75, -137.25] {
            let mut g = GlobalTopK::new(1);
            g.offer(n(x, 0));
            assert!(g.safe_bound() > x, "{x}");
        }
        // A non-negative distance steps exactly one bit up.
        let mut g = GlobalTopK::new(1);
        g.offer(n(137.25, 0));
        assert_eq!(g.safe_bound().to_bits(), 137.25f32.to_bits() + 1);
        assert_eq!(GlobalTopK::new(1).safe_bound(), f32::INFINITY);
    }
}
