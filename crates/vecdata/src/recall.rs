//! Recall computation (the paper's accuracy measure, recall@k).

/// recall@k for one query: fraction of the exact `truth` ids present in
/// the approximate `result` ids (both truncated to `k`).
///
/// # Panics
///
/// Panics if `k` is zero.
pub fn recall_at_k(result: &[usize], truth: &[usize], k: usize) -> f64 {
    assert!(k > 0, "k must be positive");
    let k_eff = k.min(truth.len());
    if k_eff == 0 {
        return 1.0;
    }
    let truth_set: std::collections::HashSet<usize> = truth.iter().take(k_eff).copied().collect();
    let hits = result
        .iter()
        .take(k)
        .filter(|id| truth_set.contains(id))
        .count();
    hits as f64 / k_eff as f64
}

/// Mean recall@k over a batch of queries.
pub fn mean_recall_at_k(results: &[Vec<usize>], truths: &[Vec<usize>], k: usize) -> f64 {
    assert_eq!(results.len(), truths.len(), "batch size mismatch");
    if results.is_empty() {
        return 1.0;
    }
    let sum: f64 = results
        .iter()
        .zip(truths)
        .map(|(r, t)| recall_at_k(r, t, k))
        .sum();
    sum / results.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_recall() {
        assert_eq!(recall_at_k(&[1, 2, 3], &[3, 2, 1], 3), 1.0);
    }

    #[test]
    fn partial_recall() {
        assert_eq!(recall_at_k(&[1, 2, 9], &[1, 2, 3], 3), 2.0 / 3.0);
    }

    #[test]
    fn zero_recall() {
        assert_eq!(recall_at_k(&[7, 8, 9], &[1, 2, 3], 3), 0.0);
    }

    #[test]
    fn truncates_result_to_k() {
        // Extra results beyond k must not inflate recall.
        assert_eq!(recall_at_k(&[9, 8, 1], &[1, 2], 2), 0.0);
    }

    #[test]
    fn short_truth_clamps() {
        assert_eq!(recall_at_k(&[1], &[1], 10), 1.0);
    }

    #[test]
    fn short_result_counts_missing_slots_as_misses() {
        // A search that returns fewer than k ids is scored over k.
        assert_eq!(recall_at_k(&[1], &[1, 2, 3, 4], 4), 0.25);
    }

    #[test]
    fn mean_over_batch() {
        let r = vec![vec![1, 2], vec![3, 9]];
        let t = vec![vec![1, 2], vec![3, 4]];
        assert_eq!(mean_recall_at_k(&r, &t, 2), 0.75);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        recall_at_k(&[1], &[1], 0);
    }
}
