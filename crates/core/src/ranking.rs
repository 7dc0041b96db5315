//! The repo-wide top-k tie-break contract.
//!
//! Every ranking consumer — the batch evaluator's AP sort and the serving
//! engine's per-query top-k — orders scored items by **score descending,
//! tie key ascending**, with [`f64::total_cmp`] keeping the order total
//! even for (impossible in practice) NaNs. Centralizing the comparator here
//! means sort order and merge order can never drift apart.
//!
//! The tie key is caller-chosen: the serving engine uses the raw tweet id
//! (its public contract — "ties broken by ascending tweet id"), while
//! batch evaluation uses [`crate::eval::tie_break_key`]'s label-independent
//! hash of the id. Both are total orders over distinct keys, which is all
//! the comparator needs.

use std::cmp::Ordering;

/// Compare two scored items under the shared top-k total order: score
/// descending (`total_cmp`), then tie key ascending. `Less` means `a`
/// ranks *before* `b`.
pub fn rank_cmp<K: Ord>(a_score: f64, a_key: &K, b_score: f64, b_key: &K) -> Ordering {
    b_score.total_cmp(&a_score).then_with(|| a_key.cmp(b_key))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_cmp_orders_score_desc_then_key_asc() {
        assert_eq!(rank_cmp(2.0, &5u32, 1.0, &0u32), Ordering::Less);
        assert_eq!(rank_cmp(1.0, &0u32, 2.0, &5u32), Ordering::Greater);
        assert_eq!(rank_cmp(1.0, &3u32, 1.0, &7u32), Ordering::Less);
        assert_eq!(rank_cmp(1.0, &7u32, 1.0, &3u32), Ordering::Greater);
        assert_eq!(rank_cmp(1.0, &7u32, 1.0, &7u32), Ordering::Equal);
    }

    #[test]
    fn rank_cmp_is_total_even_for_nan() {
        // NaN sorts deterministically under total_cmp: positive NaN is
        // greater than every finite score (so it ranks *before* them in
        // descending order), negative NaN below (so it ranks last). Either
        // way an impossible NaN cannot make results scheduling-dependent.
        assert_eq!(rank_cmp(f64::NAN, &0u32, 1.0, &1u32), Ordering::Less);
        assert_eq!(rank_cmp(1.0, &1u32, f64::NAN, &0u32), Ordering::Greater);
        assert_eq!(rank_cmp(-f64::NAN, &0u32, 1.0, &1u32), Ordering::Greater);
        assert_eq!(rank_cmp(f64::NAN, &0u32, f64::NAN, &0u32), Ordering::Equal);
    }
}
