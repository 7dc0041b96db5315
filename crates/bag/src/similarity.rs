//! Similarity measures between bag models (§3.2).
//!
//! * **CS** — cosine similarity;
//! * **JS** — set Jaccard over the supports (weights > 0 mean presence);
//!   the paper applies it only to BF-weighted vectors;
//! * **GJS** — generalized Jaccard `Σ min(w_a, w_b) / Σ max(w_a, w_b)`;
//!   applied only to TF/TF-IDF vectors. For BF weights GJS reduces to JS.
//!   Negative weights (possible under Rocchio, which the paper never pairs
//!   with GJS) are clamped to zero.
//!
//! [`crate::kernel::ScoringKernel`] computes all three.

use serde::{Deserialize, Serialize};

/// The three bag similarity measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BagSimilarity {
    /// Cosine similarity.
    Cosine,
    /// Set Jaccard over supports.
    Jaccard,
    /// Weighted (generalized) Jaccard.
    GeneralizedJaccard,
}

impl BagSimilarity {
    /// Short name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            BagSimilarity::Cosine => "CS",
            BagSimilarity::Jaccard => "JS",
            BagSimilarity::GeneralizedJaccard => "GJS",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::ScoringKernel;
    use crate::vector::SparseVector;

    pub(super) const ALL: [BagSimilarity; 3] =
        [BagSimilarity::Cosine, BagSimilarity::Jaccard, BagSimilarity::GeneralizedJaccard];

    fn v(pairs: &[(u32, f32)]) -> SparseVector {
        SparseVector::from_pairs(pairs.to_vec())
    }

    /// `similarity` of `a` and `b` on the production path: a kernel
    /// expanded from `a` scores `b`.
    pub(super) fn score(similarity: BagSimilarity, a: &SparseVector, b: &SparseVector) -> f64 {
        ScoringKernel::new(similarity, a).score(b)
    }

    #[test]
    fn cosine_identical_is_one() {
        let a = v(&[(0, 1.0), (1, 2.0)]);
        assert!((score(BagSimilarity::Cosine, &a, &a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_orthogonal_is_zero() {
        assert_eq!(score(BagSimilarity::Cosine, &v(&[(0, 1.0)]), &v(&[(1, 1.0)])), 0.0);
        assert_eq!(score(BagSimilarity::Cosine, &v(&[]), &v(&[(1, 1.0)])), 0.0);
    }

    #[test]
    fn jaccard_counts_supports() {
        let a = v(&[(0, 1.0), (1, 1.0), (2, 1.0)]);
        let b = v(&[(1, 1.0), (2, 1.0), (3, 1.0)]);
        assert!((score(BagSimilarity::Jaccard, &a, &b) - 0.5).abs() < 1e-9); // 2 / 4
    }

    #[test]
    fn jaccard_ignores_negative_weights() {
        let a = v(&[(0, 1.0), (1, -1.0)]);
        let b = v(&[(0, 1.0), (1, 1.0)]);
        // Dim 1 is "absent" in a (weight ≤ 0), so intersection = {0},
        // union = {0, 1}.
        assert!((score(BagSimilarity::Jaccard, &a, &b) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn gjs_equals_js_for_binary_weights() {
        let a = v(&[(0, 1.0), (1, 1.0), (2, 1.0)]);
        let b = v(&[(1, 1.0), (2, 1.0), (3, 1.0)]);
        let gjs = score(BagSimilarity::GeneralizedJaccard, &a, &b);
        assert!((gjs - score(BagSimilarity::Jaccard, &a, &b)).abs() < 1e-9);
    }

    #[test]
    fn gjs_weighs_magnitudes() {
        let a = v(&[(0, 2.0)]);
        let b = v(&[(0, 1.0)]);
        assert!((score(BagSimilarity::GeneralizedJaccard, &a, &b) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_vectors_yield_zero_everywhere() {
        let e = v(&[]);
        for s in ALL {
            assert_eq!(score(s, &e, &e), 0.0);
        }
    }

    #[test]
    fn names_match_the_paper() {
        assert_eq!(BagSimilarity::Cosine.name(), "CS");
        assert_eq!(BagSimilarity::Jaccard.name(), "JS");
        assert_eq!(BagSimilarity::GeneralizedJaccard.name(), "GJS");
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{score, ALL};
    use crate::vector::SparseVector;
    use proptest::prelude::*;

    fn arb_vec() -> impl Strategy<Value = SparseVector> {
        proptest::collection::vec((0u32..30, 0.01f32..5.0), 0..20)
            .prop_map(SparseVector::from_pairs)
    }

    proptest! {
        #[test]
        fn similarities_are_symmetric(a in arb_vec(), b in arb_vec()) {
            for s in ALL {
                prop_assert!((score(s, &a, &b) - score(s, &b, &a)).abs() < 1e-6);
            }
        }

        #[test]
        fn similarities_are_bounded(a in arb_vec(), b in arb_vec()) {
            for s in ALL {
                let x = score(s, &a, &b);
                prop_assert!((-1e-6..=1.0 + 1e-6).contains(&x), "{x}");
            }
        }

        #[test]
        fn self_similarity_is_maximal(a in arb_vec()) {
            prop_assume!(!a.is_empty());
            for s in ALL {
                prop_assert!((score(s, &a, &a) - 1.0).abs() < 1e-5);
            }
        }
    }
}
