//! Indexed scoring kernel: term-at-a-time scoring against a pre-expanded
//! user model.
//!
//! The sweep scores every test document against the *same* user model, so
//! the per-pair sorted-merge of [`crate::similarity`] repays O(nnz(model))
//! work per document that depends only on the model. [`ScoringKernel`]
//! hoists that work to construction time — a dense weight accumulator over
//! the model's dimensions, its Euclidean norm, and its positive support
//! size — and then scores each document in O(nnz(doc)) lookups for cosine
//! and Jaccard.
//!
//! Generalized Jaccard is the exception: its denominator `Σ max(w_a, w_b)`
//! ranges over the *union* of dimensions and is accumulated in f64 in
//! sorted dimension order; decomposing it into a model-only prefix plus
//! document-driven updates would re-associate that sum and change the
//! rounding of the final bits. Since determinism is non-negotiable, GJS
//! keeps a two-pointer merge — but over model weights pre-clamped to
//! `max(w, 0)` and pre-widened to f64 once, rather than per pair.
//!
//! Every path reproduces [`BagSimilarity::compare`] bit-for-bit (the
//! property tests below assert exactly that); the merge-join remains in
//! [`crate::similarity`] as the reference implementation.

use pmr_text::vocab::TermId;

use crate::similarity::BagSimilarity;
use crate::vector::SparseVector;

/// A user model pre-expanded for repeated scoring under one similarity.
#[derive(Debug, Clone)]
pub struct ScoringKernel {
    similarity: BagSimilarity,
    /// Model weight per dimension, dense up to the model's largest
    /// dimension (cosine + Jaccard). A zero means "absent": sparse vectors
    /// never store zero weights, so the encoding is unambiguous.
    dense: Vec<f32>,
    /// The model's Euclidean norm, computed once (cosine).
    norm: f32,
    /// Number of model dimensions with weight > 0 (Jaccard).
    positive_support: usize,
    /// Model entries with weights clamped to `max(w, 0)` and widened to
    /// f64, in dimension order (generalized Jaccard).
    clamped: Vec<(TermId, f64)>,
}

impl ScoringKernel {
    /// Pre-expand `model` for scoring under `similarity`.
    pub fn new(similarity: BagSimilarity, model: &SparseVector) -> ScoringKernel {
        let entries = model.entries();
        let mut dense = Vec::new();
        let mut clamped = Vec::new();
        match similarity {
            BagSimilarity::Cosine | BagSimilarity::Jaccard => {
                let size = entries.last().map_or(0, |&(d, _)| d as usize + 1);
                dense = vec![0.0f32; size];
                for &(d, w) in entries {
                    dense[d as usize] = w;
                }
            }
            BagSimilarity::GeneralizedJaccard => {
                clamped = entries.iter().map(|&(d, w)| (d, w.max(0.0) as f64)).collect();
            }
        }
        ScoringKernel {
            similarity,
            dense,
            norm: model.norm(),
            positive_support: entries.iter().filter(|&&(_, w)| w > 0.0).count(),
            clamped,
        }
    }

    /// The similarity this kernel scores under.
    pub fn similarity(&self) -> BagSimilarity {
        self.similarity
    }

    /// The model's Euclidean norm (cached at construction).
    pub fn norm(&self) -> f32 {
        self.norm
    }

    /// Number of model dimensions with positive weight.
    pub fn positive_support(&self) -> usize {
        self.positive_support
    }

    /// Score a document against the pre-expanded model. Bit-identical to
    /// `self.similarity().compare(model, doc)`.
    pub fn score(&self, doc: &SparseVector) -> f64 {
        match self.similarity {
            BagSimilarity::Cosine => self.cosine(doc),
            BagSimilarity::Jaccard => self.jaccard(doc),
            BagSimilarity::GeneralizedJaccard => self.generalized_jaccard(doc),
        }
    }

    /// Cosine via dense lookups: the merge-join dot product visits the
    /// common dimensions in sorted order; so does this loop, because doc
    /// entries are sorted and absent model dimensions read 0.0 and are
    /// skipped — identical f32 accumulation order, identical bits.
    fn cosine(&self, doc: &SparseVector) -> f64 {
        let nb = doc.norm();
        if self.norm == 0.0 || nb == 0.0 {
            return 0.0;
        }
        let mut acc = 0.0f32;
        for &(d, wd) in doc.entries() {
            let wm = self.dense.get(d as usize).copied().unwrap_or(0.0);
            if wm != 0.0 {
                acc += wm * wd;
            }
        }
        (acc / (self.norm * nb)) as f64
    }

    /// Set Jaccard from the document side: integer counting only, so the
    /// union size `|model⁺| + |doc⁺| − |model⁺ ∩ doc⁺|` is exact.
    fn jaccard(&self, doc: &SparseVector) -> f64 {
        let mut positive_doc = 0usize;
        let mut intersection = 0usize;
        for &(d, wd) in doc.entries() {
            if wd > 0.0 {
                positive_doc += 1;
                if self.dense.get(d as usize).copied().unwrap_or(0.0) > 0.0 {
                    intersection += 1;
                }
            }
        }
        let union = self.positive_support + positive_doc - intersection;
        if union == 0 {
            0.0
        } else {
            intersection as f64 / union as f64
        }
    }

    /// Generalized Jaccard over the pre-clamped model (see module docs for
    /// why this one keeps the merge).
    fn generalized_jaccard(&self, doc: &SparseVector) -> f64 {
        let a = &self.clamped;
        let b = doc.entries();
        let (mut i, mut j) = (0usize, 0usize);
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        while i < a.len() || j < b.len() {
            match (a.get(i), b.get(j)) {
                (Some(&(da, wa)), Some(&(db, wb))) => match da.cmp(&db) {
                    std::cmp::Ordering::Less => {
                        den += wa;
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        den += wb.max(0.0) as f64;
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        let wb = wb.max(0.0) as f64;
                        num += wa.min(wb);
                        den += wa.max(wb);
                        i += 1;
                        j += 1;
                    }
                },
                (Some(&(_, wa)), None) => {
                    den += wa;
                    i += 1;
                }
                (None, Some(&(_, wb))) => {
                    den += wb.max(0.0) as f64;
                    j += 1;
                }
                (None, None) => unreachable!("loop condition guards this"),
            }
        }
        if den == 0.0 {
            0.0
        } else {
            num / den
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [BagSimilarity; 3] =
        [BagSimilarity::Cosine, BagSimilarity::Jaccard, BagSimilarity::GeneralizedJaccard];

    fn v(pairs: &[(u32, f32)]) -> SparseVector {
        SparseVector::from_pairs(pairs.to_vec())
    }

    fn assert_matches_reference(model: &SparseVector, doc: &SparseVector) {
        for sim in ALL {
            let kernel = ScoringKernel::new(sim, model);
            assert_eq!(
                kernel.score(doc).to_bits(),
                sim.compare(model, doc).to_bits(),
                "{}: kernel must match the merge-join bit-for-bit",
                sim.name()
            );
        }
    }

    #[test]
    fn matches_reference_on_overlapping_vectors() {
        let model = v(&[(0, 0.5), (2, 1.5), (7, 0.25), (9, 2.0)]);
        let doc = v(&[(2, 1.0), (3, 4.0), (9, 0.5), (11, 1.0)]);
        assert_matches_reference(&model, &doc);
    }

    #[test]
    fn matches_reference_with_negative_rocchio_weights() {
        let model = v(&[(0, -0.5), (2, 1.5), (5, -2.0), (9, 2.0)]);
        let doc = v(&[(0, 1.0), (5, 1.0), (9, -0.5)]);
        assert_matches_reference(&model, &doc);
    }

    #[test]
    fn matches_reference_on_empty_vectors() {
        let model = v(&[(1, 1.0)]);
        let empty = v(&[]);
        assert_matches_reference(&model, &empty);
        assert_matches_reference(&empty, &model);
        assert_matches_reference(&empty, &empty);
    }

    #[test]
    fn matches_reference_when_doc_exceeds_model_dimensions() {
        // Doc dimensions beyond the dense table's length take the
        // `.get() → None` path.
        let model = v(&[(0, 1.0), (1, 1.0)]);
        let doc = v(&[(1, 1.0), (500, 3.0)]);
        assert_matches_reference(&model, &doc);
    }

    #[test]
    fn norm_and_support_are_cached() {
        let model = v(&[(0, 3.0), (1, 4.0), (2, -1.0)]);
        let kernel = ScoringKernel::new(BagSimilarity::Cosine, &model);
        assert_eq!(kernel.norm().to_bits(), model.norm().to_bits());
        assert_eq!(kernel.positive_support(), 2);
        assert_eq!(kernel.similarity(), BagSimilarity::Cosine);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Arbitrary sparse vectors including negative (Rocchio-style) weights,
    /// zero-weight collisions and empty vectors.
    fn arb_vec() -> impl Strategy<Value = SparseVector> {
        proptest::collection::vec((0u32..60, -5.0f32..5.0), 0..30)
            .prop_map(SparseVector::from_pairs)
    }

    proptest! {
        #[test]
        fn kernel_equals_merge_join_bit_for_bit(model in arb_vec(), doc in arb_vec()) {
            for sim in [BagSimilarity::Cosine, BagSimilarity::Jaccard, BagSimilarity::GeneralizedJaccard] {
                let kernel = ScoringKernel::new(sim, &model);
                prop_assert_eq!(
                    kernel.score(&doc).to_bits(),
                    sim.compare(&model, &doc).to_bits(),
                    "{} diverged for model={:?} doc={:?}", sim.name(), &model, &doc
                );
            }
        }

        #[test]
        fn kernel_reuse_is_stable_across_docs(model in arb_vec(), docs in proptest::collection::vec(arb_vec(), 0..8)) {
            // One kernel scoring many docs gives the same answers as fresh
            // kernels — nothing about scoring mutates the pre-expansion.
            for sim in [BagSimilarity::Cosine, BagSimilarity::Jaccard, BagSimilarity::GeneralizedJaccard] {
                let kernel = ScoringKernel::new(sim, &model);
                for doc in &docs {
                    let fresh = ScoringKernel::new(sim, &model);
                    prop_assert_eq!(kernel.score(doc).to_bits(), fresh.score(doc).to_bits());
                }
            }
        }
    }
}
