//! Indexed scoring kernel: term-at-a-time scoring against a pre-expanded
//! user model.
//!
//! The sweep scores every test document against the *same* user model, so
//! a per-pair sorted merge would repay O(nnz(model)) work per document
//! that depends only on the model. [`ScoringKernel`]
//! hoists that work to expansion time — a dense weight accumulator over
//! the model's dimensions, its Euclidean norm, and its positive support
//! size — and then scores each document in O(nnz(doc)) lookups for cosine
//! and Jaccard. [`ScoringKernel::rebuild`] re-expands a kernel in place in
//! O(nnz(old model) + nnz(new model)), which is how the sweep and the
//! serving engine both expand a model.
//!
//! Generalized Jaccard is the exception: its denominator `Σ max(w_a, w_b)`
//! ranges over the *union* of dimensions and is accumulated in f64 in
//! sorted dimension order; decomposing it into a model-only prefix plus
//! document-driven updates would re-associate that sum and change the
//! rounding of the final bits. Since determinism is non-negotiable, GJS
//! keeps a two-pointer merge — but over model weights pre-clamped to
//! `max(w, 0)` and pre-widened to f64 once, rather than per pair.
//!
//! Every path reproduces the sorted-merge definition bit-for-bit: the
//! property tests below compare it with the merge-join similarities kept
//! as a test reference in `reference.rs`.

use pmr_text::vocab::TermId;

use crate::similarity::BagSimilarity;
use crate::vector::SparseVector;

/// A user model pre-expanded for repeated scoring under one similarity.
///
/// One kernel can be re-expanded in place ([`ScoringKernel::rebuild`]) for
/// model after model, so a serving worker keeps a single kernel and its
/// buffers instead of allocating a dense array per query.
#[derive(Debug, Clone)]
pub struct ScoringKernel {
    similarity: BagSimilarity,
    /// Model weight per dimension (cosine + Jaccard). A zero means
    /// "absent": sparse vectors never store zero weights, so the encoding is
    /// unambiguous. The array only grows: slots past the current model's
    /// largest dimension were zeroed by the rebuild that left them, and
    /// read 0.0 like the ones past its end.
    dense: Vec<f32>,
    /// The dimensions the current model wrote into `dense`: exactly the
    /// slots the next rebuild zeroes.
    written: Vec<TermId>,
    /// The model's Euclidean norm, computed once (cosine).
    norm: f32,
    /// Number of model dimensions with weight > 0 (Jaccard).
    positive_support: usize,
    /// Model entries with weights clamped to `max(w, 0)` and widened to
    /// f64, in dimension order (generalized Jaccard).
    clamped: Vec<(TermId, f64)>,
}

impl Default for ScoringKernel {
    /// A kernel over the empty model: every document scores 0.0 until a
    /// [`ScoringKernel::rebuild`] expands a real one.
    fn default() -> ScoringKernel {
        ScoringKernel {
            similarity: BagSimilarity::Cosine,
            dense: Vec::new(),
            written: Vec::new(),
            norm: 0.0,
            positive_support: 0,
            clamped: Vec::new(),
        }
    }
}

impl ScoringKernel {
    /// Pre-expand `model` for scoring under `similarity`.
    pub fn new(similarity: BagSimilarity, model: &SparseVector) -> ScoringKernel {
        let mut kernel = ScoringKernel::default();
        kernel.rebuild(similarity, model);
        kernel
    }

    /// Re-expand this kernel for `model` under `similarity`, reusing its
    /// buffers: only the previous model's dimensions are zeroed, only the
    /// new model's entries are written, and `dense` grows only when the
    /// model reaches a larger dimension. Scores afterwards are bit-identical
    /// to a fresh [`ScoringKernel::new`]'s.
    pub fn rebuild(&mut self, similarity: BagSimilarity, model: &SparseVector) {
        for &d in &self.written {
            self.dense[d as usize] = 0.0;
        }
        self.written.clear();
        self.clamped.clear();
        let entries = model.entries();
        match similarity {
            BagSimilarity::Cosine | BagSimilarity::Jaccard => {
                let size = entries.last().map_or(0, |&(d, _)| d as usize + 1);
                if self.dense.len() < size {
                    self.dense.resize(size, 0.0);
                }
                for &(d, w) in entries {
                    self.dense[d as usize] = w;
                }
                self.written.extend(entries.iter().map(|&(d, _)| d));
            }
            BagSimilarity::GeneralizedJaccard => {
                self.clamped.extend(entries.iter().map(|&(d, w)| (d, w.max(0.0) as f64)));
            }
        }
        self.similarity = similarity;
        self.norm = model.norm();
        self.positive_support = entries.iter().filter(|&&(_, w)| w > 0.0).count();
    }

    /// The similarity this kernel scores under.
    pub fn similarity(&self) -> BagSimilarity {
        self.similarity
    }

    /// The model's Euclidean norm (cached at expansion).
    pub fn norm(&self) -> f32 {
        self.norm
    }

    /// Number of model dimensions with positive weight.
    pub fn positive_support(&self) -> usize {
        self.positive_support
    }

    /// Score a document against the pre-expanded model under
    /// [`ScoringKernel::similarity`]. Bit-identical to the merge-join test
    /// reference.
    pub fn score(&self, doc: &SparseVector) -> f64 {
        match self.similarity {
            BagSimilarity::Cosine => self.score_cosine(doc),
            BagSimilarity::Jaccard => self.score_jaccard(doc),
            BagSimilarity::GeneralizedJaccard => self.score_gjs(doc),
        }
    }

    /// Cosine via dense lookups: the merge-join dot product visits the
    /// common dimensions in sorted order; so does this loop, because doc
    /// entries are sorted and absent model dimensions read 0.0 and are
    /// skipped — identical f32 accumulation order, identical bits.
    fn score_cosine(&self, doc: &SparseVector) -> f64 {
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
    fn score_jaccard(&self, doc: &SparseVector) -> f64 {
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
    fn score_gjs(&self, doc: &SparseVector) -> f64 {
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

    const ALL: [BagSimilarity; 3] =
        [BagSimilarity::Cosine, BagSimilarity::Jaccard, BagSimilarity::GeneralizedJaccard];

    /// One rebuild step: a similarity, a model whose largest dimension
    /// varies from step to step (a quarter of the models are empty), and
    /// docs whose dimensions reach past it.
    fn arb_step() -> impl Strategy<Value = (BagSimilarity, SparseVector, Vec<SparseVector>)> {
        (
            0usize..3,
            1u32..200,
            0u8..4,
            proptest::collection::vec((0u32..200, -5.0f32..5.0), 0..30),
            proptest::collection::vec(
                proptest::collection::vec((0u32..250, -5.0f32..5.0), 0..20),
                0..6,
            ),
        )
            .prop_map(|(sim, ceiling, empty, pairs, docs)| {
                let model = if empty == 0 {
                    Vec::new()
                } else {
                    pairs.into_iter().map(|(d, w)| (d % ceiling, w)).collect()
                };
                (
                    ALL[sim],
                    SparseVector::from_pairs(model),
                    docs.into_iter().map(SparseVector::from_pairs).collect(),
                )
            })
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

        #[test]
        fn rebuilt_kernel_scores_like_a_fresh_one(steps in proptest::collection::vec(arb_step(), 1..10)) {
            // One kernel re-expanded over a sequence of models — the largest
            // dimension growing and shrinking, empty models, negative
            // Rocchio weights, the similarity changing between rebuilds —
            // must score exactly as a kernel built for each model alone.
            let mut kernel = ScoringKernel::default();
            for (sim, model, docs) in &steps {
                kernel.rebuild(*sim, model);
                let fresh = ScoringKernel::new(*sim, model);
                prop_assert_eq!(kernel.similarity(), *sim);
                prop_assert_eq!(kernel.norm().to_bits(), model.norm().to_bits());
                prop_assert_eq!(kernel.positive_support(), fresh.positive_support());
                for doc in docs {
                    let got = kernel.score(doc).to_bits();
                    prop_assert_eq!(got, fresh.score(doc).to_bits(), "{} after a rebuild", sim.name());
                    prop_assert_eq!(got, sim.compare(model, doc).to_bits(), "{} vs the merge-join", sim.name());
                }
            }
        }
    }
}
