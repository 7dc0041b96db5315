//! Candidate retrieval: impact-ordered inverted index with WAND/max-score
//! pruning, ahead of exact rescoring.
//!
//! The paper scores every candidate in a user's pool exactly; that
//! exhaustive pass is the wall for both the sweep and `pmr-serve`. This
//! module adds the standard production move — a cheap shortlist ahead of
//! exact ranking — while keeping the repo's bit-for-bit discipline:
//!
//! * [`ImpactIndex`] holds one posting list per term over a fixed candidate
//!   pool, each list in document order, with the term's *max impact* (the
//!   largest |weight| it carries in any document) alongside.
//! * [`ImpactIndex::query`] runs document-at-a-time max-score/WAND: query
//!   terms are ordered by their upper bound (|model weight| × max impact),
//!   a shared [`ThresholdHeap`] supplies the pruning threshold, and the
//!   suffix of terms whose summed upper bounds fall strictly below the
//!   threshold stops driving iteration — documents found only in those
//!   lists cannot enter the heap.
//! * The shortlist is then rescored **exactly** by the existing
//!   [`ScoringKernel`]; every document outside it is assigned exactly
//!   `0.0`, which is the exact score of any candidate sharing no term with
//!   the model under all of CS/JS/GJS (zero overlap ⇒ zero numerator /
//!   zero intersection — the proptests below pin this).
//!
//! With [`Budget::Full`] the heap never fills, nothing is pruned, and every
//! overlapping document is rescored — output is byte-identical to the
//! exhaustive pass by construction. With [`Budget::TopK`] the surrogate
//! ordering decides which overlapping documents are rescored; recall@k is
//! measured, not assumed (`bench_retrieval`). The surrogate itself is the
//! model·document dot product accumulated in f64 over the document's
//! entries in term order — a fixed association order, so results never
//! depend on which posting list surfaced the candidate.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use pmr_bag::{ScoringKernel, SparseVector};
use pmr_text::vocab::TermId;

use crate::ranking::ThresholdHeap;

/// How a consumer retrieves candidates before scoring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RetrievalMode {
    /// Score every candidate exactly — the proptest-pinned reference.
    #[default]
    Exhaustive,
    /// Impact-ordered index + WAND/max-score shortlist, exact rescore.
    Wand,
}

impl RetrievalMode {
    /// Short name, as accepted by `--retrieval` and stored in cache keys.
    pub fn name(self) -> &'static str {
        match self {
            RetrievalMode::Exhaustive => "exhaustive",
            RetrievalMode::Wand => "wand",
        }
    }
}

impl fmt::Display for RetrievalMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for RetrievalMode {
    type Err = String;

    fn from_str(s: &str) -> Result<RetrievalMode, String> {
        match s {
            "exhaustive" => Ok(RetrievalMode::Exhaustive),
            "wand" => Ok(RetrievalMode::Wand),
            other => Err(format!("unknown retrieval mode {other:?} (exhaustive|wand)")),
        }
    }
}

/// Shortlist budget for one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// Keep every visited candidate: full coverage, byte-identical output.
    Full,
    /// Keep at most `shortlist` candidates by surrogate score.
    TopK {
        /// Maximum shortlist size.
        shortlist: usize,
    },
}

/// Outcome of one [`ImpactIndex::query`].
#[derive(Debug, Clone)]
pub struct Shortlist {
    /// Candidate positions to rescore exactly, ascending.
    pub positions: Vec<u32>,
    /// Candidates whose surrogate was evaluated.
    pub visited: u64,
    /// Candidates never visited (zero model overlap or pruned by
    /// max-score) out of the pool.
    pub pruned: u64,
}

/// An impact-ordered inverted index over a fixed candidate pool.
///
/// Built once from the pool's (already transformed) sparse vectors; the
/// grams behind those vectors come from the shared [`crate::FeatureCache`]
/// tables, so building an index never re-tokenizes or re-interns anything
/// (the no-allocation-growth test below pins this).
#[derive(Debug, Clone)]
pub struct ImpactIndex {
    /// Distinct terms of the pool, ascending.
    terms: Vec<TermId>,
    /// Parallel to `terms`: (candidate position, stored weight) in
    /// ascending position order.
    postings: Vec<Vec<(u32, f32)>>,
    /// Parallel to `terms`: max |weight| across the list — the impact
    /// bound that orders and prunes query terms.
    max_impact: Vec<f32>,
    /// Pool size.
    docs: usize,
}

impl ImpactIndex {
    /// Build over a candidate pool; position `i` refers to `pool[i]`.
    pub fn build(pool: &[SparseVector]) -> ImpactIndex {
        let _timer = pmr_obs::timer("retrieval.index_build");
        let mut lists: BTreeMap<TermId, Vec<(u32, f32)>> = BTreeMap::new();
        for (pos, doc) in pool.iter().enumerate() {
            for &(term, weight) in doc.entries() {
                lists.entry(term).or_default().push((pos as u32, weight));
            }
        }
        let mut terms = Vec::with_capacity(lists.len());
        let mut postings = Vec::with_capacity(lists.len());
        let mut max_impact = Vec::with_capacity(lists.len());
        for (term, list) in lists {
            let max = list.iter().map(|&(_, w)| w.abs()).fold(0.0f32, f32::max);
            terms.push(term);
            postings.push(list);
            max_impact.push(max);
        }
        pmr_obs::counter_add("retrieval.index_builds", 1);
        ImpactIndex { terms, postings, max_impact, docs: pool.len() }
    }

    /// Pool size.
    pub fn docs(&self) -> usize {
        self.docs
    }

    /// Number of distinct terms indexed.
    pub fn terms(&self) -> usize {
        self.terms.len()
    }

    /// Shortlist the pool for `model` under `budget`.
    ///
    /// `pool` must be the slice the index was built from (surrogates read
    /// the document entries directly); `keys` supplies each position's tie
    /// key under the shared ranking contract. Deterministic: candidates
    /// are visited in ascending position order and surrogate sums use a
    /// fixed association order, so the shortlist is a pure function of
    /// `(pool, model, keys, budget)`.
    pub fn query<K: Ord + Clone>(
        &self,
        model: &SparseVector,
        pool: &[SparseVector],
        keys: &[K],
        budget: Budget,
    ) -> Shortlist {
        assert_eq!(pool.len(), self.docs, "index was built over a different pool");
        assert_eq!(keys.len(), self.docs, "one tie key per pool position");
        let _timer = pmr_obs::timer("retrieval.query");
        // Dense model lookup for O(nnz(doc)) surrogate dots.
        let dense = dense_of(model);
        // Query terms present in the pool, with their impact upper bounds.
        let mut qterms: Vec<(f64, usize)> = model
            .entries()
            .iter()
            .filter_map(|&(term, w)| {
                self.terms
                    .binary_search(&term)
                    .ok()
                    .map(|i| (w.abs() as f64 * self.max_impact[i] as f64, i))
            })
            .collect();
        // Upper bound descending, term id ascending on ties — a fixed
        // driver order regardless of model entry layout.
        qterms.sort_by(|a, b| b.0.total_cmp(&a.0).then(self.terms[a.1].cmp(&self.terms[b.1])));
        // suffix[i] = Σ upper bounds of qterms[i..]; the tail starting at i
        // may stop driving once suffix[i] < threshold. Each partial sum is
        // inflated by 1e-12 relative — orders of magnitude above the f64
        // rounding of either sum — so a surrogate can never exceed its
        // bound through rounding alone and pruning stays conservative.
        let mut suffix = vec![0.0f64; qterms.len() + 1];
        for i in (0..qterms.len()).rev() {
            suffix[i] = (suffix[i + 1] + qterms[i].0) * (1.0 + 1e-12);
        }
        let capacity = match budget {
            Budget::Full => self.docs,
            Budget::TopK { shortlist } => shortlist,
        };
        let mut heap: ThresholdHeap<(K, u32)> = ThresholdHeap::new(capacity);
        let mut cursors = vec![0usize; qterms.len()];
        let mut essential = qterms.len();
        let mut visited = 0u64;
        // Document-at-a-time frontier: one (next position, driver) pair per
        // query term in a min-heap, so each step costs O(log t) rather than
        // a scan over every driver's cursor.
        let mut frontier: BinaryHeap<Reverse<(u32, u32)>> = qterms
            .iter()
            .enumerate()
            .filter_map(|(qi, &(_, ti))| {
                self.postings[ti].first().map(|&(pos, _)| Reverse((pos, qi as u32)))
            })
            .collect();
        while let Some(&Reverse((pos, _))) = frontier.peek() {
            // Shrink the essential prefix as the threshold grows. Strict
            // comparison: a document worth exactly the threshold could
            // still win on its tie key, so only a strictly-smaller tail
            // bound justifies dropping a driver.
            if let Some(threshold) = heap.threshold() {
                while essential > 0 && suffix[essential - 1] < threshold {
                    essential -= 1;
                }
            }
            if essential == 0 {
                break;
            }
            // Advance every driver sitting on this candidate. Drivers that
            // fell out of the essential prefix are dropped from the
            // frontier for good: the prefix only ever shrinks (the
            // threshold is monotone), and a document appearing in no
            // essential list cannot beat the threshold.
            let mut is_essential = false;
            loop {
                let Some(mut top) = frontier.peek_mut() else { break };
                let Reverse((p, qi)) = *top;
                if p != pos {
                    break;
                }
                let qi = qi as usize;
                if qi < essential {
                    is_essential = true;
                    cursors[qi] += 1;
                    if let Some(&(np, _)) = self.postings[qterms[qi].1].get(cursors[qi]) {
                        // Replace in place: one sift instead of pop + push.
                        *top = Reverse((np, qi as u32));
                        continue;
                    }
                }
                std::collections::binary_heap::PeekMut::pop(top);
            }
            if !is_essential {
                continue;
            }
            visited += 1;
            let surrogate = surrogate_dot(&dense, &pool[pos as usize]);
            heap.offer(surrogate, (keys[pos as usize].clone(), pos));
        }
        let mut positions: Vec<u32> = heap.into_sorted().into_iter().map(|(_, (_, p))| p).collect();
        positions.sort_unstable();
        pmr_obs::counter_add("retrieval.candidates", visited);
        pmr_obs::counter_add("retrieval.pruned", self.docs as u64 - visited);
        Shortlist { positions, visited, pruned: self.docs as u64 - visited }
    }
}

/// Dense lookup table of a model's weights (index = term id).
fn dense_of(model: &SparseVector) -> Vec<f32> {
    let size = model.entries().last().map_or(0, |&(t, _)| t as usize + 1);
    let mut dense = vec![0.0f32; size];
    for &(t, w) in model.entries() {
        dense[t as usize] = w;
    }
    dense
}

/// The surrogate: model·doc accumulated in f64 over the document's entries
/// in term order — one fixed association order per document.
fn surrogate_dot(dense: &[f32], doc: &SparseVector) -> f64 {
    let mut acc = 0.0f64;
    for &(t, w) in doc.entries() {
        let wm = dense.get(t as usize).copied().unwrap_or(0.0);
        if wm != 0.0 {
            acc += wm as f64 * w as f64;
        }
    }
    acc
}

/// Shortlist `pool` for `kernel`'s model and return the full score vector:
/// exact kernel scores for shortlisted positions, exactly `0.0` elsewhere.
///
/// Under [`Budget::Full`] this is byte-identical to scoring every document
/// with the kernel (the proptests pin it for all three bag similarities):
/// every document sharing a term with the model is visited and rescored
/// exactly, and a zero-overlap document scores exactly `0.0` under
/// CS/JS/GJS.
pub fn retrieve_and_rescore<K: Ord + Clone>(
    index: &ImpactIndex,
    kernel: &ScoringKernel,
    model: &SparseVector,
    pool: &[SparseVector],
    keys: &[K],
    budget: Budget,
) -> Vec<f64> {
    let shortlist = index.query(model, pool, keys, budget);
    let mut scores = vec![0.0f64; pool.len()];
    {
        let _timer = pmr_obs::timer("retrieval.rescore");
        kernel.score_positions(pool, &shortlist.positions, &mut scores);
    }
    pmr_obs::counter_add("retrieval.rescored", shortlist.positions.len() as u64);
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::tie_break_key;
    use pmr_bag::BagSimilarity;

    fn v(pairs: &[(u32, f32)]) -> SparseVector {
        SparseVector::from_pairs(pairs.to_vec())
    }

    fn exhaustive(kernel: &ScoringKernel, pool: &[SparseVector]) -> Vec<f64> {
        pool.iter().map(|d| kernel.score(d)).collect()
    }

    fn keys_for(pool: &[SparseVector]) -> Vec<u32> {
        (0..pool.len()).map(|i| tie_break_key(i as u32)).collect()
    }

    #[test]
    fn full_budget_matches_exhaustive_bit_for_bit() {
        let model = v(&[(0, 0.5), (2, 1.5), (7, 0.25)]);
        let pool = vec![
            v(&[(2, 1.0), (3, 4.0)]),
            v(&[(9, 1.0)]), // zero overlap: never visited, zero-filled
            v(&[(0, 0.5), (7, 2.0)]),
            v(&[]),
            v(&[(7, 0.1)]),
        ];
        let index = ImpactIndex::build(&pool);
        let keys = keys_for(&pool);
        for sim in
            [BagSimilarity::Cosine, BagSimilarity::Jaccard, BagSimilarity::GeneralizedJaccard]
        {
            let kernel = ScoringKernel::new(sim, &model);
            let wand = retrieve_and_rescore(&index, &kernel, &model, &pool, &keys, Budget::Full);
            let exact = exhaustive(&kernel, &pool);
            assert_eq!(
                wand.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                exact.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                "{}: full-budget retrieval must be byte-identical",
                sim.name()
            );
        }
    }

    #[test]
    fn zero_overlap_docs_are_pruned_without_a_visit() {
        let model = v(&[(1, 1.0)]);
        let pool = vec![v(&[(1, 2.0)]), v(&[(5, 1.0)]), v(&[(6, 1.0)])];
        let index = ImpactIndex::build(&pool);
        let keys = keys_for(&pool);
        let shortlist = index.query(&model, &pool, &keys, Budget::Full);
        assert_eq!(shortlist.positions, vec![0]);
        assert_eq!(shortlist.visited, 1);
        assert_eq!(shortlist.pruned, 2);
    }

    #[test]
    fn empty_model_shortlists_nothing() {
        let pool = vec![v(&[(1, 1.0)]), v(&[(2, 1.0)])];
        let index = ImpactIndex::build(&pool);
        let keys = keys_for(&pool);
        let shortlist = index.query(&v(&[]), &pool, &keys, Budget::Full);
        assert!(shortlist.positions.is_empty());
        assert_eq!(shortlist.pruned, 2);
    }

    #[test]
    fn topk_budget_keeps_the_surrogate_top_k() {
        let model = v(&[(0, 1.0)]);
        // Surrogates: 3.0, 1.0, 2.0 — top-2 are positions 0 and 2.
        let pool = vec![v(&[(0, 3.0)]), v(&[(0, 1.0)]), v(&[(0, 2.0)])];
        let index = ImpactIndex::build(&pool);
        let keys = keys_for(&pool);
        let shortlist = index.query(&model, &pool, &keys, Budget::TopK { shortlist: 2 });
        assert_eq!(shortlist.positions, vec![0, 2]);
    }

    #[test]
    fn negative_model_weights_stay_exact_under_full_budget() {
        // Rocchio models carry negative weights: overlapping documents can
        // score *below* the 0.0 assigned to zero-overlap ones, which is
        // exactly what the exhaustive pass produces too.
        let model = v(&[(0, -1.0), (3, 0.5)]);
        let pool = vec![v(&[(0, 2.0)]), v(&[(9, 1.0)]), v(&[(0, 1.0), (3, 1.0)])];
        let index = ImpactIndex::build(&pool);
        let keys = keys_for(&pool);
        let kernel = ScoringKernel::new(BagSimilarity::Cosine, &model);
        let wand = retrieve_and_rescore(&index, &kernel, &model, &pool, &keys, Budget::Full);
        let exact = exhaustive(&kernel, &pool);
        assert!(wand[0] < 0.0, "negative-overlap doc must keep its exact negative score");
        assert_eq!(
            wand.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            exact.iter().map(|s| s.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn retrieval_mode_parses_and_prints() {
        assert_eq!("exhaustive".parse::<RetrievalMode>(), Ok(RetrievalMode::Exhaustive));
        assert_eq!("wand".parse::<RetrievalMode>(), Ok(RetrievalMode::Wand));
        assert!("fts".parse::<RetrievalMode>().is_err());
        assert_eq!(RetrievalMode::Wand.to_string(), "wand");
        assert_eq!(RetrievalMode::default(), RetrievalMode::Exhaustive);
    }

    #[test]
    fn index_build_reuses_cached_gram_tables_without_growth() {
        // The prewarm-dedup contract: building an index over vectors from a
        // cached gram table must not re-tokenize or re-intern anything. A
        // second build keyed off the same (kind, n) table leaves the cache
        // byte count and vocabulary untouched and shares the same Arc.
        use crate::features::{FeatureCache, GramKind, GramTable};
        use pmr_bag::{IndexedVectorizer, WeightingScheme};
        use pmr_sim::TweetId;

        let cache = FeatureCache::new();
        let key = (GramKind::Token, 1);
        let docs: Vec<Vec<&str>> =
            vec![vec!["cats", "purr"], vec!["cats", "nap"], vec!["rust", "code"]];
        let build = || GramTable::from_docs(GramKind::Token, 1, docs.clone());

        let build_index = |table: &std::sync::Arc<GramTable>| {
            let ids: Vec<TweetId> = (0..table.num_docs() as u32).map(TweetId).collect();
            let vectorizer =
                IndexedVectorizer::fit(WeightingScheme::TF, ids.iter().map(|&id| table.doc(id)));
            let pool: Vec<SparseVector> =
                ids.iter().map(|&id| vectorizer.transform(table.doc(id))).collect();
            ImpactIndex::build(&pool)
        };

        let first_table = cache.table(key, build);
        let first = build_index(&first_table);
        let bytes_after_first = cache.bytes();
        let vocab_after_first = first_table.vocab_len();

        let second_table = cache.table(key, build);
        let second = build_index(&second_table);
        assert!(
            std::sync::Arc::ptr_eq(&first_table, &second_table),
            "second build must reuse the cached table, not re-intern"
        );
        assert_eq!(cache.bytes(), bytes_after_first, "no cache allocation growth");
        assert_eq!(second_table.vocab_len(), vocab_after_first, "no new interned grams");
        assert_eq!(first.terms(), second.terms());
        assert_eq!(first.docs(), second.docs());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::eval::tie_break_key;
    use pmr_bag::BagSimilarity;
    use proptest::prelude::*;

    fn arb_vec() -> impl Strategy<Value = SparseVector> {
        proptest::collection::vec((0u32..40, -4.0f32..4.0), 0..20)
            .prop_map(SparseVector::from_pairs)
    }

    proptest! {
        /// The tentpole pin: with pruning disabled (full budget) the
        /// retrieval path is byte-identical to the exhaustive kernel pass
        /// for all three bag similarities, for any model (negative Rocchio
        /// weights included) and any pool.
        #[test]
        fn full_budget_is_byte_identical_to_exhaustive(
            model in arb_vec(),
            pool in proptest::collection::vec(arb_vec(), 0..16),
        ) {
            let index = ImpactIndex::build(&pool);
            let keys: Vec<u32> = (0..pool.len()).map(|i| tie_break_key(i as u32)).collect();
            for sim in [BagSimilarity::Cosine, BagSimilarity::Jaccard, BagSimilarity::GeneralizedJaccard] {
                let kernel = ScoringKernel::new(sim, &model);
                let wand = retrieve_and_rescore(&index, &kernel, &model, &pool, &keys, Budget::Full);
                let exact: Vec<f64> = pool.iter().map(|d| kernel.score(d)).collect();
                prop_assert_eq!(
                    wand.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                    exact.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                    "{} diverged", sim.name()
                );
            }
        }

        /// Zero-overlap candidates score exactly 0.0 under every bag
        /// similarity — the invariant that makes zero-filling unvisited
        /// candidates exact rather than approximate.
        #[test]
        fn zero_overlap_scores_exactly_zero(
            model_pairs in proptest::collection::vec((0u32..20, -4.0f32..4.0), 0..12),
            doc_pairs in proptest::collection::vec((20u32..40, -4.0f32..4.0), 0..12),
        ) {
            let model = SparseVector::from_pairs(model_pairs);
            let doc = SparseVector::from_pairs(doc_pairs);
            for sim in [BagSimilarity::Cosine, BagSimilarity::Jaccard, BagSimilarity::GeneralizedJaccard] {
                let kernel = ScoringKernel::new(sim, &model);
                prop_assert_eq!(kernel.score(&doc).to_bits(), 0.0f64.to_bits(), "{}", sim.name());
            }
        }

        /// The shortlist is a pure function of the pool — feeding the heap
        /// from a pool in any candidate order keeps budgeted results
        /// consistent with a direct surrogate sort.
        #[test]
        fn topk_equals_surrogate_sort(
            model in arb_vec(),
            pool in proptest::collection::vec(arb_vec(), 0..16),
            shortlist in 0usize..8,
        ) {
            let index = ImpactIndex::build(&pool);
            let keys: Vec<u32> = (0..pool.len()).map(|i| tie_break_key(i as u32)).collect();
            let got = index.query(&model, &pool, &keys, Budget::TopK { shortlist });
            // Reference: surrogate-score every overlapping candidate, rank
            // under the shared contract, truncate.
            let dense = super::dense_of(&model);
            let mut overlapping: Vec<(f64, (u32, u32))> = pool
                .iter()
                .enumerate()
                .filter(|(_, d)| {
                    d.entries().iter().any(|&(t, _)| model.entries().iter().any(|&(mt, _)| mt == t))
                })
                .map(|(i, d)| (super::surrogate_dot(&dense, d), (keys[i], i as u32)))
                .collect();
            overlapping.sort_by(|a, b| crate::ranking::rank_cmp(a.0, &a.1, b.0, &b.1));
            overlapping.truncate(shortlist);
            let mut expected: Vec<u32> = overlapping.into_iter().map(|(_, (_, p))| p).collect();
            expected.sort_unstable();
            prop_assert_eq!(got.positions, expected);
        }
    }
}
