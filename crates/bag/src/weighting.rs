//! Weighting schemes and the corpus-fitted vectorizer.
//!
//! §3.2 of the paper defines three weighting schemes for bag models:
//!
//! * **BF** — boolean frequency: 1 if the n-gram occurs in the document;
//! * **TF** — term frequency: occurrences normalized by document length;
//! * **TF-IDF** — TF discounted by `idf(t) = log(|D| / (df(t) + 1))`.
//!
//! An [`IndexedVectorizer`] is fitted once on the training corpus of a
//! representation source (assigning the n-gram dimensions and counting
//! document frequencies) and then transforms any document — training or
//! testing — into a [`SparseVector`] over the fitted dimensions; n-grams
//! unseen at fit time are dropped, exactly as in a trained vector-space
//! model. Documents arrive as gram ids interned by a shared gram table.

use serde::{Deserialize, Serialize};

use pmr_text::vocab::{LocalIds, TermId};

use crate::vector::SparseVector;

/// The three weighting schemes of §3.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WeightingScheme {
    /// Boolean frequency.
    BF,
    /// Length-normalized term frequency.
    TF,
    /// TF · inverse document frequency.
    TFIDF,
}

impl WeightingScheme {
    /// Short name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            WeightingScheme::BF => "BF",
            WeightingScheme::TF => "TF",
            WeightingScheme::TFIDF => "TF-IDF",
        }
    }
}

/// A corpus-fitted vectorizer over *pre-interned* gram ids.
///
/// Documents are sequences of global `TermId`s from a shared gram table,
/// not strings. Fitting assigns dense *local* ids in first-seen order over
/// the documents — exactly the order a string interner walking the same
/// documents would produce — so the vectors are bit-for-bit those of a
/// string-keyed vectorizer (the test reference in `reference.rs`) while
/// no string is hashed, compared or allocated on the sweep's hot path.
#[derive(Debug, Clone)]
pub struct IndexedVectorizer {
    weighting: WeightingScheme,
    /// Global gram id → dense local dimension, in first-seen order.
    local: LocalIds,
    /// Document frequency per local dimension.
    df: Vec<u32>,
    /// Number of fitted documents `|D|`.
    num_docs: usize,
}

impl IndexedVectorizer {
    /// Fit on pre-interned training documents.
    pub fn fit<D>(weighting: WeightingScheme, docs: D) -> Self
    where
        D: IntoIterator,
        D::Item: AsRef<[TermId]>,
    {
        let mut local = LocalIds::new();
        let mut df: Vec<u32> = Vec::new();
        let mut num_docs = 0usize;
        let mut seen_in_doc: Vec<usize> = Vec::new(); // doc-stamp per dim
        for doc in docs {
            num_docs += 1;
            for &gram in doc.as_ref() {
                let id = local.intern(gram);
                if id as usize == df.len() {
                    df.push(0);
                    seen_in_doc.push(0);
                }
                if seen_in_doc[id as usize] != num_docs {
                    seen_in_doc[id as usize] = num_docs;
                    df[id as usize] += 1;
                }
            }
        }
        IndexedVectorizer { weighting, local, df, num_docs }
    }

    /// The fitted weighting scheme.
    pub fn weighting(&self) -> WeightingScheme {
        self.weighting
    }

    /// Number of fitted dimensions (distinct grams).
    pub fn dimensionality(&self) -> usize {
        self.df.len()
    }

    /// Number of fitted documents.
    pub fn num_docs(&self) -> usize {
        self.num_docs
    }

    /// The inverse document frequency of a fitted local dimension.
    pub fn idf(&self, id: TermId) -> f32 {
        ((self.num_docs as f64) / (self.df[id as usize] as f64 + 1.0)).ln() as f32
    }

    /// Transform a pre-interned document into a sparse vector over the
    /// fitted local dimensions; grams unseen at fit time are dropped.
    ///
    /// Occurrences are counted by sorting the document's local ids and
    /// run-length encoding — no hashing. The counts (and hence weights)
    /// are identical to the hash-counted string reference; only the order
    /// in which pairs reach the final sort differs, and that order is
    /// erased.
    pub fn transform(&self, grams: &[TermId]) -> SparseVector {
        let n_d = grams.len();
        if n_d == 0 {
            return SparseVector::new();
        }
        let mut ids: Vec<TermId> = Vec::with_capacity(n_d);
        for &gram in grams {
            if let Some(id) = self.local.get(gram) {
                ids.push(id);
            }
        }
        weigh(self.weighting, ids, n_d, |id| self.idf(id))
    }
}

/// Weigh one document given the fitted dimension ids of its grams.
///
/// `n_d` is the document's full gram count, grams outside the fitted
/// space included. Occurrences are counted by sorting the ids and
/// run-length encoding them; `idf` is consulted only under TF-IDF. This is
/// the one counting routine behind every id-based bag vector, so vectors
/// built from the same ids are bit-identical whoever interned them.
pub fn weigh(
    weighting: WeightingScheme,
    mut ids: Vec<TermId>,
    n_d: usize,
    idf: impl Fn(TermId) -> f32,
) -> SparseVector {
    ids.sort_unstable();
    let mut pairs: Vec<(TermId, f32)> = Vec::with_capacity(ids.len());
    let mut i = 0;
    while i < ids.len() {
        let id = ids[i];
        let mut f = 0u32;
        while i < ids.len() && ids[i] == id {
            f += 1;
            i += 1;
        }
        let w = match weighting {
            WeightingScheme::BF => 1.0,
            WeightingScheme::TF => f as f32 / n_d as f32,
            WeightingScheme::TFIDF => (f as f32 / n_d as f32) * idf(id),
        };
        pairs.push((id, w));
    }
    SparseVector::from_pairs(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::BagVectorizer;
    use pmr_text::vocab::Vocabulary;

    fn docs() -> Vec<Vec<String>> {
        let d = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        vec![d("a b a c"), d("b c"), d("a a a a")]
    }

    /// Intern string docs through a shared global vocabulary, the way the
    /// sweep's feature cache does.
    fn interned(vocab: &mut Vocabulary, docs: &[Vec<String>]) -> Vec<Vec<TermId>> {
        docs.iter().map(|d| d.iter().map(|g| vocab.intern(g)).collect()).collect()
    }

    /// The fitted dimension of `gram`.
    fn dim(v: &IndexedVectorizer, vocab: &Vocabulary, gram: &str) -> TermId {
        v.local.get(vocab.get(gram).expect("interned")).expect("fitted")
    }

    /// `text`'s whitespace tokens as global ids; tokens not yet in `vocab`
    /// get fresh ids, which no vectorizer fitted earlier has seen.
    fn doc(vocab: &mut Vocabulary, text: &str) -> Vec<TermId> {
        text.split_whitespace().map(|g| vocab.intern(g)).collect()
    }

    #[test]
    fn fit_counts_document_frequencies() {
        let mut vocab = Vocabulary::new();
        let v = IndexedVectorizer::fit(WeightingScheme::TF, interned(&mut vocab, &docs()));
        assert_eq!(v.dimensionality(), 3);
        assert_eq!(v.num_docs(), 3);
        for gram in ["a", "b", "c"] {
            assert_eq!(v.df[dim(&v, &vocab, gram) as usize], 2, "{gram}");
        }
    }

    #[test]
    fn bf_weights_are_binary() {
        let mut vocab = Vocabulary::new();
        let v = IndexedVectorizer::fit(WeightingScheme::BF, interned(&mut vocab, &docs()));
        let x = v.transform(&doc(&mut vocab, "a a b"));
        assert_eq!(x.get(dim(&v, &vocab, "a")), 1.0);
        assert_eq!(x.get(dim(&v, &vocab, "b")), 1.0);
    }

    #[test]
    fn tf_weights_are_length_normalized() {
        let mut vocab = Vocabulary::new();
        let v = IndexedVectorizer::fit(WeightingScheme::TF, interned(&mut vocab, &docs()));
        let x = v.transform(&doc(&mut vocab, "a a b c"));
        assert!((x.get(dim(&v, &vocab, "a")) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn tfidf_discounts_ubiquitous_grams() {
        // "x" appears in every document, "y" in one.
        let d = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let corpus = vec![d("x y"), d("x"), d("x"), d("x")];
        let mut vocab = Vocabulary::new();
        let v = IndexedVectorizer::fit(WeightingScheme::TFIDF, interned(&mut vocab, &corpus));
        let x = v.transform(&doc(&mut vocab, "x y"));
        let idx = dim(&v, &vocab, "x");
        let idy = dim(&v, &vocab, "y");
        assert!(
            x.get(idy) > x.get(idx),
            "rare gram must outweigh ubiquitous one: {} vs {}",
            x.get(idy),
            x.get(idx)
        );
        // idf(x) = ln(4/5) < 0: ubiquitous grams may go slightly negative,
        // as with the standard smoothed-IDF formula the paper uses.
        assert!(v.idf(idx) < 0.0);
        assert!(v.idf(idy) > 0.0);
    }

    #[test]
    fn unseen_grams_are_dropped() {
        let mut vocab = Vocabulary::new();
        let v = IndexedVectorizer::fit(WeightingScheme::TF, interned(&mut vocab, &docs()));
        assert!(v.transform(&doc(&mut vocab, "zzz qqq")).is_empty());
    }

    #[test]
    fn empty_document_transforms_to_empty_vector() {
        let mut vocab = Vocabulary::new();
        let v = IndexedVectorizer::fit(WeightingScheme::TF, interned(&mut vocab, &docs()));
        assert!(v.transform(&[]).is_empty());
    }

    #[test]
    fn scheme_names_match_the_paper() {
        assert_eq!(WeightingScheme::BF.name(), "BF");
        assert_eq!(WeightingScheme::TF.name(), "TF");
        assert_eq!(WeightingScheme::TFIDF.name(), "TF-IDF");
    }

    #[test]
    fn indexed_vectorizer_matches_string_vectorizer_bitwise() {
        let string_docs = docs();
        let id_docs = interned(&mut Vocabulary::new(), &string_docs);
        for weighting in [WeightingScheme::BF, WeightingScheme::TF, WeightingScheme::TFIDF] {
            let by_string = BagVectorizer::fit(weighting, string_docs.iter());
            let by_id = IndexedVectorizer::fit(weighting, id_docs.iter());
            assert_eq!(by_string.dimensionality(), by_id.dimensionality());
            assert_eq!(by_string.num_docs(), by_id.num_docs());
            for (sd, id) in string_docs.iter().zip(&id_docs) {
                let a = by_string.transform(sd);
                let b = by_id.transform(id);
                assert_eq!(a.entries().len(), b.entries().len());
                for (&(da, wa), &(db, wb)) in a.entries().iter().zip(b.entries()) {
                    assert_eq!(da, db, "{weighting:?}: local dimension ids must agree");
                    assert_eq!(
                        wa.to_bits(),
                        wb.to_bits(),
                        "{weighting:?}: weights must be bit-identical"
                    );
                }
            }
        }
    }

    #[test]
    fn indexed_vectorizer_drops_unseen_global_ids() {
        let id_docs = interned(&mut Vocabulary::new(), &docs());
        let v = IndexedVectorizer::fit(WeightingScheme::TF, id_docs.iter());
        assert!(v.transform(&[900, 901]).is_empty());
        assert!(v.transform(&[]).is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::reference::BagVectorizer;
    use pmr_text::vocab::Vocabulary;
    use proptest::prelude::*;

    /// Documents over a small alphabet so collisions (shared grams across
    /// docs) actually happen.
    fn arb_docs() -> impl Strategy<Value = Vec<Vec<String>>> {
        proptest::collection::vec(
            proptest::collection::vec((0u8..12).prop_map(|t| format!("t{t}")), 0..15),
            0..8,
        )
    }

    proptest! {
        #[test]
        fn indexed_fit_transform_equals_string_path(string_docs in arb_docs(), probe in proptest::collection::vec((0u8..14).prop_map(|t| format!("t{t}")), 0..15)) {
            let mut vocab = Vocabulary::new();
            let id_docs: Vec<Vec<TermId>> = string_docs
                .iter()
                .map(|d| d.iter().map(|g| vocab.intern(g)).collect())
                .collect();
            for weighting in [WeightingScheme::BF, WeightingScheme::TF, WeightingScheme::TFIDF] {
                let by_string = BagVectorizer::fit(weighting, string_docs.iter());
                let by_id = IndexedVectorizer::fit(weighting, id_docs.iter());
                // Probe docs may contain grams unseen at fit time ("t12",
                // "t13"), exercising the drop path.
                let probe_ids: Vec<TermId> = probe.iter().map(|g| vocab.intern(g)).collect();
                let a = by_string.transform(&probe);
                let b = by_id.transform(&probe_ids);
                prop_assert_eq!(a.entries().len(), b.entries().len());
                for (&(da, wa), &(db, wb)) in a.entries().iter().zip(b.entries()) {
                    prop_assert_eq!(da, db);
                    prop_assert_eq!(wa.to_bits(), wb.to_bits());
                }
            }
        }
    }
}
