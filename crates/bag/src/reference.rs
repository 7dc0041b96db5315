//! Test references: the string-keyed vectorizer and the merge-join
//! similarities that the production path replaced.
//!
//! [`crate::weighting::IndexedVectorizer`] and [`crate::kernel::ScoringKernel`]
//! must reproduce these bit for bit; their tests compare against the code
//! here, which nothing outside this crate's tests compiles.

use std::collections::HashMap;

use pmr_text::vocab::{TermId, Vocabulary};

use crate::similarity::BagSimilarity;
use crate::vector::SparseVector;
use crate::weighting::WeightingScheme;

/// A corpus-fitted vectorizer over string grams: dimensions are interned
/// in first-seen order over the fitted documents and occurrences are
/// hash-counted.
#[derive(Debug)]
pub(crate) struct BagVectorizer {
    weighting: WeightingScheme,
    vocab: Vocabulary,
    /// Document frequency per dimension.
    df: Vec<u32>,
    /// Number of fitted documents `|D|`.
    num_docs: usize,
}

impl BagVectorizer {
    /// Fit on the training documents, each its extracted n-gram list.
    pub(crate) fn fit<D, S>(weighting: WeightingScheme, docs: D) -> Self
    where
        D: IntoIterator,
        D::Item: AsRef<[S]>,
        S: AsRef<str>,
    {
        let mut vocab = Vocabulary::new();
        let mut df: Vec<u32> = Vec::new();
        let mut num_docs = 0usize;
        let mut seen_in_doc: Vec<usize> = Vec::new(); // doc-stamp per dim
        for doc in docs {
            num_docs += 1;
            for gram in doc.as_ref() {
                let id = vocab.add(gram.as_ref());
                if id as usize >= df.len() {
                    df.push(0);
                    seen_in_doc.push(0);
                }
                if seen_in_doc[id as usize] != num_docs {
                    seen_in_doc[id as usize] = num_docs;
                    df[id as usize] += 1;
                }
            }
        }
        BagVectorizer { weighting, vocab, df, num_docs }
    }

    /// Number of fitted dimensions (distinct n-grams).
    pub(crate) fn dimensionality(&self) -> usize {
        self.vocab.len()
    }

    /// Number of fitted documents.
    pub(crate) fn num_docs(&self) -> usize {
        self.num_docs
    }

    fn idf(&self, id: TermId) -> f32 {
        ((self.num_docs as f64) / (self.df[id as usize] as f64 + 1.0)).ln() as f32
    }

    /// Transform a document (its n-gram list) into a sparse vector under the
    /// fitted vocabulary; unseen n-grams are dropped.
    pub(crate) fn transform<S: AsRef<str>>(&self, grams: &[S]) -> SparseVector {
        let n_d = grams.len();
        if n_d == 0 {
            return SparseVector::new();
        }
        let mut counts: HashMap<TermId, u32> = HashMap::new();
        for g in grams {
            if let Some(id) = self.vocab.get(g.as_ref()) {
                *counts.entry(id).or_insert(0) += 1;
            }
        }
        let pairs: Vec<(TermId, f32)> = counts
            .into_iter()
            .map(|(id, f)| {
                let w = match self.weighting {
                    WeightingScheme::BF => 1.0,
                    WeightingScheme::TF => f as f32 / n_d as f32,
                    WeightingScheme::TFIDF => (f as f32 / n_d as f32) * self.idf(id),
                };
                (id, w)
            })
            .collect();
        SparseVector::from_pairs(pairs)
    }
}

impl BagSimilarity {
    /// Similarity between two vectors by a sorted merge over their entries.
    pub(crate) fn compare(self, a: &SparseVector, b: &SparseVector) -> f64 {
        match self {
            BagSimilarity::Cosine => cosine(a, b),
            BagSimilarity::Jaccard => jaccard(a, b),
            BagSimilarity::GeneralizedJaccard => generalized_jaccard(a, b),
        }
    }
}

impl SparseVector {
    /// Dot product with another sparse vector (two-pointer merge).
    pub(crate) fn dot(&self, other: &SparseVector) -> f32 {
        let mut acc = 0.0f32;
        let (mut i, mut j) = (0usize, 0usize);
        let (a, b) = (self.entries(), other.entries());
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += a[i].1 * b[j].1;
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }
}

/// Cosine similarity; 0 when either vector is zero.
fn cosine(a: &SparseVector, b: &SparseVector) -> f64 {
    let na = a.norm();
    let nb = b.norm();
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (a.dot(b) / (na * nb)) as f64
}

/// Set Jaccard over the positive supports.
fn jaccard(a: &SparseVector, b: &SparseVector) -> f64 {
    let mut intersection = 0usize;
    let mut union = 0usize;
    merge(a, b, |wa, wb| {
        let pa = wa > 0.0;
        let pb = wb > 0.0;
        if pa || pb {
            union += 1;
        }
        if pa && pb {
            intersection += 1;
        }
    });
    if union == 0 {
        0.0
    } else {
        intersection as f64 / union as f64
    }
}

/// Generalized Jaccard `Σ min / Σ max`, negative weights clamped to zero.
fn generalized_jaccard(a: &SparseVector, b: &SparseVector) -> f64 {
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    merge(a, b, |wa, wb| {
        let wa = wa.max(0.0) as f64;
        let wb = wb.max(0.0) as f64;
        num += wa.min(wb);
        den += wa.max(wb);
    });
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Iterate over the union of dimensions, feeding `(w_a, w_b)` (0 when
/// absent) to the visitor.
fn merge<F: FnMut(f32, f32)>(a: &SparseVector, b: &SparseVector, mut visit: F) {
    let (ea, eb) = (a.entries(), b.entries());
    let (mut i, mut j) = (0usize, 0usize);
    while i < ea.len() || j < eb.len() {
        match (ea.get(i), eb.get(j)) {
            (Some(&(da, wa)), Some(&(db, wb))) => match da.cmp(&db) {
                std::cmp::Ordering::Less => {
                    visit(wa, 0.0);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    visit(0.0, wb);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    visit(wa, wb);
                    i += 1;
                    j += 1;
                }
            },
            (Some(&(_, wa)), None) => {
                visit(wa, 0.0);
                i += 1;
            }
            (None, Some(&(_, wb))) => {
                visit(0.0, wb);
                j += 1;
            }
            (None, None) => unreachable!("loop condition guards this"),
        }
    }
}
