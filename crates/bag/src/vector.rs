//! Sparse weighted vectors over interned n-gram dimensions.

use serde::{Deserialize, Serialize};

use pmr_text::vocab::TermId;

/// A sparse vector: `(dimension, weight)` pairs sorted by dimension with no
/// duplicates and no explicit zeros.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SparseVector {
    entries: Vec<(TermId, f32)>,
}

impl SparseVector {
    /// An empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from unordered `(dimension, weight)` pairs; duplicate
    /// dimensions are summed, zero weights dropped.
    pub fn from_pairs(mut pairs: Vec<(TermId, f32)>) -> Self {
        pairs.sort_by_key(|&(id, _)| id);
        let mut entries: Vec<(TermId, f32)> = Vec::with_capacity(pairs.len());
        for (id, w) in pairs {
            match entries.last_mut() {
                Some(last) if last.0 == id => last.1 += w,
                _ => entries.push((id, w)),
            }
        }
        entries.retain(|&(_, w)| w != 0.0);
        SparseVector { entries }
    }

    /// The entries, sorted by dimension.
    pub fn entries(&self) -> &[(TermId, f32)] {
        &self.entries
    }

    /// Number of non-zero dimensions.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Whether the vector is all-zero.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The weight of a dimension (0 if absent).
    pub fn get(&self, id: TermId) -> f32 {
        match self.entries.binary_search_by_key(&id, |&(d, _)| d) {
            Ok(i) => self.entries[i].1,
            Err(_) => 0.0,
        }
    }

    /// Euclidean magnitude.
    pub fn norm(&self) -> f32 {
        self.entries.iter().map(|&(_, w)| w * w).sum::<f32>().sqrt()
    }

    /// In-place scaling.
    pub fn scale(&mut self, factor: f32) {
        if factor == 0.0 {
            self.entries.clear();
            return;
        }
        for e in &mut self.entries {
            e.1 *= factor;
        }
    }

    /// Return a copy normalized to unit length (unchanged if zero).
    pub fn normalized(&self) -> SparseVector {
        let n = self.norm();
        if n == 0.0 {
            return self.clone();
        }
        let mut v = self.clone();
        v.scale(1.0 / n);
        v
    }

    /// Add `factor · other` into `self` (sparse AXPY).
    pub fn add_scaled(&mut self, other: &SparseVector, factor: f32) {
        if factor == 0.0 || other.is_empty() {
            return;
        }
        let mut merged: Vec<(TermId, f32)> =
            Vec::with_capacity(self.entries.len() + other.entries.len());
        let (mut i, mut j) = (0usize, 0usize);
        let (a, b) = (&self.entries, &other.entries);
        while i < a.len() || j < b.len() {
            match (a.get(i), b.get(j)) {
                (Some(&(da, wa)), Some(&(db, wb))) => match da.cmp(&db) {
                    std::cmp::Ordering::Less => {
                        merged.push((da, wa));
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        merged.push((db, wb * factor));
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        merged.push((da, wa + wb * factor));
                        i += 1;
                        j += 1;
                    }
                },
                (Some(&(da, wa)), None) => {
                    merged.push((da, wa));
                    i += 1;
                }
                (None, Some(&(db, wb))) => {
                    merged.push((db, wb * factor));
                    j += 1;
                }
                (None, None) => unreachable!("loop condition guards this"),
            }
        }
        merged.retain(|&(_, w)| w != 0.0);
        self.entries = merged;
    }
}

impl FromIterator<(TermId, f32)> for SparseVector {
    fn from_iter<T: IntoIterator<Item = (TermId, f32)>>(iter: T) -> Self {
        SparseVector::from_pairs(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(pairs: &[(u32, f32)]) -> SparseVector {
        SparseVector::from_pairs(pairs.to_vec())
    }

    #[test]
    fn from_pairs_sorts_merges_and_drops_zeros() {
        let x = v(&[(3, 1.0), (1, 2.0), (3, 2.0), (5, 0.0)]);
        assert_eq!(x.entries(), &[(1, 2.0), (3, 3.0)]);
    }

    #[test]
    fn get_returns_zero_for_missing() {
        let x = v(&[(1, 2.0)]);
        assert_eq!(x.get(1), 2.0);
        assert_eq!(x.get(2), 0.0);
    }

    #[test]
    fn dot_product_merges_correctly() {
        let a = v(&[(1, 1.0), (2, 2.0), (4, 3.0)]);
        let b = v(&[(2, 5.0), (3, 7.0), (4, 1.0)]);
        assert_eq!(a.dot(&b), 2.0 * 5.0 + 3.0 * 1.0);
    }

    #[test]
    fn norm_is_euclidean() {
        let x = v(&[(0, 3.0), (1, 4.0)]);
        assert!((x.norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn normalized_has_unit_length() {
        let x = v(&[(0, 3.0), (1, 4.0)]);
        assert!((x.normalized().norm() - 1.0).abs() < 1e-6);
        assert!(v(&[]).normalized().is_empty());
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut x = v(&[(1, 1.0), (3, 1.0)]);
        x.add_scaled(&v(&[(1, 1.0), (2, 2.0)]), 0.5);
        assert_eq!(x.entries(), &[(1, 1.5), (2, 1.0), (3, 1.0)]);
    }

    #[test]
    fn add_scaled_cancellation_removes_entry() {
        let mut x = v(&[(1, 1.0)]);
        x.add_scaled(&v(&[(1, 1.0)]), -1.0);
        assert!(x.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_vec() -> impl Strategy<Value = SparseVector> {
        proptest::collection::vec((0u32..40, -5.0f32..5.0), 0..25)
            .prop_map(SparseVector::from_pairs)
    }

    proptest! {
        #[test]
        fn entries_are_sorted_and_unique(x in arb_vec()) {
            for w in x.entries().windows(2) {
                prop_assert!(w[0].0 < w[1].0);
            }
            prop_assert!(x.entries().iter().all(|&(_, w)| w != 0.0));
        }

        #[test]
        fn dot_is_commutative(a in arb_vec(), b in arb_vec()) {
            prop_assert!((a.dot(&b) - b.dot(&a)).abs() < 1e-4);
        }

        #[test]
        fn dot_with_self_is_norm_squared(a in arb_vec()) {
            prop_assert!((a.dot(&a) - a.norm() * a.norm()).abs() < 1e-3);
        }

        #[test]
        fn add_scaled_matches_dense_semantics(a in arb_vec(), b in arb_vec(), f in -3.0f32..3.0) {
            let mut c = a.clone();
            c.add_scaled(&b, f);
            for id in 0u32..40 {
                let expected = a.get(id) + f * b.get(id);
                prop_assert!((c.get(id) - expected).abs() < 1e-4);
            }
        }
    }
}
