//! Graph similarity measures (§3.2).
//!
//! * **CoS** — containment similarity: the share of common edges,
//!   `Σ_{e∈G_i} μ(e, G_j) / min(|G_i|, |G_j|)`;
//! * **VS** — value similarity: weight-aware,
//!   `Σ_{e∈G_i∩G_j} min(w_e^i, w_e^j) / max(w_e^i, w_e^j) / max(|G_i|, |G_j|)`;
//! * **NS** — normalized value similarity: like VS but dividing by
//!   `min(|G_i|, |G_j|)` to soften size imbalance.

use serde::{Deserialize, Serialize};

use crate::graph::NGramGraph;

/// The three graph similarity measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GraphSimilarity {
    /// Containment similarity.
    Containment,
    /// Value similarity.
    Value,
    /// Normalized value similarity.
    NormalizedValue,
}

impl GraphSimilarity {
    /// Short name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            GraphSimilarity::Containment => "CoS",
            GraphSimilarity::Value => "VS",
            GraphSimilarity::NormalizedValue => "NS",
        }
    }

    /// Similarity between two graphs.
    pub fn compare(self, a: &NGramGraph, b: &NGramGraph) -> f64 {
        match self {
            GraphSimilarity::Containment => containment(a, b),
            GraphSimilarity::Value => value(a, b),
            GraphSimilarity::NormalizedValue => normalized_value(a, b),
        }
    }
}

/// Visit the common edges in ascending key order as `(w_small, w_large)`.
/// Walks the smaller edge list and probes each key into the larger one
/// with a `partition_point` over the part not yet passed, which shrinks
/// as the walk advances.
fn for_each_common(a: &NGramGraph, b: &NGramGraph, mut f: impl FnMut(f32, f32)) {
    let (small, large) = if a.size() <= b.size() { (a, b) } else { (b, a) };
    let mut rest = large.raw();
    for &(key, ws) in small.raw() {
        rest = &rest[rest.partition_point(|&(k, _)| k < key)..];
        match rest.first() {
            Some(&(k, wl)) if k == key => f(ws, wl),
            Some(_) => {}
            None => break,
        }
    }
}

/// Sum `min(w_a, w_b) / max(w_a, w_b)` over the common edges.
///
/// The f64 accumulation runs in ascending edge-key order: float addition
/// is not associative, so the order is part of the result's bits, and
/// `pmr-serve` logs raw scores and diffs them byte-for-byte across
/// processes.
fn value_sum(a: &NGramGraph, b: &NGramGraph) -> f64 {
    let mut sum = 0.0f64;
    for_each_common(a, b, |ws, wl| {
        let (ws, wl) = (ws.abs() as f64, wl.abs() as f64);
        let hi = ws.max(wl);
        if hi > 0.0 {
            sum += ws.min(wl) / hi;
        }
    });
    sum
}

/// Number of edges shared by the two graphs.
fn common_edges(a: &NGramGraph, b: &NGramGraph) -> usize {
    let mut count = 0;
    for_each_common(a, b, |_, _| count += 1);
    count
}

/// Containment similarity.
pub fn containment(a: &NGramGraph, b: &NGramGraph) -> f64 {
    let denom = a.size().min(b.size());
    if denom == 0 {
        return 0.0;
    }
    common_edges(a, b) as f64 / denom as f64
}

/// Value similarity.
pub fn value(a: &NGramGraph, b: &NGramGraph) -> f64 {
    let denom = a.size().max(b.size());
    if denom == 0 {
        return 0.0;
    }
    value_sum(a, b) / denom as f64
}

/// Normalized value similarity.
pub fn normalized_value(a: &NGramGraph, b: &NGramGraph) -> f64 {
    let denom = a.size().min(b.size());
    if denom == 0 {
        return 0.0;
    }
    value_sum(a, b) / denom as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::graph_of;
    use pmr_text::vocab::Vocabulary;

    fn grams(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn identical_graphs_score_one() {
        let mut space = Vocabulary::new();
        let g = graph_of(&mut space, &grams("a b c d"), 2);
        for s in
            [GraphSimilarity::Containment, GraphSimilarity::Value, GraphSimilarity::NormalizedValue]
        {
            assert!((s.compare(&g, &g) - 1.0).abs() < 1e-9, "{}", s.name());
        }
    }

    #[test]
    fn disjoint_graphs_score_zero() {
        let mut space = Vocabulary::new();
        let a = graph_of(&mut space, &grams("a b"), 1);
        let b = graph_of(&mut space, &grams("c d"), 1);
        for s in
            [GraphSimilarity::Containment, GraphSimilarity::Value, GraphSimilarity::NormalizedValue]
        {
            assert_eq!(s.compare(&a, &b), 0.0, "{}", s.name());
        }
    }

    #[test]
    fn empty_graphs_score_zero() {
        let g = NGramGraph::new();
        let mut space = Vocabulary::new();
        let h = graph_of(&mut space, &grams("a b"), 1);
        for s in
            [GraphSimilarity::Containment, GraphSimilarity::Value, GraphSimilarity::NormalizedValue]
        {
            assert_eq!(s.compare(&g, &h), 0.0);
            assert_eq!(s.compare(&g, &g), 0.0);
        }
    }

    #[test]
    fn containment_ignores_weights() {
        let mut space = Vocabulary::new();
        let a = graph_of(&mut space, &grams("a b a b a b"), 1); // heavy a-b
        let b = graph_of(&mut space, &grams("a b"), 1); // light a-b
        assert!((containment(&a, &b) - 1.0).abs() < 1e-9);
        // VS sees the weight imbalance (1 vs 5).
        assert!(value(&a, &b) < 1.0);
    }

    #[test]
    fn ns_softens_size_imbalance() {
        let mut space = Vocabulary::new();
        // Small graph fully contained in a big one.
        let small = graph_of(&mut space, &grams("a b"), 1);
        let big = graph_of(&mut space, &grams("a b c d e f g h"), 1);
        assert!(normalized_value(&small, &big) > value(&small, &big));
    }

    #[test]
    fn vs_matches_hand_computation() {
        let mut space = Vocabulary::new();
        let a = graph_of(&mut space, &grams("x y x y"), 1); // x-y weight 3
        let b = graph_of(&mut space, &grams("x y z"), 1); // x-y weight 1, y-z weight 1
                                                          // Common edge x-y: min/max = 1/3. |Ga|=1, |Gb|=2.
        assert!((value(&a, &b) - (1.0 / 3.0) / 2.0).abs() < 1e-9);
        assert!((normalized_value(&a, &b) - (1.0 / 3.0) / 1.0).abs() < 1e-9);
        assert!((containment(&a, &b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn names_match_the_paper() {
        assert_eq!(GraphSimilarity::Containment.name(), "CoS");
        assert_eq!(GraphSimilarity::Value.name(), "VS");
        assert_eq!(GraphSimilarity::NormalizedValue.name(), "NS");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::graph::graph_of;
    use pmr_text::vocab::Vocabulary;
    use proptest::prelude::*;

    fn arb_doc() -> impl Strategy<Value = Vec<String>> {
        proptest::collection::vec("[a-e]{1,2}", 0..15)
    }

    proptest! {
        #[test]
        fn similarities_are_symmetric_and_bounded(d1 in arb_doc(), d2 in arb_doc(), w in 1usize..4) {
            let mut space = Vocabulary::new();
            let a = graph_of(&mut space, &d1, w);
            let b = graph_of(&mut space, &d2, w);
            for s in [GraphSimilarity::Containment, GraphSimilarity::Value, GraphSimilarity::NormalizedValue] {
                let xy = s.compare(&a, &b);
                let yx = s.compare(&b, &a);
                prop_assert!((xy - yx).abs() < 1e-9, "{} not symmetric", s.name());
                prop_assert!(xy >= 0.0);
                // CoS and NS are ≤ 1; VS ≤ 1 as well (each common edge
                // contributes ≤ 1 and the denominator is ≥ the count).
                prop_assert!(xy <= 1.0 + 1e-9, "{} out of range: {xy}", s.name());
            }
        }

        #[test]
        fn vs_never_exceeds_ns_or_cos(d1 in arb_doc(), d2 in arb_doc()) {
            let mut space = Vocabulary::new();
            let a = graph_of(&mut space, &d1, 2);
            let b = graph_of(&mut space, &d2, 2);
            prop_assert!(value(&a, &b) <= normalized_value(&a, &b) + 1e-9);
            prop_assert!(value(&a, &b) <= containment(&a, &b) + 1e-9);
        }
    }
}
