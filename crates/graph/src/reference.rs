//! The hash-map n-gram graph that the sorted edge list replaced, kept as
//! the reference the property tests below pin the production kernel
//! against, bit for bit: edge keys and weight bits after every merge, and
//! the score bits of CoS, VS and NS.

use std::collections::HashMap;

use pmr_text::vocab::TermId;

use crate::graph::edge_key;

/// A graph as an edge-key → weight hash map.
#[derive(Debug, Clone, Default)]
pub(crate) struct RefGraph {
    edges: HashMap<u64, f32>,
    merged_docs: usize,
}

impl RefGraph {
    /// Build by adding 1.0 per windowed co-occurrence.
    pub(crate) fn from_ids(ids: &[TermId], window: usize) -> RefGraph {
        let mut edges: HashMap<u64, f32> = HashMap::new();
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len().min(i + window + 1) {
                *edges.entry(edge_key(ids[i], ids[j])).or_insert(0.0) += 1.0;
            }
        }
        RefGraph { edges, merged_docs: 1 }
    }

    /// The update operator, probing the document's map per user edge.
    pub(crate) fn merge(&mut self, doc: &RefGraph) {
        let l = 1.0 / (self.merged_docs as f32 + 1.0);
        for (key, w) in self.edges.iter_mut() {
            let dw = doc.edges.get(key).copied().unwrap_or(0.0);
            *w += (dw - *w) * l;
        }
        for (key, &dw) in &doc.edges {
            self.edges.entry(*key).or_insert(dw * l);
        }
        self.edges.retain(|_, w| *w != 0.0);
        self.merged_docs += 1;
    }

    /// `(edge key, weight bits)`, ascending by key.
    pub(crate) fn sorted_bits(&self) -> Vec<(u64, u32)> {
        let mut edges: Vec<(u64, u32)> =
            self.edges.iter().map(|(&k, w)| (k, w.to_bits())).collect();
        edges.sort_unstable();
        edges
    }

    fn size(&self) -> usize {
        self.edges.len()
    }
}

/// VS/NS numerator: per-edge terms collected, sorted by key, then summed.
fn value_sum(a: &RefGraph, b: &RefGraph) -> f64 {
    let (small, large) = if a.size() <= b.size() { (a, b) } else { (b, a) };
    let mut terms: Vec<(u64, f64)> = Vec::new();
    for (key, &ws) in &small.edges {
        if let Some(&wl) = large.edges.get(key) {
            let (ws, wl) = (ws.abs() as f64, wl.abs() as f64);
            let hi = ws.max(wl);
            if hi > 0.0 {
                terms.push((*key, ws.min(wl) / hi));
            }
        }
    }
    terms.sort_unstable_by_key(|&(key, _)| key);
    let mut sum = 0.0f64;
    for &(_, term) in &terms {
        sum += term;
    }
    sum
}

fn common_edges(a: &RefGraph, b: &RefGraph) -> usize {
    let (small, large) = if a.size() <= b.size() { (a, b) } else { (b, a) };
    small.edges.keys().filter(|k| large.edges.contains_key(k)).count()
}

/// Reference CoS.
pub(crate) fn containment(a: &RefGraph, b: &RefGraph) -> f64 {
    let denom = a.size().min(b.size());
    if denom == 0 {
        return 0.0;
    }
    common_edges(a, b) as f64 / denom as f64
}

/// Reference VS.
pub(crate) fn value(a: &RefGraph, b: &RefGraph) -> f64 {
    let denom = a.size().max(b.size());
    if denom == 0 {
        return 0.0;
    }
    value_sum(a, b) / denom as f64
}

/// Reference NS.
pub(crate) fn normalized_value(a: &RefGraph, b: &RefGraph) -> f64 {
    let denom = a.size().min(b.size());
    if denom == 0 {
        return 0.0;
    }
    value_sum(a, b) / denom as f64
}

mod proptests {
    use super::*;
    use crate::graph::NGramGraph;
    use crate::similarity::GraphSimilarity;
    use proptest::prelude::*;

    /// Documents over a six-id alphabet, so repeated grams, repeated pairs
    /// and self-edges are common; lengths 0 and 1 (no edges) included.
    fn arb_doc() -> impl Strategy<Value = Vec<TermId>> {
        proptest::collection::vec(0u32..6, 0..14)
    }

    fn bits(g: &NGramGraph) -> Vec<(u64, u32)> {
        g.raw().iter().map(|&(k, w)| (k, w.to_bits())).collect()
    }

    fn ref_score(s: GraphSimilarity, a: &RefGraph, b: &RefGraph) -> f64 {
        match s {
            GraphSimilarity::Containment => containment(a, b),
            GraphSimilarity::Value => value(a, b),
            GraphSimilarity::NormalizedValue => normalized_value(a, b),
        }
    }

    const ALL: [GraphSimilarity; 3] =
        [GraphSimilarity::Containment, GraphSimilarity::Value, GraphSimilarity::NormalizedValue];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Building, then merging a random document sequence: identical
        /// edge keys and weight bits after every step.
        #[test]
        fn build_and_merge_match_the_reference(
            docs in proptest::collection::vec(arb_doc(), 0..9),
            window in 1usize..5,
        ) {
            let mut user = NGramGraph::new();
            let mut reference = RefGraph::default();
            for (step, doc) in docs.iter().enumerate() {
                let g = NGramGraph::from_ids(doc, window);
                let r = RefGraph::from_ids(doc, window);
                prop_assert_eq!(bits(&g), r.sorted_bits(), "document {step} graph differs");
                user.merge(&g);
                reference.merge(&r);
                prop_assert_eq!(bits(&user), reference.sorted_bits(), "user graph differs after merge {step}");
                prop_assert_eq!(user.merged_docs(), step + 1);
            }
        }

        /// CoS, VS and NS of a merged user graph against a document graph,
        /// and of two document graphs: identical score bits.
        #[test]
        fn similarities_match_the_reference(
            train in proptest::collection::vec(arb_doc(), 0..7),
            probe in arb_doc(),
            other in arb_doc(),
            window in 1usize..5,
        ) {
            let mut user = NGramGraph::new();
            let mut reference = RefGraph::default();
            for doc in &train {
                user.merge(&NGramGraph::from_ids(doc, window));
                reference.merge(&RefGraph::from_ids(doc, window));
            }
            let (p, rp) = (NGramGraph::from_ids(&probe, window), RefGraph::from_ids(&probe, window));
            let (o, ro) = (NGramGraph::from_ids(&other, window), RefGraph::from_ids(&other, window));
            for s in ALL {
                for (x, y, rx, ry) in [(&user, &p, &reference, &rp), (&p, &user, &rp, &reference), (&p, &o, &rp, &ro)] {
                    let (got, want) = (s.compare(x, y), ref_score(s, rx, ry));
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "{}: {got} vs reference {want}", s.name());
                }
            }
        }
    }
}
