//! N-gram graph construction and the update (merge) operator.
//!
//! A graph is one edge list sorted by edge key. Building a document graph
//! sorts its windowed pair keys and run-length counts them; the update
//! operator is a two-pointer merge of two such lists; the similarities
//! (`crate::similarity`) probe one sorted list into the other. Nothing is
//! hashed, and every traversal visits edges in ascending key order.

use serde::value::{expect_field, expect_object};
use serde::{Deserialize, Error, Serialize, Value};

use pmr_text::vocab::{TermId, Vocabulary};

/// Packs an undirected edge into a single key with the smaller endpoint in
/// the high half, making `(a, b)` and `(b, a)` identical.
pub(crate) fn edge_key(a: TermId, b: TermId) -> u64 {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    ((lo as u64) << 32) | hi as u64
}

/// Unpack an edge key into its endpoints.
fn edge_endpoints(key: u64) -> (TermId, TermId) {
    ((key >> 32) as TermId, (key & 0xFFFF_FFFF) as TermId)
}

/// A shared interning space so that graphs built from different documents
/// use the same vertex ids and can be compared edge-by-edge.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct GraphSpace {
    vocab: Vocabulary,
}

impl GraphSpace {
    /// An empty space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct n-grams interned so far.
    pub fn len(&self) -> usize {
        self.vocab.len()
    }

    /// Whether no n-gram has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.vocab.is_empty()
    }

    /// The vertex ids of an ordered n-gram sequence; grams not seen before
    /// get the next ids, in order of first appearance.
    pub fn intern<S: AsRef<str>>(&mut self, grams: &[S]) -> Vec<TermId> {
        grams.iter().map(|g| self.vocab.intern(g.as_ref())).collect()
    }

    /// Build the graph of a document from its ordered n-gram sequence:
    /// [`GraphSpace::intern`], then [`NGramGraph::from_ids`].
    pub fn graph_from_grams<S: AsRef<str>>(&mut self, grams: &[S], window: usize) -> NGramGraph {
        NGramGraph::from_ids(&self.intern(grams), window)
    }
}

/// An undirected weighted n-gram graph (a document model or, after merging,
/// a user model).
#[derive(Debug, Clone, Default)]
pub struct NGramGraph {
    /// `(edge key, weight)`, strictly ascending by key.
    edges: Vec<(u64, f32)>,
    /// How many document graphs this graph aggregates (1 for a plain
    /// document model). Drives the learning factor of the update operator.
    merged_docs: usize,
}

impl NGramGraph {
    /// An empty graph (merging into it behaves as the identity).
    pub fn new() -> Self {
        Self::default()
    }

    /// Build the graph of a document from its ordered vertex-id sequence.
    ///
    /// Every pair of ids at positions `i < j ≤ i + window` is connected;
    /// each co-occurrence adds 1 to the edge weight. This is the windowed
    /// co-occurrence rule of Giannakopoulos et al. with window size `n`.
    /// The pair keys are sorted and run-length counted; a run of `c` equal
    /// keys gets weight `c as f32`, the same bits as adding `1.0` `c` times
    /// for any count below 2^24.
    pub fn from_ids(ids: &[TermId], window: usize) -> NGramGraph {
        assert!(window >= 1, "window must be at least 1");
        let mut keys: Vec<u64> = Vec::with_capacity(ids.len() * window.min(ids.len()));
        for (i, &a) in ids.iter().enumerate() {
            let end = ids.len().min((i + 1).saturating_add(window));
            keys.extend(ids[i + 1..end].iter().map(|&b| edge_key(a, b)));
        }
        keys.sort_unstable();
        let edges = keys.chunk_by(|x, y| x == y).map(|run| (run[0], run.len() as f32)).collect();
        NGramGraph { edges, merged_docs: 1 }
    }

    /// Number of edges — the graph size `|G|` used by all similarities.
    pub fn size(&self) -> usize {
        self.edges.len()
    }

    /// Whether the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// How many document graphs were merged into this one.
    pub fn merged_docs(&self) -> usize {
        self.merged_docs
    }

    /// The weight of the edge between two grams (0 if absent).
    pub fn weight(&self, a: TermId, b: TermId) -> f32 {
        match self.edges.binary_search_by_key(&edge_key(a, b), |&(k, _)| k) {
            Ok(at) => self.edges[at].1,
            Err(_) => 0.0,
        }
    }

    /// Whether the edge between two grams exists.
    pub fn contains(&self, a: TermId, b: TermId) -> bool {
        self.edges.binary_search_by_key(&edge_key(a, b), |&(k, _)| k).is_ok()
    }

    /// Iterate over `(endpoint_a, endpoint_b, weight)` triples in ascending
    /// edge-key order.
    pub fn edges(&self) -> impl Iterator<Item = (TermId, TermId, f32)> + '_ {
        self.edges.iter().map(|&(k, w)| {
            let (a, b) = edge_endpoints(k);
            (a, b, w)
        })
    }

    /// The sorted edge list, for the similarity kernels.
    pub(crate) fn raw(&self) -> &[(u64, f32)] {
        &self.edges
    }

    /// The update operator (Giannakopoulos & Palpanas 2010): merge a
    /// document graph into this (user) graph with learning factor
    /// `l = 1 / (merged_docs + 1)`, so that after merging `k` documents
    /// every edge weight is the running average of its per-document weights
    /// (documents lacking an edge contribute 0).
    ///
    /// A merge of the two sorted edge lists: each document edge is placed
    /// with a `partition_point` over the user edges not yet passed, and the
    /// user edges before it (absent from the document, `dw = 0`) are copied
    /// as one run. Each edge gets `w + (dw - w) · l`, or `dw · l` when new;
    /// edges whose weight reaches 0 are dropped.
    pub fn merge(&mut self, doc: &NGramGraph) {
        let l = 1.0 / (self.merged_docs as f32 + 1.0);
        let absent = |&(k, w): &(u64, f32)| (k, w + (0.0 - w) * l);
        let mut merged = Vec::with_capacity(self.edges.len() + doc.edges.len());
        let mut rest = self.edges.as_slice();
        for &(key, dw) in &doc.edges {
            let below = rest.partition_point(|&(k, _)| k < key);
            merged.extend(rest[..below].iter().map(absent).filter(|&(_, w)| w != 0.0));
            rest = &rest[below..];
            let w = match rest.first() {
                Some(&(k, w)) if k == key => {
                    rest = &rest[1..];
                    w + (dw - w) * l
                }
                _ => dw * l,
            };
            if w != 0.0 {
                merged.push((key, w));
            }
        }
        merged.extend(rest.iter().map(absent).filter(|&(_, w)| w != 0.0));
        self.edges = merged;
        self.merged_docs += 1;
    }
}

/// The wire format is the one a derived `HashMap<u64, f32>` field gives:
/// `{"edges":{"<key>":<weight>,...},"merged_docs":<n>}`, object keys in
/// string order, so serve snapshots keep their bytes.
impl Serialize for NGramGraph {
    fn serialize(&self) -> Value {
        let mut edges: Vec<(String, Value)> =
            self.edges.iter().map(|&(k, w)| (k.to_string(), w.serialize())).collect();
        edges.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        Value::Object(vec![
            ("edges".to_owned(), Value::Object(edges)),
            ("merged_docs".to_owned(), self.merged_docs.serialize()),
        ])
    }
}

/// Decoding sorts the edges numerically (the wire order is string order,
/// `"10"` before `"9"`) and rejects a non-numeric or duplicate key, so a
/// decoded graph always holds the strictly ascending list the merge and the
/// similarities rely on.
impl Deserialize for NGramGraph {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        let obj = expect_object(v, "NGramGraph")?;
        let entries = expect_object(expect_field(obj, "edges", "NGramGraph")?, "NGramGraph edges")?;
        let mut edges = entries
            .iter()
            .map(|(k, w)| {
                let key =
                    k.parse::<u64>().map_err(|_| Error::msg(format!("bad edge key {k:?}")))?;
                Ok((key, f32::deserialize(w)?))
            })
            .collect::<Result<Vec<(u64, f32)>, Error>>()?;
        edges.sort_unstable_by_key(|&(k, _)| k);
        if let Some(pair) = edges.windows(2).find(|pair| pair[0].0 == pair[1].0) {
            return Err(Error::msg(format!("duplicate edge key {}", pair[0].0)));
        }
        let merged_docs = usize::deserialize(expect_field(obj, "merged_docs", "NGramGraph")?)?;
        Ok(NGramGraph { edges, merged_docs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grams(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn edge_keys_are_symmetric() {
        assert_eq!(edge_key(3, 7), edge_key(7, 3));
        assert_ne!(edge_key(3, 7), edge_key(3, 8));
        assert_eq!(edge_endpoints(edge_key(3, 7)), (3, 7));
    }

    #[test]
    fn window_one_connects_adjacent_grams() {
        let mut space = GraphSpace::new();
        let g = space.graph_from_grams(&grams("a b c"), 1);
        assert_eq!(g.size(), 2); // a-b, b-c
        let a = 0;
        let b = 1;
        let c = 2;
        assert!(g.contains(a, b));
        assert!(g.contains(b, c));
        assert!(!g.contains(a, c));
    }

    #[test]
    fn window_two_reaches_one_further() {
        let mut space = GraphSpace::new();
        let g = space.graph_from_grams(&grams("a b c"), 2);
        assert_eq!(g.size(), 3); // a-b, a-c, b-c
    }

    #[test]
    fn repeated_cooccurrence_increases_weight() {
        let mut space = GraphSpace::new();
        let g = space.graph_from_grams(&grams("a b a b"), 1);
        // Adjacent pairs: (a,b), (b,a), (a,b) — all the same undirected edge.
        assert_eq!(g.weight(0, 1), 3.0);
    }

    #[test]
    fn same_gram_twice_in_window_forms_self_edge() {
        let mut space = GraphSpace::new();
        let g = space.graph_from_grams(&grams("a a"), 1);
        assert_eq!(g.weight(0, 0), 1.0);
    }

    #[test]
    fn order_matters_through_shared_space() {
        // "bob sues" vs "sues bob": same grams, different *edges* only if
        // window < distance; with bigram tokens the graphs coincide, but
        // with the grams of a longer phrase they differ.
        let mut space = GraphSpace::new();
        let g1 = space.graph_from_grams(&grams("bob sues jim"), 1);
        let g2 = space.graph_from_grams(&grams("jim sues bob"), 1);
        // Both contain bob-sues and sues-jim edges (undirected), so these
        // tiny graphs coincide; global context shows up through *window*
        // composition:
        let g3 = space.graph_from_grams(&grams("bob sues jim hard"), 1);
        assert!(g1.size() == g2.size());
        assert!(g3.size() > g1.size());
    }

    #[test]
    fn merge_averages_weights() {
        let mut space = GraphSpace::new();
        let d1 = space.graph_from_grams(&grams("a b"), 1); // a-b: 1
        let d2 = space.graph_from_grams(&grams("a b a b"), 1); // a-b: 3
        let mut user = NGramGraph::new();
        user.merge(&d1);
        assert_eq!(user.weight(0, 1), 1.0);
        user.merge(&d2);
        assert_eq!(user.weight(0, 1), 2.0); // average of 1 and 3
        assert_eq!(user.merged_docs(), 2);
    }

    #[test]
    fn merge_dilutes_edges_missing_from_new_docs() {
        let mut space = GraphSpace::new();
        let d1 = space.graph_from_grams(&grams("a b"), 1);
        let d2 = space.graph_from_grams(&grams("c d"), 1);
        let mut user = NGramGraph::new();
        user.merge(&d1);
        user.merge(&d2);
        // a-b averaged over 2 docs: (1 + 0)/2; c-d likewise.
        assert_eq!(user.weight(0, 1), 0.5);
        assert_eq!(user.weight(2, 3), 0.5);
    }

    #[test]
    fn merge_into_empty_is_identity() {
        let mut space = GraphSpace::new();
        let d = space.graph_from_grams(&grams("a b c"), 2);
        let mut user = NGramGraph::new();
        user.merge(&d);
        assert_eq!(user.size(), d.size());
        for (a, b, w) in d.edges() {
            assert_eq!(user.weight(a, b), w);
        }
    }

    #[test]
    fn from_ids_counts_pairs_in_key_order() {
        let g = NGramGraph::from_ids(&[2, 0, 2, 0, 0], 1);
        // Pairs 2-0, 0-2, 2-0, 0-0: edge 0-2 three times, self-edge 0-0 once.
        assert_eq!(g.raw(), &[(edge_key(0, 0), 1.0), (edge_key(0, 2), 3.0)]);
        assert_eq!(g.merged_docs(), 1);
    }

    #[test]
    fn merge_drops_edges_that_reach_zero() {
        // A decoded graph claiming no merged documents merges with l = 1:
        // its edges absent from the document fall to exactly 0 and go.
        let mut g: NGramGraph =
            serde_json::from_str(r#"{"edges":{"1":2,"5":3,"9":1},"merged_docs":0}"#)
                .expect("decodes");
        g.merge(&NGramGraph { edges: vec![(5, 4.0), (7, 1.0)], merged_docs: 1 });
        assert_eq!(g.raw(), &[(5, 4.0), (7, 1.0)]);
        assert_eq!(g.merged_docs(), 1);
    }

    #[test]
    fn serialized_json_is_the_hash_map_wire_format() {
        // Keys 1, 9 and 2^32 + 10 in string order ("1" < "4294967306" < "9"),
        // weights as shortest round-trip decimals of the f32 values.
        let g =
            NGramGraph { edges: vec![(1, 0.5), (9, 1.0), ((1 << 32) | 10, 0.1)], merged_docs: 2 };
        let json = serde_json::to_string(&g).expect("serializes");
        assert_eq!(
            json,
            r#"{"edges":{"1":0.5,"4294967306":0.10000000149011612,"9":1},"merged_docs":2}"#
        );
        let back: NGramGraph = serde_json::from_str(&json).expect("decodes");
        assert_eq!(back.raw(), g.raw(), "decode must restore numeric key order");
        assert_eq!(back.merged_docs(), 2);
        assert_eq!(serde_json::to_string(&back).expect("re-serializes"), json);
    }

    #[test]
    fn decode_rejects_duplicate_and_non_numeric_keys() {
        for bad in [
            r#"{"edges":{"7":1,"9":2,"7":3},"merged_docs":1}"#,
            r#"{"edges":{"7":1,"07":2},"merged_docs":1}"#,
            r#"{"edges":{"x":1},"merged_docs":1}"#,
            r#"{"edges":{"-1":1},"merged_docs":1}"#,
        ] {
            assert!(serde_json::from_str::<NGramGraph>(bad).is_err(), "{bad} must not decode");
        }
    }

    #[test]
    fn empty_gram_sequences_yield_empty_graphs() {
        let mut space = GraphSpace::new();
        let g = space.graph_from_grams::<String>(&[], 3);
        assert!(g.is_empty());
        let g = space.graph_from_grams(&grams("solo"), 3);
        assert!(g.is_empty(), "a single gram has no co-occurrences");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// After merging k single-doc graphs, every edge weight equals the
        /// arithmetic mean of its per-document weights.
        #[test]
        fn merge_is_running_average(
            docs in proptest::collection::vec(
                proptest::collection::vec("[ab]{1,2}", 2..8), 1..6),
            window in 1usize..3,
        ) {
            let mut space = GraphSpace::new();
            let doc_graphs: Vec<NGramGraph> =
                docs.iter().map(|d| space.graph_from_grams(d, window)).collect();
            let mut user = NGramGraph::new();
            for g in &doc_graphs {
                user.merge(g);
            }
            let k = doc_graphs.len() as f32;
            for (a, b, w) in user.edges() {
                let mean: f32 =
                    doc_graphs.iter().map(|g| g.weight(a, b)).sum::<f32>() / k;
                prop_assert!((w - mean).abs() < 1e-4, "edge ({a},{b}): {w} vs {mean}");
            }
        }

        /// Graph size is bounded by the number of windowed pairs.
        #[test]
        fn size_is_bounded(dgrams in proptest::collection::vec("[a-d]{1,2}", 0..20), window in 1usize..4) {
            let mut space = GraphSpace::new();
            let g = space.graph_from_grams(&dgrams, window);
            let max_pairs: usize = (0..dgrams.len())
                .map(|i| dgrams.len().min(i + window + 1) - i - 1)
                .sum();
            prop_assert!(g.size() <= max_pairs);
        }
    }
}
