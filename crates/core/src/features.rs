//! Sweep-scoped feature cache.
//!
//! The sweep's hot path used to re-extract every tweet's n-gram strings
//! (`gramify → Vec<String>`) for *each* of the 223 configurations — the
//! same redundant profile-construction cost that dominates content-based
//! Twitter profiling in general. [`FeatureCache`] removes that redundancy:
//! for every `(gram kind, n)` the interned [`TermId`] gram sequence of each
//! tweet (and the lowercased raw text feeding character grams) is computed
//! exactly once per prepared corpus and then shared — across
//! configurations, users and worker threads — as an immutable
//! [`Arc<GramTable>`].
//!
//! Determinism: a table is built by a single thread (losers of the
//! build race block on [`OnceLock::get_or_init`] and receive the winner's
//! table), gram ids are assigned in tweet-id order, and consumers only read
//! the finished immutable table, so every access pattern observes the same
//! ids regardless of thread count or scheduling.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use pmr_sim::TweetId;
use pmr_text::vocab::{TermId, Vocabulary};

/// Which alphabet a gram table is built over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GramKind {
    /// Token n-grams over the stop-filtered content.
    Token,
    /// Character n-grams over the lowercased raw text.
    Char,
}

impl GramKind {
    /// The kind selected by a configuration's `char_grams` flag.
    pub fn of(char_grams: bool) -> GramKind {
        if char_grams {
            GramKind::Char
        } else {
            GramKind::Token
        }
    }

    /// Short name for metrics and journal events.
    pub fn name(self) -> &'static str {
        match self {
            GramKind::Token => "token",
            GramKind::Char => "char",
        }
    }
}

/// The cache key: gram alphabet and n-gram size.
pub type FeatureKey = (GramKind, usize);

/// One fully built feature table: the interned gram sequence of every tweet
/// of the corpus, in tweet-id order, over a table-local vocabulary.
///
/// Gram ids are *global* to the table (corpus-wide, first-seen in tweet-id
/// order); per-user vectorizers remap them to their own dense local spaces
/// (`pmr_bag::IndexedVectorizer`), reproducing the exact ids a per-user
/// string interner would have assigned.
pub struct GramTable {
    kind: GramKind,
    n: usize,
    /// All gram ids, concatenated; tweet `i` owns `ids[offsets[i]..offsets[i + 1]]`.
    ids: Vec<TermId>,
    /// One past-the-end offset per tweet (`len = docs + 1`).
    offsets: Vec<usize>,
    /// Gram id ↔ surface form. Every model reads ids only; the strings
    /// stay here.
    vocab: Vocabulary,
}

impl GramTable {
    /// Build from each tweet's extracted gram strings, in tweet-id order.
    pub fn from_docs<I, D, S>(kind: GramKind, n: usize, docs: I) -> GramTable
    where
        I: IntoIterator<Item = D>,
        D: AsRef<[S]>,
        S: AsRef<str>,
    {
        let mut vocab = Vocabulary::new();
        let mut ids: Vec<TermId> = Vec::new();
        let mut offsets: Vec<usize> = vec![0];
        for doc in docs {
            for gram in doc.as_ref() {
                ids.push(vocab.intern(gram.as_ref()));
            }
            offsets.push(ids.len());
        }
        GramTable { kind, n, ids, offsets, vocab }
    }

    /// The gram alphabet.
    pub fn kind(&self) -> GramKind {
        self.kind
    }

    /// The n-gram size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of tweets covered.
    pub fn num_docs(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of distinct grams across the corpus.
    pub fn vocab_len(&self) -> usize {
        self.vocab.len()
    }

    /// A tweet's gram id sequence, in order of appearance.
    pub fn doc(&self, id: TweetId) -> &[TermId] {
        &self.ids[self.offsets[id.index()]..self.offsets[id.index() + 1]]
    }

    /// The surface form of a gram id.
    pub fn term(&self, id: TermId) -> &str {
        self.vocab.term(id)
    }

    /// Approximate resident size, for the `features.bytes` gauge.
    pub fn bytes(&self) -> usize {
        let ids = self.ids.len() * std::mem::size_of::<TermId>();
        let offsets = self.offsets.len() * std::mem::size_of::<usize>();
        // Each distinct term is stored twice (map key + terms table) plus
        // map/Vec bookkeeping; 2× content + a flat per-term estimate.
        let terms: usize = self.vocab.iter().map(|(_, t, _)| 2 * t.len() + 64).sum();
        ids + offsets + terms
    }
}

impl std::fmt::Debug for GramTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GramTable")
            .field("kind", &self.kind)
            .field("n", &self.n)
            .field("docs", &self.num_docs())
            .field("grams", &self.ids.len())
            .field("vocab", &self.vocab.len())
            .finish()
    }
}

/// The sweep-scoped cache: lazily built, immutable-once-built feature
/// tables plus the shared lowercased raw texts.
///
/// Lives inside [`crate::PreparedCorpus`] (which builds the tables, since
/// only it holds the token/raw-text inputs) and hands out `Arc` clones that
/// worker threads keep for the duration of a run.
#[derive(Default)]
pub struct FeatureCache {
    /// Lowercased raw text per tweet, computed once on first demand.
    lower: OnceLock<Vec<String>>,
    /// Per-key build cells. The outer lock is only held to look up or
    /// insert a cell — never while building — so builds of different keys
    /// proceed in parallel while duplicate requests for the same key block
    /// on the cell and share the winner's table.
    tables: Mutex<BTreeMap<FeatureKey, Arc<OnceLock<Arc<GramTable>>>>>,
    /// Total bytes across built tables (feeds the `features.bytes` gauge).
    bytes: AtomicU64,
}

impl FeatureCache {
    /// An empty cache.
    pub fn new() -> FeatureCache {
        FeatureCache::default()
    }

    /// The lowercased texts, building them with `build` exactly once.
    pub fn lowercased(&self, build: impl FnOnce() -> Vec<String>) -> &[String] {
        self.lower
            .get_or_init(|| {
                pmr_obs::counter_add("features.lowercase_builds", 1);
                build()
            })
            .as_slice()
    }

    /// The table for `key`, building it with `build` exactly once.
    pub fn table(&self, key: FeatureKey, build: impl FnOnce() -> GramTable) -> Arc<GramTable> {
        let cell = Arc::clone(
            self.tables.lock().unwrap_or_else(PoisonError::into_inner).entry(key).or_default(),
        );
        let mut built = false;
        let table = cell.get_or_init(|| {
            built = true;
            pmr_obs::counter_add("features.miss", 1);
            let _timer = pmr_obs::timer("features.build");
            let table = Arc::new(build());
            let bytes = table.bytes() as u64;
            let total = self.bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
            pmr_obs::gauge_set("features.bytes", total as f64);
            pmr_obs::event(
                "features",
                "table_built",
                &[
                    ("kind", table.kind().name().into()),
                    ("n", table.n().into()),
                    ("docs", table.num_docs().into()),
                    ("grams", table.ids.len().into()),
                    ("vocab", table.vocab_len().into()),
                    ("bytes", table.bytes().into()),
                ],
            );
            table
        });
        if !built {
            pmr_obs::counter_add("features.hit", 1);
        }
        Arc::clone(table)
    }

    /// Keys of the tables built so far.
    pub fn built_keys(&self) -> Vec<FeatureKey> {
        self.tables
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .filter(|(_, cell)| cell.get().is_some())
            .map(|(&key, _)| key)
            .collect()
    }

    /// Total estimated bytes across built tables.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for FeatureCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FeatureCache")
            .field("tables", &self.built_keys())
            .field("lowercased", &self.lower.get().is_some())
            .field("bytes", &self.bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> GramTable {
        GramTable::from_docs(GramKind::Token, 1, [&["a", "b", "a"][..], &[][..], &["b", "c"][..]])
    }

    #[test]
    fn gram_ids_are_first_seen_in_doc_order() {
        let t = table();
        assert_eq!(t.num_docs(), 3);
        assert_eq!(t.vocab_len(), 3);
        assert_eq!(t.doc(TweetId(0)), &[0, 1, 0]);
        assert_eq!(t.doc(TweetId(1)), &[] as &[TermId]);
        assert_eq!(t.doc(TweetId(2)), &[1, 2]);
        assert_eq!((t.term(1), t.term(2)), ("b", "c"));
    }

    #[test]
    fn cache_builds_each_key_once_and_shares_the_arc() {
        let cache = FeatureCache::new();
        let mut builds = 0;
        let a = cache.table((GramKind::Token, 1), || {
            builds += 1;
            table()
        });
        let b = cache.table((GramKind::Token, 1), || {
            builds += 1;
            table()
        });
        assert_eq!(builds, 1, "second lookup must hit the cache");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.built_keys(), vec![(GramKind::Token, 1)]);
        assert!(cache.bytes() > 0);
    }

    #[test]
    fn distinct_keys_build_distinct_tables() {
        let cache = FeatureCache::new();
        let a = cache.table((GramKind::Token, 1), table);
        let b = cache.table((GramKind::Char, 2), || {
            GramTable::from_docs(GramKind::Char, 2, [&["ab", "bc"][..]])
        });
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.built_keys().len(), 2);
    }

    #[test]
    fn lowercased_is_computed_once() {
        let cache = FeatureCache::new();
        let mut builds = 0;
        for _ in 0..3 {
            let texts = cache.lowercased(|| {
                builds += 1;
                vec!["abc".to_owned()]
            });
            assert_eq!(texts, ["abc".to_owned()]);
        }
        assert_eq!(builds, 1);
    }

    #[test]
    fn concurrent_lookups_converge_on_one_table() {
        let cache = FeatureCache::new();
        let tables: Vec<Arc<GramTable>> = std::thread::scope(|scope| {
            let handles: Vec<_> =
                (0..8).map(|_| scope.spawn(|| cache.table((GramKind::Token, 1), table))).collect();
            // pmr-lint: allow(lib-unwrap): test threads must not panic
            handles.into_iter().map(|h| h.join().expect("no panics")).collect()
        });
        for t in &tables[1..] {
            assert!(Arc::ptr_eq(&tables[0], t), "all threads must share one table");
        }
    }
}
