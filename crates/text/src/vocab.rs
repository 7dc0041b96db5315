//! Vocabulary interning and corpus-level stop-word removal.
//!
//! The paper removes the 100 most frequent tokens across all *training*
//! tweets, "as they practically correspond to stop words" (§4) — a
//! language-agnostic alternative to stop-word lists, which would be
//! impossible for a multilingual corpus. [`StopWords`] implements exactly
//! that rule; [`Vocabulary`] is the shared string-interning table used by
//! every representation model so that n-grams and tokens are compared as
//! dense `u32` ids rather than strings.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

/// A compact interned identifier for a token or n-gram.
pub type TermId = u32;

/// A bidirectional string ↔ id table with occurrence counts.
///
/// Ids are assigned densely in first-seen order, so they can index into
/// `Vec`-backed side tables (document frequencies, topic counts, …).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Vocabulary {
    map: HashMap<String, TermId>,
    terms: Vec<String>,
    counts: Vec<u64>,
}

impl Vocabulary {
    /// Create an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `term`, incrementing its occurrence count.
    pub fn add(&mut self, term: &str) -> TermId {
        match self.map.get(term) {
            Some(&id) => {
                self.counts[id as usize] += 1;
                id
            }
            None => {
                let id = self.terms.len() as TermId;
                self.map.insert(term.to_owned(), id);
                self.terms.push(term.to_owned());
                self.counts.push(1);
                id
            }
        }
    }

    /// Intern `term` without counting an occurrence (lookup-or-create).
    pub fn intern(&mut self, term: &str) -> TermId {
        match self.map.get(term) {
            Some(&id) => id,
            None => {
                let id = self.terms.len() as TermId;
                self.map.insert(term.to_owned(), id);
                self.terms.push(term.to_owned());
                self.counts.push(0);
                id
            }
        }
    }

    /// Look up an already-interned term.
    pub fn get(&self, term: &str) -> Option<TermId> {
        self.map.get(term).copied()
    }

    /// The surface form of an id. Panics on an id not issued by this table.
    pub fn term(&self, id: TermId) -> &str {
        &self.terms[id as usize]
    }

    /// Total occurrences recorded for an id.
    pub fn count(&self, id: TermId) -> u64 {
        self.counts[id as usize]
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Ids of the `k` most frequent terms (ties broken by first-seen order,
    /// which makes the result deterministic).
    pub fn top_k(&self, k: usize) -> Vec<TermId> {
        let mut ids: Vec<TermId> = (0..self.terms.len() as TermId).collect();
        ids.sort_by_key(|&id| (std::cmp::Reverse(self.counts[id as usize]), id));
        ids.truncate(k);
        ids
    }

    /// Iterate over `(id, term, count)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &str, u64)> {
        self.terms.iter().enumerate().map(move |(i, t)| (i as TermId, t.as_str(), self.counts[i]))
    }
}

/// Dense local ids for the ids of a shared [`Vocabulary`], assigned in
/// first-seen order. Fed the shared ids of a sequence of documents, it
/// assigns exactly the ids a fresh `Vocabulary` interning the same strings
/// would, since the shared table gives equal strings equal ids. The map is
/// a flat array indexed by shared id (shared vocabularies are dense), so a
/// lookup is one index and nothing is hashed.
#[derive(Debug, Clone, Default)]
pub struct LocalIds {
    /// Shared id → local id; [`LocalIds::UNSEEN`] for ids not interned.
    local: Vec<TermId>,
    /// Number of local ids assigned.
    len: TermId,
}

impl LocalIds {
    const UNSEEN: TermId = TermId::MAX;

    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// The local id of `shared`, assigning the next one on first sight.
    #[inline]
    pub fn intern(&mut self, shared: TermId) -> TermId {
        let g = shared as usize;
        if g >= self.local.len() {
            self.local.resize(g + 1, Self::UNSEEN);
        }
        if self.local[g] == Self::UNSEEN {
            self.local[g] = self.len;
            self.len += 1;
        }
        self.local[g]
    }

    /// The local id of `shared`, if it has been interned.
    #[inline]
    pub fn get(&self, shared: TermId) -> Option<TermId> {
        self.local.get(shared as usize).copied().filter(|&id| id != Self::UNSEEN)
    }

    /// Number of local ids assigned.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether no id has been interned.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The corpus-level stop-word filter of the paper: the `k` most frequent
/// tokens across all training tweets (k = 100 in the paper).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StopWords {
    words: std::collections::HashSet<String>,
}

impl StopWords {
    /// Number of stop tokens the paper removes.
    pub const PAPER_K: usize = 100;

    /// Build the filter from an iterator over *all training tokens* (with
    /// repetition), keeping the `k` most frequent as stop words.
    pub fn from_token_stream<'a, I>(tokens: I, k: usize) -> Self
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut vocab = Vocabulary::new();
        for t in tokens {
            vocab.add(t);
        }
        Self::from_vocabulary(&vocab, k)
    }

    /// Build the filter from a pre-counted vocabulary.
    pub fn from_vocabulary(vocab: &Vocabulary, k: usize) -> Self {
        let words = vocab.top_k(k).into_iter().map(|id| vocab.term(id).to_owned()).collect();
        StopWords { words }
    }

    /// Whether `token` is a stop word.
    pub fn contains(&self, token: &str) -> bool {
        self.words.contains(token)
    }

    /// Number of stop words (≤ k; fewer if the corpus is tiny).
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the filter is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Filter a token sequence in place, dropping stop words.
    pub fn filter(&self, tokens: &mut Vec<String>) {
        tokens.retain(|t| !self.contains(t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let mut v = Vocabulary::new();
        let a = v.add("apple");
        let b = v.add("banana");
        let a2 = v.add("apple");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(v.term(a), "apple");
        assert_eq!(v.count(a), 2);
        assert_eq!(v.count(b), 1);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn intern_does_not_count() {
        let mut v = Vocabulary::new();
        let a = v.intern("apple");
        assert_eq!(v.count(a), 0);
        v.add("apple");
        assert_eq!(v.count(a), 1);
    }

    #[test]
    fn top_k_orders_by_frequency_then_first_seen() {
        let mut v = Vocabulary::new();
        for _ in 0..3 {
            v.add("the");
        }
        for _ in 0..3 {
            v.add("a");
        }
        v.add("rare");
        let top = v.top_k(2);
        assert_eq!(v.term(top[0]), "the"); // tie with "a" broken by id order
        assert_eq!(v.term(top[1]), "a");
    }

    #[test]
    fn top_k_truncates_to_vocab_size() {
        let mut v = Vocabulary::new();
        v.add("only");
        assert_eq!(v.top_k(100).len(), 1);
    }

    #[test]
    fn stopwords_remove_most_frequent() {
        let stream = ["the", "the", "the", "cat", "sat", "the", "mat", "cat"];
        let sw = StopWords::from_token_stream(stream, 2);
        assert!(sw.contains("the"));
        assert!(sw.contains("cat"));
        assert!(!sw.contains("mat"));
        let mut toks = vec!["the".to_owned(), "mat".to_owned(), "cat".to_owned()];
        sw.filter(&mut toks);
        assert_eq!(toks, vec!["mat".to_owned()]);
    }

    #[test]
    fn paper_k_is_one_hundred() {
        assert_eq!(StopWords::PAPER_K, 100);
    }

    #[test]
    fn vocabulary_iter_roundtrip() {
        let mut v = Vocabulary::new();
        v.add("x");
        v.add("y");
        v.add("x");
        let collected: Vec<(TermId, String, u64)> =
            v.iter().map(|(i, t, c)| (i, t.to_owned(), c)).collect();
        assert_eq!(collected, vec![(0, "x".to_owned(), 2), (1, "y".to_owned(), 1)]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Interning the same string twice always yields the same id, and
        /// `term` inverts `add`.
        #[test]
        fn intern_roundtrip(words in proptest::collection::vec("[a-z]{1,8}", 1..50)) {
            let mut v = Vocabulary::new();
            let ids: Vec<TermId> = words.iter().map(|w| v.add(w)).collect();
            for (w, id) in words.iter().zip(&ids) {
                prop_assert_eq!(v.term(*id), w.as_str());
                prop_assert_eq!(v.get(w), Some(*id));
            }
        }

        /// Total counts equal the stream length.
        #[test]
        fn counts_sum_to_stream_len(words in proptest::collection::vec("[a-z]{1,4}", 0..100)) {
            let mut v = Vocabulary::new();
            for w in &words {
                v.add(w);
            }
            let total: u64 = v.iter().map(|(_, _, c)| c).sum();
            prop_assert_eq!(total, words.len() as u64);
        }

        /// Stop-word filtering never removes non-top-k tokens' order.
        #[test]
        fn stopword_filter_preserves_order(words in proptest::collection::vec("[a-z]{1,3}", 0..60), k in 0usize..5) {
            let sw = StopWords::from_token_stream(words.iter().map(|s| s.as_str()), k);
            let mut filtered = words.clone();
            sw.filter(&mut filtered);
            // filtered is a subsequence of words
            let mut it = words.iter();
            for f in &filtered {
                prop_assert!(it.any(|w| w == f));
            }
            prop_assert!(sw.len() <= k);
        }
    }
}
