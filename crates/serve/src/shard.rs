//! Shard state: the per-user online models and the message protocol.
//!
//! Every user's model and candidate window live in exactly one logical
//! shard (`user_id % shards`), and the single ingest thread sends a user's
//! messages through that shard's FIFO mailbox in global stream order. A
//! user's state therefore evolves through the same sequence of updates no
//! matter how many shards or threads exist — the mechanical layout only
//! changes *which thread* applies the sequence, never the sequence itself.
//! That argument is the whole determinism proof; everything else in this
//! module is bookkeeping. The thread-scheduling half lives in
//! [`crate::runtime`]; this module owns the pure state transition
//! ([`ShardState::apply`]). The [`QueryScratch`] a worker lends to `apply`
//! holds only reusable buffers, never state: every query overwrites what
//! it reads of them.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use pmr_bag::{ScoringKernel, SparseVector};
use pmr_core::{rank_cmp, OnlineGraphModel, OnlineProfile};
use pmr_graph::NGramGraph;
use pmr_sim::{Timestamp, TweetId, UserId};
use pmr_topics::{TopicBackground, TopicDoc, TopicProfile};
use serde::{Deserialize, Serialize};

use crate::config::{EngineConfig, ServeModel};
use crate::snapshot::{UserModelSnapshot, UserSnapshot, WindowEntrySnapshot};

/// A tweet's model-ready features, computed once at ingest and shared by
/// reference with every shard that sees the tweet.
#[derive(Debug, Clone, PartialEq)]
pub enum TweetFeatures {
    /// Unit-normalized bag vector over the engine's shared vectorizer.
    Bag(SparseVector),
    /// Document graph over the engine's shared gram-id space.
    Graph(NGramGraph),
    /// Token ids plus the fold-in seed key for the topic family.
    Topic(TopicDoc),
}

/// One scored tweet in a recommendation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecItem {
    /// The recommended tweet's id.
    pub tweet: u32,
    /// Its similarity to the user's model.
    pub score: f64,
}

/// The engine's answer to one `recommend(user, k, now)` call.
///
/// Deliberately carries no timing fields: a recommendation log is a pure
/// function of the event stream and the [`EngineConfig`], so two runs with
/// different shard or thread counts must produce byte-identical logs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Recommendation {
    /// Sequential query id, assigned at issue time.
    pub query: u64,
    /// The queried user.
    pub user: u32,
    /// The query's time horizon: only candidates posted at or before this
    /// instant are eligible.
    pub now: Timestamp,
    /// Top-k candidates, best first; ties broken by ascending tweet id.
    pub items: Vec<RecItem>,
}

/// Messages flowing from the ingest thread into a shard.
#[derive(Debug)]
pub(crate) enum ShardMsg {
    /// A tweet entered `user`'s feed: remember it as a candidate.
    Candidate { user: UserId, tweet: TweetId, at: Timestamp, features: Arc<TweetFeatures> },
    /// `user` retweeted: fold the original's features into their model.
    Observe { user: UserId, features: Arc<TweetFeatures> },
    /// Score `user`'s candidate window as of `now` and reply.
    Query { id: u64, user: UserId, k: usize, now: Timestamp },
    /// Swap in a (re)trained topic background. Posted by the single writer
    /// to every shard's FIFO at a fixed stream position, so each shard sees
    /// the epoch boundary at the same point of its message sequence no
    /// matter the layout — the same argument that covers every other
    /// message.
    Epoch(Arc<TopicBackground>),
    /// Emit the shard's full state; processing continues afterwards.
    Snapshot,
    /// Test-only: make the worker panic, exercising the abort protocol.
    #[cfg(test)]
    Poison,
}

/// Messages flowing back from a shard to the engine.
#[derive(Debug)]
pub(crate) enum ShardReply {
    /// Answer to a [`ShardMsg::Query`].
    Recommendation(Recommendation),
    /// Answer to a [`ShardMsg::Snapshot`].
    SnapshotPart { users: Vec<UserSnapshot> },
    /// The worker's event loop panicked. Sent from the panic guard so the
    /// engine fails fast instead of hanging on a snapshot barrier the dead
    /// shard will never answer.
    Aborted {
        /// The dead worker's shard index.
        shard: usize,
        /// The panic payload, if it was a string.
        detail: String,
    },
}

/// The per-user online model, matching the engine's [`ServeModel`]: the
/// engine's one per-user model dispatch. Each variant holds only what is
/// the user's own — a decayed vector, a merged graph, a decayed θ
/// accumulator. The feature spaces are shared: document features arrive
/// prebuilt, and the topic background lives once per shard ([`FoldIns`]).
#[derive(Debug)]
enum UserModel {
    Bag(OnlineProfile),
    Graph(OnlineGraphModel),
    Topic(TopicProfile),
}

/// One remembered feed tweet.
#[derive(Debug)]
struct WindowEntry {
    tweet: TweetId,
    at: Timestamp,
    features: Arc<TweetFeatures>,
}

/// One user's complete serving state: their model plus the bounded window
/// of recent feed tweets still eligible for recommendation.
#[derive(Debug)]
pub(crate) struct UserState {
    model: UserModel,
    window: VecDeque<WindowEntry>,
}

impl UserState {
    fn new(model: ServeModel) -> UserState {
        let model = match model {
            ServeModel::Bag { decay, .. } => UserModel::Bag(OnlineProfile::new(decay)),
            ServeModel::Graph { similarity, .. } => {
                UserModel::Graph(OnlineGraphModel::new(similarity))
            }
            ServeModel::Topic { topics, decay, .. } => {
                UserModel::Topic(TopicProfile::new(decay, topics))
            }
        };
        UserState { model, window: VecDeque::new() }
    }

    /// Rebuild a state from its snapshot, resolving window entries' tweet
    /// ids back to features through `resolve`.
    pub(crate) fn restore(
        snapshot: &UserSnapshot,
        resolve: &dyn Fn(TweetId) -> Option<Arc<TweetFeatures>>,
    ) -> UserState {
        let model = match &snapshot.model {
            UserModelSnapshot::Bag(profile) => UserModel::Bag(profile.clone()),
            UserModelSnapshot::Graph(graph) => UserModel::Graph(graph.clone()),
            UserModelSnapshot::Topic(profile) => UserModel::Topic(profile.clone()),
        };
        let window = snapshot
            .window
            .iter()
            .filter_map(|e| {
                let features = resolve(TweetId(e.tweet))?;
                Some(WindowEntry { tweet: TweetId(e.tweet), at: e.at, features })
            })
            .collect();
        UserState { model, window }
    }

    fn snapshot(&self, user: UserId) -> UserSnapshot {
        let model = match &self.model {
            UserModel::Bag(profile) => UserModelSnapshot::Bag(profile.clone()),
            UserModel::Graph(graph) => UserModelSnapshot::Graph(graph.clone()),
            UserModel::Topic(profile) => UserModelSnapshot::Topic(profile.clone()),
        };
        let window = self
            .window
            .iter()
            .map(|e| WindowEntrySnapshot { tweet: e.tweet.0, at: e.at })
            .collect();
        UserSnapshot { user: user.0, model, window }
    }
}

/// Cleared-on-overflow capacity of the per-shard θ memo. Purely
/// mechanical: a hit and a recompute yield identical bytes (fold-in is a
/// pure function), so the cap — and the different hit patterns different
/// layouts produce — can never change an output.
const THETA_CACHE_CAP: usize = 8192;

/// The topic family's shard-level state: the shared background model and
/// the fold-in θs memoized under it. Kept apart from the user map so a
/// query can fold in candidates while it holds a user's state.
#[derive(Debug, Default)]
struct FoldIns {
    /// Swapped by [`ShardMsg::Epoch`]. `None` for the gram families (and
    /// before the writer's initial epoch broadcast).
    background: Option<Arc<TopicBackground>>,
    /// Fold-in sweeps per document, for the `serve.topic.foldin_iters`
    /// counter.
    sweeps: usize,
    /// Per-tweet θ under `background`, keyed by the document's seed key.
    /// Cleared on every epoch swap (θ depends on φ) and on overflow.
    thetas: BTreeMap<u64, Arc<Vec<f32>>>,
}

impl FoldIns {
    fn set_background(&mut self, background: Arc<TopicBackground>) {
        self.thetas.clear();
        self.background = Some(background);
    }

    /// Fold-in θ for `doc` under the current background, memoized per
    /// seed key. `None` when no background has been broadcast yet
    /// (gram-family shards, or a topic doc arriving before the writer's
    /// initial epoch — the latter is counted, not panicked on).
    fn theta(&mut self, doc: &TopicDoc) -> Option<Arc<Vec<f32>>> {
        let background = self.background.as_ref()?;
        if let Some(theta) = self.thetas.get(&doc.key) {
            return Some(Arc::clone(theta));
        }
        pmr_obs::counter_add("serve.topic.foldin_iters", self.sweeps as u64);
        let theta = {
            let _timer = pmr_obs::timer("topic.foldin");
            Arc::new(background.fold_in(&doc.tokens, doc.key))
        };
        if self.thetas.len() >= THETA_CACHE_CAP {
            self.thetas.clear();
        }
        self.thetas.insert(doc.key, Arc::clone(&theta));
        Some(theta)
    }
}

/// A worker's reusable query buffers: one [`ScoringKernel`] re-expanded
/// for each bag query's user model, and the scored window. The runtime keeps
/// one per worker thread, not per logical shard, so the shard count costs
/// no extra memory for them.
#[derive(Debug, Default)]
pub(crate) struct QueryScratch {
    kernel: ScoringKernel,
    scored: Vec<RecItem>,
}

/// One logical shard's complete state: a partition of the user space plus
/// the pure message-transition function ([`ShardState::apply`]). Owns no
/// thread and no channel — the scheduling half ([`crate::runtime`]) decides
/// which OS thread applies the shard's FIFO, and collects the replies
/// `apply` pushes.
pub(crate) struct ShardState {
    shard: usize,
    config: EngineConfig,
    users: BTreeMap<UserId, UserState>,
    fold_ins: FoldIns,
}

impl ShardState {
    pub(crate) fn new(
        shard: usize,
        config: EngineConfig,
        users: BTreeMap<UserId, UserState>,
    ) -> ShardState {
        let sweeps =
            config.model.online_topic().map_or(1, |(cfg, _, _)| cfg.foldin_iterations.max(1));
        let fold_ins = FoldIns { sweeps, ..FoldIns::default() };
        ShardState { shard, config, users, fold_ins }
    }

    /// Apply one message, pushing any replies. This is the *entire*
    /// observable behavior of a shard: a shard's output is a fold of
    /// `apply` over its FIFO message sequence, which is what makes the
    /// scheduling layer provably irrelevant to the recommendation log.
    pub(crate) fn apply(
        &mut self,
        msg: ShardMsg,
        replies: &mut Vec<ShardReply>,
        scratch: &mut QueryScratch,
    ) {
        match msg {
            ShardMsg::Candidate { user, tweet, at, features } => {
                self.candidate(user, tweet, at, features);
            }
            ShardMsg::Observe { user, features } => self.observe(user, &features),
            ShardMsg::Query { id, user, k, now } => {
                let rec = self.query(id, user, k, now, scratch);
                replies.push(ShardReply::Recommendation(rec));
            }
            // θs are functions of φ: a new background invalidates the memo
            // wholesale.
            ShardMsg::Epoch(background) => self.fold_ins.set_background(background),
            ShardMsg::Snapshot => {
                let users = self.users.iter().map(|(u, s)| s.snapshot(*u)).collect();
                replies.push(ShardReply::SnapshotPart { users });
            }
            #[cfg(test)]
            // pmr-lint: allow(lib-unwrap): test-only poison pill; the panic is the point
            ShardMsg::Poison => panic!("shard {} poisoned", self.shard),
        }
    }

    fn state(&mut self, user: UserId) -> &mut UserState {
        let model = self.config.model;
        self.users.entry(user).or_insert_with(|| UserState::new(model))
    }

    fn candidate(
        &mut self,
        user: UserId,
        tweet: TweetId,
        at: Timestamp,
        features: Arc<TweetFeatures>,
    ) {
        let cap = self.config.window;
        let state = self.state(user);
        // A user can see the same original twice (e.g. via the author and
        // via a retweeting followee); the first exposure wins.
        if state.window.iter().any(|e| e.tweet == tweet) {
            pmr_obs::counter_add("serve.window_duplicates", 1);
            return;
        }
        state.window.push_back(WindowEntry { tweet, at, features });
        while state.window.len() > cap {
            state.window.pop_front();
            pmr_obs::counter_add("serve.window_evictions", 1);
        }
    }

    fn observe(&mut self, user: UserId, features: &Arc<TweetFeatures>) {
        // Topic first: a document that cannot fold in yet creates no user.
        if let TweetFeatures::Topic(doc) = features.as_ref() {
            let Some(theta) = self.fold_ins.theta(doc) else {
                pmr_obs::counter_add("serve.model_feature_mismatch", 1);
                return;
            };
            if let UserModel::Topic(profile) = &mut self.state(user).model {
                profile.observe(&theta);
            } else {
                pmr_obs::counter_add("serve.model_feature_mismatch", 1);
            }
            return;
        }
        let state = self.state(user);
        match (&mut state.model, features.as_ref()) {
            (UserModel::Bag(profile), TweetFeatures::Bag(unit)) => profile.observe_unit(unit),
            (UserModel::Graph(graph), TweetFeatures::Graph(doc)) => graph.observe(doc),
            // Unreachable when the engine computes features from its own
            // config; counted rather than panicking per the no-panic rule.
            _ => pmr_obs::counter_add("serve.model_feature_mismatch", 1),
        }
    }

    /// Score every eligible candidate in `user`'s window (posted at or
    /// before `now`) against their model and keep the top `k`. Scores go
    /// into the worker's scratch, so the answer is the only allocation.
    fn query(
        &mut self,
        id: u64,
        user: UserId,
        k: usize,
        now: Timestamp,
        scratch: &mut QueryScratch,
    ) -> Recommendation {
        let _timer = pmr_obs::timer("serve.query");
        let QueryScratch { kernel, scored } = scratch;
        scored.clear();
        if let Some(UserState { model, window }) = self.users.get(&user) {
            let eligible = window.iter().filter(|e| e.at <= now);
            match (model, self.config.model) {
                (UserModel::Bag(profile), ServeModel::Bag { similarity, .. }) => {
                    // One expansion per query amortizes the model-side
                    // normalization over the whole window.
                    kernel.rebuild(similarity, profile.vector());
                    for e in eligible {
                        if let TweetFeatures::Bag(v) = e.features.as_ref() {
                            scored.push(RecItem { tweet: e.tweet.0, score: kernel.score(v) });
                        }
                    }
                }
                (UserModel::Graph(graph), _) => {
                    for e in eligible {
                        if let TweetFeatures::Graph(doc) = e.features.as_ref() {
                            scored.push(RecItem { tweet: e.tweet.0, score: graph.score(doc) });
                        }
                    }
                }
                (UserModel::Topic(profile), _) => {
                    for e in eligible {
                        let TweetFeatures::Topic(doc) = e.features.as_ref() else {
                            pmr_obs::counter_add("serve.model_feature_mismatch", 1);
                            continue;
                        };
                        if let Some(theta) = self.fold_ins.theta(doc) {
                            scored.push(RecItem { tweet: e.tweet.0, score: profile.score(&theta) });
                        }
                    }
                }
                // Unreachable: a bag model exists only under a bag config.
                (UserModel::Bag(_), _) => {}
            }
        }
        Recommendation { query: id, user: user.0, now, items: top_k(scored, k) }
    }
}

/// The best `k` of `scored` under the repo-wide top-k contract
/// ([`pmr_core::rank_cmp`]: best score first, ties broken by ascending
/// tweet id, total even for NaN), in a vector of exactly that length.
///
/// A window's tweet ids are distinct (`candidate` drops repeat
/// exposures), so `rank_cmp` orders the items strictly: selecting the
/// first `k` and sorting only those yields the same items in the same
/// order as sorting the whole window and truncating, and an unstable sort
/// cannot reorder equal elements because there are none.
fn top_k(scored: &mut [RecItem], k: usize) -> Vec<RecItem> {
    let by_rank = |a: &RecItem, b: &RecItem| rank_cmp(a.score, &a.tweet, b.score, &b.tweet);
    let keep = k.min(scored.len());
    if 0 < keep && keep < scored.len() {
        scored.select_nth_unstable_by(keep - 1, by_rank);
    }
    let best = &mut scored[..keep];
    best.sort_unstable_by(by_rank);
    best.to_vec()
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload was not a string".to_string()
    }
}

impl std::fmt::Debug for ShardState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardState")
            .field("shard", &self.shard)
            .field("config", &self.config)
            .field("users", &self.users.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmr_bag::{BagSimilarity, WeightingScheme};

    fn bag(dims: &[u32]) -> Arc<TweetFeatures> {
        let pairs = dims.iter().map(|&d| (d, 1.0)).collect();
        Arc::new(TweetFeatures::Bag(SparseVector::from_pairs(pairs).normalized()))
    }

    #[test]
    fn answers_over_a_full_window_carry_no_spare_capacity() {
        // The scored window stays in the worker's scratch; an answer holds
        // at most k items, allocated at exactly its length.
        let config = EngineConfig {
            model: ServeModel::Bag {
                weighting: WeightingScheme::TFIDF,
                similarity: BagSimilarity::Cosine,
                char_grams: false,
                n: 1,
                decay: 0.99,
            },
            window: 128,
        };
        let mut shard = ShardState::new(0, config, BTreeMap::new());
        let mut scratch = QueryScratch::default();
        let mut replies = Vec::new();
        let user = UserId(1);
        shard.apply(
            ShardMsg::Observe { user, features: bag(&[0, 1, 2]) },
            &mut replies,
            &mut scratch,
        );
        for t in 0..200u32 {
            let features = bag(&[t % 7, t % 3 + 1, t + 10]);
            let msg = ShardMsg::Candidate { user, tweet: TweetId(t), at: u64::from(t), features };
            shard.apply(msg, &mut replies, &mut scratch);
        }
        let ks = [0, 1, 10, 127, 128, 500];
        for (id, &k) in ks.iter().enumerate() {
            let msg = ShardMsg::Query { id: id as u64, user, k, now: 1_000 };
            shard.apply(msg, &mut replies, &mut scratch);
        }
        assert_eq!(replies.len(), ks.len());
        for (reply, &k) in replies.iter().zip(&ks) {
            let ShardReply::Recommendation(rec) = reply else {
                panic!("a query answers with a recommendation");
            };
            assert!(rec.items.len() <= k, "k {k}: {} items", rec.items.len());
            assert_eq!(rec.items.len(), k.min(128), "k {k}: the window holds 128 candidates");
            assert_eq!(rec.items.capacity(), rec.items.len(), "k {k}: spare capacity");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Few distinct score values, so ties are common, with NaN and −0.0
    /// among them.
    const SCORES: [f64; 6] = [0.0, -0.0, 0.25, 1.0, -0.5, f64::NAN];

    fn bits(items: &[RecItem]) -> Vec<(u32, u64)> {
        items.iter().map(|i| (i.tweet, i.score.to_bits())).collect()
    }

    proptest! {
        #[test]
        fn selection_equals_the_full_sort(
            scores in proptest::collection::vec(0usize..6, 0..150),
            mask in 0u32..1024,
            k in 0usize..160,
        ) {
            // Distinct tweet ids in scrambled order, as in a window.
            let mut items: Vec<RecItem> = scores
                .iter()
                .enumerate()
                .map(|(i, &s)| RecItem { tweet: i as u32 ^ mask, score: SCORES[s] })
                .collect();
            let mut sorted = items.clone();
            sorted.sort_by(|a, b| rank_cmp(a.score, &a.tweet, b.score, &b.tweet));
            sorted.truncate(k);
            let best = top_k(&mut items, k);
            prop_assert_eq!(bits(&best), bits(&sorted));
            prop_assert_eq!(best.capacity(), best.len());
        }
    }
}
