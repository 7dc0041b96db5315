//! Production-scale streaming corpus generation.
//!
//! The legacy pipeline ([`crate::generate::generate_corpus`]) threads one
//! master RNG sequentially through every stage and materializes the whole
//! tweet table — perfect for the paper-shaped 60-user corpus, hopeless at
//! the ROADMAP's 10^5–10^6 users. This module is the scale substrate:
//!
//! * **Plan/render split.** Generation is factored into a cheap *planning*
//!   pass that stores ~tens of bytes per event (timestamps, authors, latent
//!   topics) and a *rendering* pass that produces surface text on demand.
//!   Text — the dominant cost of a materialized corpus — never exists all
//!   at once; peak memory is the plan tables plus one chunk of rendered
//!   events.
//! * **Derived seeds instead of one RNG stream.** Every planning and
//!   rendering decision draws from an RNG seeded by
//!   [`derive_seed`]`(master, stream, item)` — a splitmix64-style mix of
//!   the master seed, a stage constant and the user/tweet index. Any chunk
//!   can therefore be rendered independently, in any order, on any thread,
//!   and still produce byte-identical text; streaming and materialized
//!   output agree *by construction* (and a proptest pins it).
//! * **Timestamp-ordered chunks.** [`StreamGenerator::render_chunk`] emits
//!   the corpus as consecutive slices of the global `(timestamp, tweet id)`
//!   event order — the exact order [`crate::Corpus::event_stream`] would
//!   produce — so a consumer (pmr-serve's ingest adapter) can pipeline
//!   chunk rendering across workers and still ingest a deterministic
//!   stream.
//! * **Power-law graphs.** [`GraphShape`] draws followees from a
//!   Zipf-like attractiveness distribution over a seeded rank permutation,
//!   yielding a handful of celebrity accounts holding a large share of all
//!   follower edges — the shape that stresses pmr-serve's hot-shard
//!   fan-out and backpressure paths.
//!
//! The legacy generator is untouched: paper experiments keep their exact
//! corpora, and this pipeline is pinned against *itself* (streaming ≡
//! materialized) rather than against the legacy byte stream.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use serde::{Deserialize, Serialize};

use pmr_text::Language;

use crate::config::SimConfig;
use crate::corpus::Corpus;
use crate::generate::{
    affinity, build_language_models, chatter_topics, index_timelines, model_for, sample_language,
    style_tokens, weighted_sample_without_replacement,
};
use crate::graph::SocialGraph;
use crate::interests::{dirichlet, sample_topic};
use crate::language::LanguageModel;
use crate::stream::StreamEvent;
use crate::textgen::render_tweet;
use crate::tweet::{Timestamp, Tweet, TweetId};
use crate::user::{User, UserId};

/// Seed-stream constants: each generation stage draws from its own derived
/// seed space so stages never share (or reorder) RNG state.
const S_LANG: u64 = 1;
const S_USER: u64 = 2;
const S_GRAPH: u64 = 3;
const S_ORIG: u64 = 4;
const S_RT: u64 = 5;
const S_TEXT: u64 = 6;
const S_PERM: u64 = 7;

/// Mix `(master, stream, item)` into an independent RNG seed
/// (splitmix64-style finalizer). Collisions across distinct inputs are as
/// unlikely as any 64-bit hash; what matters is determinism and stage
/// independence.
fn derive_seed(master: u64, stream: u64, item: u64) -> u64 {
    let mut z = master
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ item.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn rng_for(master: u64, stream: u64, item: u64) -> StdRng {
    StdRng::seed_from_u64(derive_seed(master, stream, item))
}

/// How follow edges are shaped at scale: Zipf-like follower counts.
/// Followees are drawn with probability proportional to
/// `(rank + 1)^-exponent` over a seeded random rank permutation of the
/// population, so celebrity status is independent of user id (and
/// therefore of shard placement downstream).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphShape {
    /// Attractiveness decay; ~1.0–1.2 gives realistic heavy heads.
    pub exponent: f64,
    /// Per-user followee-count range (uniform).
    pub followees: (usize, usize),
}

/// Configuration of a scale run: the paper's text/topic/activity knobs
/// ([`SimConfig`]) stretched over an arbitrary population.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Text, topic, language and activity parameters (and the master seed).
    /// The band user-counts are reinterpreted as *proportions* of
    /// `evaluated_users`; `background_users` is ignored in favor of
    /// `users`.
    pub base: SimConfig,
    /// Total population.
    pub users: usize,
    /// Users carrying band activity plans (the measured subpopulation; 60
    /// at the paper's shape). Everyone else gets a background plan.
    pub evaluated_users: usize,
    /// Follow-graph shape.
    pub graph: GraphShape,
    /// Events per rendered chunk — the streaming unit of work and the
    /// upper bound on rendered-but-unconsumed text.
    pub chunk_events: usize,
    /// Discovery retweets sample `oversample × n` candidate originals from
    /// the popularity-weighted author distribution before the weighted
    /// pick (the scale replacement for the legacy all-corpus scan).
    pub discovery_oversample: usize,
}

impl ScaleConfig {
    /// A benchmark tier: paper-shaped 60 evaluated users inside a
    /// power-law population of `users`.
    pub fn tier(users: usize, seed: u64) -> ScaleConfig {
        let mut base = SimConfig::preset(crate::config::ScalePreset::Smoke, seed);
        // Background accounts post lightly at scale; the event count grows
        // linearly in the population, not in the per-user volume.
        base.background_outgoing = (2, 8);
        ScaleConfig {
            base,
            users,
            evaluated_users: 60.min(users / 2).max(1),
            graph: GraphShape { exponent: 1.05, followees: (4, 12) },
            chunk_events: 8192,
            discovery_oversample: 4,
        }
    }

    /// A tiny configuration for tests: small enough to materialize and
    /// diff, with every code path (power-law graph, chunked rendering,
    /// retweet discovery) still exercised.
    pub fn smoke(seed: u64) -> ScaleConfig {
        let mut cfg = ScaleConfig::tier(220, seed);
        cfg.chunk_events = 512;
        cfg
    }

    /// Per-band evaluated-user counts, scaled proportionally from the
    /// paper's 20/20/9/11-of-60 shape (exact at the paper's shape; the
    /// rounding remainder goes to the earliest bands).
    pub fn scaled_bands(&self) -> Vec<usize> {
        let total_base: usize = self.base.bands.iter().map(|b| b.users).sum::<usize>().max(1);
        let mut counts: Vec<usize> =
            self.base.bands.iter().map(|b| b.users * self.evaluated_users / total_base).collect();
        let mut leftover = self.evaluated_users - counts.iter().sum::<usize>();
        let mut i = 0;
        while leftover > 0 && !counts.is_empty() {
            let slot = i % counts.len();
            counts[slot] += 1;
            leftover -= 1;
            i += 1;
        }
        counts
    }

    /// The [`SimConfig`] a materialized corpus of this scale reports:
    /// bands resized to the scaled counts, background count set to the
    /// remainder, so `total_population()` equals `users`.
    pub fn resolved_sim_config(&self) -> SimConfig {
        let mut cfg = self.base.clone();
        for (band, count) in cfg.bands.iter_mut().zip(self.scaled_bands()) {
            band.users = count;
        }
        cfg.background_users = self.users - self.evaluated_users;
        cfg
    }
}

/// One planned original tweet: everything rendering needs except the text.
#[derive(Debug, Clone, Copy)]
struct OriginalPlan {
    ts: Timestamp,
    author: u32,
    /// Per-author sequence number; keys the render seed.
    seq: u32,
    topic: u16,
    /// Secondary topic shading; equal to `topic` means a single-topic
    /// tweet (mirroring the legacy generator's collapse rule).
    side: u16,
    /// Mentioned user id, `u32::MAX` for none.
    mention: u32,
    lang: Language,
}

/// One planned retweet: the reposter and the position of the reposted
/// original in the plan table.
#[derive(Debug, Clone, Copy)]
struct RetweetPlan {
    ts: Timestamp,
    reposter: u32,
    /// Index into [`StreamGenerator::originals`].
    orig: u32,
}

/// A user's derived activity plan. Recomputed from the user's derived seed
/// wherever needed — never stored for the whole population.
#[derive(Debug, Clone)]
struct UserPlan {
    interests: Vec<f32>,
    language: Language,
    secondary_language: Language,
    planned_tweets: usize,
    planned_retweets: usize,
    planned_incoming: usize,
    band: usize,
    is_background: bool,
    style_tokens: Vec<String>,
    chatter_topics: Vec<usize>,
}

/// One event of the scale stream, rendered into pmr-serve's ingest format:
/// the [`StreamEvent`] plus the posted text. For retweets, `origin_text`
/// carries the reposted original's text so a streaming consumer can
/// featurize the observation without a corpus-wide feature table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestRecord {
    /// The event in the corpus's global `(timestamp, tweet id)` order.
    pub event: StreamEvent,
    /// Surface text of the posted tweet (for a retweet, the full
    /// `rt @handle: …` surface form).
    pub text: String,
    /// The reposted original's text, for retweets.
    pub origin_text: Option<String>,
}

/// The planned scale corpus: renders its event stream in timestamp-ordered
/// chunks, each independently computable (and therefore parallelizable)
/// from derived seeds.
pub struct StreamGenerator {
    cfg: ScaleConfig,
    /// Exclusive end index of each band's user-id range.
    band_ends: Vec<u32>,
    models: Vec<LanguageModel>,
    /// Follow graph in CSR form: user `u` follows
    /// `followee_targets[offsets[u]..offsets[u+1]]`.
    followee_offsets: Vec<u32>,
    followee_targets: Vec<UserId>,
    follower_counts: Vec<u32>,
    /// Author-contiguous original plans.
    originals: Vec<OriginalPlan>,
    /// Per-author `(start, len)` span into `originals`.
    author_spans: Vec<(u32, u32)>,
    /// Tweet id of the original at plan position `p`.
    orig_id_by_pos: Vec<u32>,
    /// Plan position of the original with tweet id `i`.
    orig_pos_by_id: Vec<u32>,
    /// Retweet plans in id order (`TweetId = originals + index`).
    retweets: Vec<RetweetPlan>,
    /// Retweet indices sorted by `(ts, id)`.
    rt_order: Vec<u32>,
    /// Per-chunk starting cursors `(next original id, next rt_order
    /// position)`; `len = chunks + 1`.
    chunk_bounds: Vec<(u32, u32)>,
}

impl StreamGenerator {
    /// Run the planning passes: language models, graph, original and
    /// retweet plans, and chunk boundaries. Deterministic in `cfg`.
    pub fn plan(cfg: ScaleConfig) -> StreamGenerator {
        assert!(cfg.users >= 2, "a scale corpus needs at least two users");
        assert!(
            cfg.evaluated_users >= 1 && cfg.evaluated_users <= cfg.users,
            "evaluated users must be a nonempty subpopulation"
        );
        let mut band_ends = Vec::new();
        let mut acc = 0usize;
        for count in cfg.scaled_bands() {
            acc += count;
            band_ends.push(acc as u32);
        }
        let models = build_language_models(&mut rng_for(cfg.base.seed, S_LANG, 0), &cfg.base);
        let mut gen = StreamGenerator {
            cfg,
            band_ends,
            models,
            followee_offsets: Vec::new(),
            followee_targets: Vec::new(),
            follower_counts: Vec::new(),
            originals: Vec::new(),
            author_spans: Vec::new(),
            orig_id_by_pos: Vec::new(),
            orig_pos_by_id: Vec::new(),
            retweets: Vec::new(),
            rt_order: Vec::new(),
            chunk_bounds: Vec::new(),
        };
        gen.plan_graph();
        gen.plan_originals();
        gen.plan_retweets();
        gen.plan_chunks();
        gen
    }

    /// Total population.
    pub fn num_users(&self) -> usize {
        self.cfg.users
    }

    /// Ids of the users carrying band activity plans.
    pub fn evaluated_user_ids(&self) -> impl Iterator<Item = UserId> + '_ {
        (0..self.cfg.evaluated_users as u32).map(UserId)
    }

    /// Total events (originals + retweets) the stream will emit.
    pub fn num_events(&self) -> usize {
        self.originals.len() + self.retweets.len()
    }

    /// Number of timestamp-ordered chunks.
    pub fn num_chunks(&self) -> usize {
        self.chunk_bounds.len().saturating_sub(1)
    }

    /// The configuration this generator was planned from.
    pub fn config(&self) -> &ScaleConfig {
        &self.cfg
    }

    /// Follower counts per user (the power-law head lives here).
    pub fn follower_counts(&self) -> &[u32] {
        &self.follower_counts
    }

    /// Accounts `u` follows.
    pub fn followees(&self, u: UserId) -> &[UserId] {
        let lo = self.followee_offsets[u.index()] as usize;
        let hi = self.followee_offsets[u.index() + 1] as usize;
        &self.followee_targets[lo..hi]
    }

    /// Follower adjacency lists (the transpose of the stored followee
    /// CSR), for consumers that fan events out to followers. O(edges) —
    /// intended for the tiers that actually get served, not for planning.
    pub fn build_followers(&self) -> Vec<Vec<UserId>> {
        let mut followers: Vec<Vec<UserId>> = (0..self.cfg.users)
            .map(|u| Vec::with_capacity(self.follower_counts[u] as usize))
            .collect();
        for u in 0..self.cfg.users {
            for &v in self.followees(UserId(u as u32)) {
                followers[v.index()].push(UserId(u as u32));
            }
        }
        followers
    }

    fn band_of(&self, u: u32) -> Option<usize> {
        if u >= *self.band_ends.last().unwrap_or(&0) {
            return None;
        }
        Some(self.band_ends.partition_point(|&end| end <= u))
    }

    fn user_plan(&self, u: u32) -> UserPlan {
        let cfg = &self.cfg.base;
        let mut rng = rng_for(cfg.seed, S_USER, u as u64);
        let band = self.band_of(u);
        let (planned_tweets, planned_retweets, planned_incoming) = match band {
            Some(b) => {
                let band = &cfg.bands[b];
                let ratio = rng.gen_range(band.posting_ratio.0..=band.posting_ratio.1);
                let outgoing = rng.gen_range(band.outgoing.0..=band.outgoing.1);
                let share = rng.gen_range(band.retweet_share.0..=band.retweet_share.1);
                let planned_retweets = ((outgoing as f64) * share).round() as usize;
                let planned_tweets = outgoing.saturating_sub(planned_retweets).max(1);
                let planned_incoming = ((outgoing as f64) / ratio).round().max(4.0) as usize;
                (planned_tweets, planned_retweets, planned_incoming)
            }
            None => {
                let outgoing =
                    rng.gen_range(cfg.background_outgoing.0..=cfg.background_outgoing.1).max(1);
                let planned_retweets =
                    ((outgoing as f64) * cfg.background_retweet_share).round() as usize;
                let planned_tweets = outgoing.saturating_sub(planned_retweets).max(1);
                (planned_tweets, planned_retweets, 0)
            }
        };
        let language = sample_language(&mut rng, cfg);
        let secondary_language = sample_language(&mut rng, cfg);
        let interests = dirichlet(&mut rng, cfg.num_topics, cfg.interest_alpha);
        let style = style_tokens(&mut rng, language);
        let chatter = chatter_topics(&mut rng, cfg.num_topics);
        UserPlan {
            interests,
            language,
            secondary_language,
            planned_tweets,
            planned_retweets,
            planned_incoming,
            band: band.unwrap_or(self.cfg.base.bands.len()),
            is_background: band.is_none(),
            style_tokens: style,
            chatter_topics: chatter,
        }
    }

    fn plan_graph(&mut self) {
        let n = self.cfg.users;
        let GraphShape { exponent, followees: (lo, hi) } = self.cfg.graph;
        let seed = self.cfg.base.seed;
        let mut rank_to_user: Vec<u32> = (0..n as u32).collect();
        rank_to_user.shuffle(&mut rng_for(seed, S_PERM, 0));
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for r in 0..n {
            acc += (r as f64 + 1.0).powf(-exponent);
            cdf.push(acc);
        }
        let total = acc;
        self.followee_offsets = Vec::with_capacity(n + 1);
        self.followee_offsets.push(0);
        self.followee_targets = Vec::new();
        self.follower_counts = vec![0u32; n];
        for u in 0..n {
            let mut rng = rng_for(seed, S_GRAPH, u as u64);
            let k = rng.gen_range(lo..=hi).min(n - 1);
            let mut picked: Vec<UserId> = Vec::with_capacity(k);
            // Rejection sampling; the attempt cap only matters for
            // degenerate tiny populations.
            let mut attempts = 0usize;
            while picked.len() < k && attempts < k * 30 + 30 {
                attempts += 1;
                let x = rng.gen_range(0.0..total);
                let r = cdf.partition_point(|&c| c <= x).min(n - 1);
                let v = UserId(rank_to_user[r]);
                if v.index() == u || picked.contains(&v) {
                    continue;
                }
                self.follower_counts[v.index()] += 1;
                picked.push(v);
            }
            self.followee_targets.extend_from_slice(&picked);
            self.followee_offsets.push(self.followee_targets.len() as u32);
        }
    }

    fn plan_originals(&mut self) {
        let cfg = &self.cfg.base;
        let latest = cfg.horizon.saturating_mul(98) / 100;
        let n = self.cfg.users;
        self.author_spans = Vec::with_capacity(n);
        for u in 0..n as u32 {
            let plan = self.user_plan(u);
            let mut rng = rng_for(cfg.seed, S_ORIG, u as u64);
            let start = self.originals.len() as u32;
            let followees = {
                let lo = self.followee_offsets[u as usize] as usize;
                let hi = self.followee_offsets[u as usize + 1] as usize;
                &self.followee_targets[lo..hi]
            };
            for seq in 0..plan.planned_tweets as u32 {
                let ts: Timestamp = rng.gen_range(0..=latest);
                let lang = if rng.gen_bool(cfg.p_secondary_language) {
                    plan.secondary_language
                } else {
                    plan.language
                };
                let conversational = rng.gen_bool(cfg.p_mention);
                let topic = if (conversational || rng.gen_bool(cfg.p_chatter))
                    && !plan.chatter_topics.is_empty()
                {
                    plan.chatter_topics[rng.gen_range(0..plan.chatter_topics.len())]
                } else {
                    sample_topic(&mut rng, &plan.interests)
                };
                let mention = if conversational && !followees.is_empty() {
                    followees[rng.gen_range(0..followees.len())].0
                } else {
                    u32::MAX
                };
                let side = sample_topic(&mut rng, &plan.interests);
                self.originals.push(OriginalPlan {
                    ts,
                    author: u,
                    seq,
                    topic: topic as u16,
                    side: side as u16,
                    mention,
                    lang,
                });
            }
            self.author_spans.push((start, self.originals.len() as u32 - start));
        }
        // Assign dense ids in the global (ts, author, seq) order — the
        // same order the legacy generator's stable (ts, author) sort
        // produces, so id order and event order coincide for originals.
        let mut order: Vec<u32> = (0..self.originals.len() as u32).collect();
        order.sort_by_key(|&p| {
            let o = &self.originals[p as usize];
            (o.ts, o.author, o.seq)
        });
        self.orig_pos_by_id = order;
        self.orig_id_by_pos = vec![0u32; self.originals.len()];
        for (id, &pos) in self.orig_pos_by_id.iter().enumerate() {
            self.orig_id_by_pos[pos as usize] = id as u32;
        }
    }

    /// Interest alignment of a plan's topic pair against an interest
    /// vector — [`User::interest_alignment`] over the plan encoding.
    fn alignment(interests: &[f32], o: &OriginalPlan) -> f32 {
        let pairs: [(usize, f32); 2] = if o.side == o.topic {
            [(o.topic as usize, 1.0), (o.topic as usize, 0.0)]
        } else {
            [(o.topic as usize, 0.85), (o.side as usize, 0.15)]
        };
        let mut dot = 0.0f32;
        let mut t_norm = 0.0f32;
        for &(k, w) in &pairs {
            dot += interests.get(k).copied().unwrap_or(0.0) * w;
            t_norm += w * w;
        }
        let i_norm: f32 = interests.iter().map(|w| w * w).sum();
        if t_norm == 0.0 || i_norm == 0.0 {
            return 0.0;
        }
        dot / (t_norm.sqrt() * i_norm.sqrt())
    }

    fn retweet_weight(
        &self,
        plan: &UserPlan,
        reader: u32,
        o: &OriginalPlan,
        gamma_eff: f64,
        popularity: Option<f64>,
    ) -> f64 {
        let cfg = &self.cfg.base;
        let align = Self::alignment(&plan.interests, o) as f64;
        let lang = if o.lang == plan.language { 1.0 } else { cfg.cross_language_discount };
        (gamma_eff * align).exp()
            * lang
            * popularity.unwrap_or(1.0)
            * affinity(cfg, UserId(reader), UserId(o.author))
    }

    fn plan_retweets(&mut self) {
        let cfg = &self.cfg.base;
        let n = self.cfg.users;
        // Popularity-weighted author distribution for discovery sampling.
        let mut author_cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for u in 0..n {
            acc += 1.0 + self.follower_counts[u] as f64;
            author_cdf.push(acc);
        }
        let author_total = acc;
        let delay_max = (cfg.horizon / 50).max(1);
        let mut retweets = Vec::new();
        for u in 0..n as u32 {
            let plan = self.user_plan(u);
            if plan.planned_retweets == 0 {
                continue;
            }
            let mut rng = rng_for(cfg.seed, S_RT, u as u64);
            let ratio = if plan.planned_incoming == 0 {
                1.0
            } else {
                ((plan.planned_tweets + plan.planned_retweets) as f64
                    / plan.planned_incoming as f64)
                    .min(1.0)
            };
            let c = cfg.gamma_activity_coupling;
            let gamma_eff = cfg.retweet_gamma * (1.0 - c + c * ratio);
            // Feed pool: plan positions of all followee originals.
            let mut feed: Vec<usize> = Vec::new();
            for &v in self.followees(UserId(u)) {
                let (start, len) = self.author_spans[v.index()];
                feed.extend((start..start + len).map(|p| p as usize));
            }
            let want_feed =
                ((plan.planned_retweets as f64) * cfg.retweet_from_feed).round() as usize;
            let n_feed = want_feed.min(((feed.len() as f64) * cfg.max_feed_retweet_share) as usize);
            let feed_weights: Vec<f64> = feed
                .iter()
                .map(|&p| self.retweet_weight(&plan, u, &self.originals[p], gamma_eff, None))
                .collect();
            let chosen_feed =
                weighted_sample_without_replacement(&mut rng, &feed, &feed_weights, n_feed);
            // Discovery pool: a popularity-weighted *sample* of the rest of
            // the corpus (the legacy generator scans every original, which
            // does not survive 10^6 users).
            let n_disc = plan.planned_retweets.saturating_sub(chosen_feed.len());
            let target = n_disc * self.cfg.discovery_oversample.max(1);
            let mut candidates: Vec<usize> = Vec::with_capacity(target);
            let mut attempts = 0usize;
            while candidates.len() < target && attempts < target * 10 + 20 {
                attempts += 1;
                let x = rng.gen_range(0.0..author_total);
                let a = author_cdf.partition_point(|&cum| cum <= x).min(n - 1);
                if a == u as usize {
                    continue;
                }
                let (start, len) = self.author_spans[a];
                if len == 0 {
                    continue;
                }
                let p = (start + rng.gen_range(0..len)) as usize;
                if candidates.contains(&p) || feed.contains(&p) {
                    continue;
                }
                candidates.push(p);
            }
            let disc_weights: Vec<f64> = candidates
                .iter()
                .map(|&p| {
                    let o = &self.originals[p];
                    let pop = 1.0 + self.follower_counts[o.author as usize] as f64;
                    self.retweet_weight(&plan, u, o, gamma_eff, Some(pop))
                })
                .collect();
            let chosen_disc =
                weighted_sample_without_replacement(&mut rng, &candidates, &disc_weights, n_disc);
            for p in chosen_feed.into_iter().chain(chosen_disc) {
                let delay: Timestamp = rng.gen_range(1..=delay_max);
                retweets.push(RetweetPlan {
                    ts: self.originals[p].ts.saturating_add(delay),
                    reposter: u,
                    orig: p as u32,
                });
            }
        }
        self.retweets = retweets;
        let n_orig = self.originals.len() as u64;
        let mut rt_order: Vec<u32> = (0..self.retweets.len() as u32).collect();
        rt_order.sort_by_key(|&i| (self.retweets[i as usize].ts, n_orig + i as u64));
        self.rt_order = rt_order;
    }

    /// Whether the next event of the merged stream (at cursors `oc` into
    /// the id-ordered originals, `rc` into `rt_order`) is an original.
    fn next_is_original(&self, oc: usize, rc: usize) -> bool {
        if rc >= self.rt_order.len() {
            return true;
        }
        if oc >= self.originals.len() {
            return false;
        }
        let o_ts = self.originals[self.orig_pos_by_id[oc] as usize].ts;
        let r_idx = self.rt_order[rc] as usize;
        let r_ts = self.retweets[r_idx].ts;
        (o_ts, oc as u64) < (r_ts, (self.originals.len() + r_idx) as u64)
    }

    fn plan_chunks(&mut self) {
        let chunk = self.cfg.chunk_events.max(1);
        let n_orig = self.originals.len();
        let n_rt = self.retweets.len();
        let mut bounds = vec![(0u32, 0u32)];
        let mut oc = 0usize;
        let mut rc = 0usize;
        let mut emitted = 0usize;
        while oc < n_orig || rc < n_rt {
            if self.next_is_original(oc, rc) {
                oc += 1;
            } else {
                rc += 1;
            }
            emitted += 1;
            if emitted.is_multiple_of(chunk) {
                bounds.push((oc as u32, rc as u32));
            }
        }
        if *bounds.last().unwrap_or(&(0, 0)) != (n_orig as u32, n_rt as u32) {
            bounds.push((n_orig as u32, n_rt as u32));
        }
        self.chunk_bounds = bounds;
    }

    /// Render one original's surface text from its derived seed. `styles`
    /// caches per-author style tokens within a rendering unit (a chunk).
    fn render_original(&self, o: &OriginalPlan, styles: &mut HashMap<u32, Vec<String>>) -> String {
        let style = styles.entry(o.author).or_insert_with(|| self.user_plan(o.author).style_tokens);
        let model = model_for(&self.models, o.lang);
        let item = ((o.author as u64) << 32) | o.seq as u64;
        let mut rng = rng_for(self.cfg.base.seed, S_TEXT, item);
        let mention_handle = (o.mention != u32::MAX).then(|| format!("user{}", o.mention));
        render_tweet(
            &mut rng,
            &self.cfg.base,
            model,
            o.topic as usize,
            mention_handle.as_deref(),
            style,
        )
    }

    fn topics_of(o: &OriginalPlan) -> Vec<(usize, f32)> {
        if o.side == o.topic {
            vec![(o.topic as usize, 1.0)]
        } else {
            vec![(o.topic as usize, 0.85), (o.side as usize, 0.15)]
        }
    }

    /// Render chunk `i`: the `i`-th consecutive slice of the global
    /// `(timestamp, tweet id)` event order, with surface text. Pure in
    /// `&self` — chunks can render on any thread in any order and the
    /// concatenation over `0..num_chunks()` is always the same stream.
    pub fn render_chunk(&self, chunk: usize) -> Vec<IngestRecord> {
        let (mut oc, mut rc) = {
            let (a, b) = self.chunk_bounds[chunk];
            (a as usize, b as usize)
        };
        let (end_oc, end_rc) = {
            let (a, b) = self.chunk_bounds[chunk + 1];
            (a as usize, b as usize)
        };
        let mut styles: HashMap<u32, Vec<String>> = HashMap::new();
        let mut out = Vec::with_capacity((end_oc - oc) + (end_rc - rc));
        while oc < end_oc || rc < end_rc {
            // Within a chunk the cursors stop exactly at the precomputed
            // bounds, so the merge predicate needs no end clamping beyond
            // the global one.
            if rc >= end_rc || (oc < end_oc && self.next_is_original(oc, rc)) {
                let pos = self.orig_pos_by_id[oc] as usize;
                let o = &self.originals[pos];
                let text = self.render_original(o, &mut styles);
                out.push(IngestRecord {
                    event: StreamEvent {
                        at: o.ts,
                        tweet: TweetId(oc as u32),
                        author: UserId(o.author),
                        retweet_of: None,
                    },
                    text,
                    origin_text: None,
                });
                oc += 1;
            } else {
                let idx = self.rt_order[rc] as usize;
                let r = &self.retweets[idx];
                let o = &self.originals[r.orig as usize];
                let origin_text = self.render_original(o, &mut styles);
                let text = format!("rt @user{}: {}", o.author, origin_text);
                out.push(IngestRecord {
                    event: StreamEvent {
                        at: r.ts,
                        tweet: TweetId((self.originals.len() + idx) as u32),
                        author: UserId(r.reposter),
                        retweet_of: Some(TweetId(self.orig_id_by_pos[r.orig as usize])),
                    },
                    text,
                    origin_text: Some(origin_text),
                });
                rc += 1;
            }
        }
        out
    }

    /// The whole stream, rendered chunk by chunk on the calling thread.
    pub fn events(&self) -> impl Iterator<Item = IngestRecord> + '_ {
        (0..self.num_chunks()).flat_map(|c| self.render_chunk(c))
    }

    /// Full [`User`] table (plans re-derived per user).
    fn users_vec(&self) -> Vec<User> {
        (0..self.cfg.users as u32)
            .map(|u| {
                let plan = self.user_plan(u);
                User {
                    id: UserId(u),
                    handle: format!("user{u}"),
                    interests: plan.interests,
                    language: plan.language,
                    secondary_language: plan.secondary_language,
                    planned_tweets: plan.planned_tweets,
                    planned_retweets: plan.planned_retweets,
                    planned_incoming: plan.planned_incoming,
                    band: plan.band,
                    is_background: plan.is_background,
                    style_tokens: plan.style_tokens,
                    chatter_topics: plan.chatter_topics,
                }
            })
            .collect()
    }

    /// The follow graph as a full [`SocialGraph`].
    pub fn social_graph(&self) -> SocialGraph {
        let followees: Vec<Vec<UserId>> =
            (0..self.cfg.users).map(|u| self.followees(UserId(u as u32)).to_vec()).collect();
        SocialGraph::from_adjacency(followees, self.build_followers())
    }

    /// Materialize the full corpus this generator streams — the batch-mode
    /// twin the proptests pin the streaming path against. O(corpus) memory;
    /// smoke scale only.
    pub fn materialize(&self) -> Corpus {
        let users = self.users_vec();
        let graph = self.social_graph();
        let n_orig = self.originals.len();
        let mut styles: HashMap<u32, Vec<String>> = HashMap::new();
        let mut tweets = Vec::with_capacity(self.num_events());
        for id in 0..n_orig {
            let o = &self.originals[self.orig_pos_by_id[id] as usize];
            tweets.push(Tweet {
                id: TweetId(id as u32),
                author: UserId(o.author),
                timestamp: o.ts,
                text: self.render_original(o, &mut styles),
                retweet_of: None,
                topics: Self::topics_of(o),
                language: o.lang,
            });
        }
        for (idx, r) in self.retweets.iter().enumerate() {
            let o = &self.originals[r.orig as usize];
            let origin_text = self.render_original(o, &mut styles);
            tweets.push(Tweet {
                id: TweetId((n_orig + idx) as u32),
                author: UserId(r.reposter),
                timestamp: r.ts,
                text: format!("rt @user{}: {}", o.author, origin_text),
                retweet_of: Some(TweetId(self.orig_id_by_pos[r.orig as usize])),
                topics: Self::topics_of(o),
                language: o.lang,
            });
        }
        let (originals, retweets) = index_timelines(&users, &tweets);
        Corpus { config: self.cfg.resolved_sim_config(), users, tweets, graph, originals, retweets }
    }
}

impl std::fmt::Debug for StreamGenerator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamGenerator")
            .field("users", &self.cfg.users)
            .field("originals", &self.originals.len())
            .field("retweets", &self.retweets.len())
            .field("chunks", &self.num_chunks())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_gen(seed: u64) -> StreamGenerator {
        StreamGenerator::plan(ScaleConfig::smoke(seed))
    }

    #[test]
    fn stream_matches_materialized_event_stream() {
        let gen = smoke_gen(42);
        let corpus = gen.materialize();
        let expected = corpus.event_stream();
        let got: Vec<IngestRecord> = gen.events().collect();
        assert_eq!(got.len(), expected.len());
        for (rec, ev) in got.iter().zip(&expected) {
            assert_eq!(rec.event, *ev);
            assert_eq!(rec.text, corpus.tweet(ev.tweet).text, "text must be byte-identical");
            match ev.retweet_of {
                None => assert!(rec.origin_text.is_none()),
                Some(orig) => {
                    assert_eq!(rec.origin_text.as_deref(), Some(corpus.tweet(orig).text.as_str()));
                }
            }
        }
    }

    #[test]
    fn chunk_size_never_changes_the_stream() {
        let mut cfg_a = ScaleConfig::smoke(7);
        cfg_a.chunk_events = 64;
        let mut cfg_b = ScaleConfig::smoke(7);
        cfg_b.chunk_events = 4096;
        let a: Vec<IngestRecord> = StreamGenerator::plan(cfg_a).events().collect();
        let b: Vec<IngestRecord> = StreamGenerator::plan(cfg_b).events().collect();
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn chunks_render_independently() {
        let gen = smoke_gen(11);
        // Rendering chunks out of order (or repeatedly) must agree with
        // the sequential stream — this is what makes parallel rendering
        // deterministic.
        let sequential: Vec<IngestRecord> = gen.events().collect();
        let mut reordered: Vec<IngestRecord> = Vec::new();
        let mut chunks: Vec<usize> = (0..gen.num_chunks()).collect();
        chunks.reverse();
        let mut rendered: Vec<Vec<IngestRecord>> =
            chunks.iter().map(|&c| gen.render_chunk(c)).collect();
        rendered.reverse();
        for chunk in rendered {
            reordered.extend(chunk);
        }
        assert_eq!(sequential, reordered);
    }

    #[test]
    fn stream_is_totally_ordered_and_within_horizon() {
        let gen = smoke_gen(3);
        let events: Vec<IngestRecord> = gen.events().collect();
        assert_eq!(events.len(), gen.num_events());
        for pair in events.windows(2) {
            assert!(
                (pair[0].event.at, pair[0].event.tweet) < (pair[1].event.at, pair[1].event.tweet),
                "stream order must be strictly increasing"
            );
        }
        for rec in &events {
            assert!(rec.event.at <= gen.config().base.horizon);
        }
    }

    #[test]
    fn retweets_postdate_their_originals() {
        let gen = smoke_gen(5);
        let corpus = gen.materialize();
        let mut seen_retweet = false;
        for t in &corpus.tweets {
            if let Some(orig) = t.retweet_of {
                seen_retweet = true;
                let o = corpus.tweet(orig);
                assert!(o.retweet_of.is_none());
                assert!(t.timestamp > o.timestamp);
                assert_ne!(t.author, o.author);
            }
        }
        assert!(seen_retweet, "smoke scale config must produce retweets");
    }

    #[test]
    fn power_law_follower_tail_is_head_heavy() {
        // Distribution test: the top-1% of accounts must hold a
        // disproportionate share of all follower edges. With exponent 1.05
        // over 5000 users the head share is ~40%+; assert a conservative
        // floor so seed jitter never flakes.
        let gen = StreamGenerator::plan(ScaleConfig::tier(5000, 13));
        let mut counts: Vec<u64> = gen.follower_counts().iter().map(|&c| c as u64).collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = counts.iter().sum();
        let head_n = (counts.len() / 100).max(1);
        let head: u64 = counts.iter().take(head_n).sum();
        let share = head as f64 / total.max(1) as f64;
        assert!(
            share >= 0.25,
            "top-1% of accounts hold only {:.1}% of edges; expected a heavy head",
            share * 100.0
        );
        // And the head must contain genuine celebrities relative to the
        // mean degree.
        let mean = total as f64 / counts.len() as f64;
        assert!(
            counts[0] as f64 > mean * 20.0,
            "largest account has {} followers vs mean {mean:.1}; tail is not heavy",
            counts[0]
        );
    }

    #[test]
    fn evaluated_users_keep_the_paper_band_shape() {
        let cfg = ScaleConfig::smoke(1);
        assert_eq!(cfg.scaled_bands(), vec![20, 20, 9, 11]);
        let gen = StreamGenerator::plan(cfg);
        assert_eq!(gen.evaluated_user_ids().count(), 60);
        let corpus = gen.materialize();
        assert_eq!(corpus.evaluated_user_ids().count(), 60);
        assert_eq!(corpus.users.len(), 220);
        assert_eq!(corpus.config.total_population(), 220);
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<IngestRecord> = smoke_gen(1).events().take(50).collect();
        let b: Vec<IngestRecord> = smoke_gen(2).events().take(50).collect();
        assert_ne!(a, b, "seeds must change the stream");
    }

    #[test]
    fn derive_seed_separates_streams_and_items() {
        let a = derive_seed(42, S_USER, 0);
        let b = derive_seed(42, S_USER, 1);
        let c = derive_seed(42, S_ORIG, 0);
        let d = derive_seed(43, S_USER, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// The streaming pin: for any seed, the chunked stream is
        /// event-for-event and byte-for-byte identical to the materialized
        /// corpus's event stream — same discipline as the IndexedVectorizer
        /// pin against the reference vectorizer.
        #[test]
        fn streaming_equals_materialized_for_any_seed(seed in 0u64..10_000) {
            let gen = StreamGenerator::plan(ScaleConfig::smoke(seed));
            let corpus = gen.materialize();
            let expected = corpus.event_stream();
            let mut count = 0usize;
            for (rec, ev) in gen.events().zip(&expected) {
                prop_assert_eq!(&rec.event, ev);
                prop_assert_eq!(&rec.text, &corpus.tweet(ev.tweet).text);
                count += 1;
            }
            prop_assert_eq!(count, expected.len());
        }
    }
}
