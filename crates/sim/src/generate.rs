//! The corpus generation pipeline.
//!
//! Generation proceeds in five deterministic stages, all derived from
//! [`SimConfig::seed`]:
//!
//! 1. **Languages** — one [`LanguageModel`] per language in the mix, sharing
//!    a single world-level topic space.
//! 2. **Users** — activity plans sampled from the configured bands, interest
//!    profiles from a sparse Dirichlet, languages from the Table 3 mix.
//! 3. **Graph** — [`SocialGraph::build`] shapes follow edges from interest
//!    homophily and feed-volume targets.
//! 4. **Original tweets** — each user posts her planned originals at uniform
//!    random times, each about a topic drawn from her interests.
//! 5. **Retweets** — each user reposts incoming (and discovered) tweets with
//!    probability sharply increasing in interest alignment; this is the
//!    ground-truth "relevant = retweeted" signal of the evaluation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pmr_text::Language;

use crate::config::SimConfig;
use crate::corpus::Corpus;
use crate::graph::SocialGraph;
use crate::interests::{dirichlet, sample_topic};
use crate::language::{synth_word, LanguageModel};
use crate::textgen::render_tweet;
use crate::tweet::{Timestamp, Tweet, TweetId};
use crate::user::{alignment, squared_norm, User, UserId};

/// Generate a corpus from a configuration. Deterministic in `cfg`.
pub fn generate_corpus(cfg: &SimConfig) -> Corpus {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let models = build_language_models(&mut rng, cfg);
    let users = build_users(&mut rng, cfg);
    let graph = SocialGraph::build(&mut rng, &users);
    let mut tweets = generate_originals(&mut rng, cfg, &users, &graph, &models);
    generate_retweets(&mut rng, cfg, &users, &graph, &mut tweets);
    let (originals, retweets) = index_timelines(&users, &tweets);
    Corpus { config: cfg.clone(), users, tweets, graph, originals, retweets }
}

pub(crate) fn build_language_models(rng: &mut StdRng, cfg: &SimConfig) -> Vec<LanguageModel> {
    cfg.language_mix
        .iter()
        .map(|&(lang, _)| {
            LanguageModel::generate_with_headlines(
                rng,
                lang,
                cfg.num_topics,
                cfg.common_words_per_language,
                cfg.topic_words_per_language,
                cfg.phrases_per_topic,
                cfg.headlines_per_topic,
            )
        })
        .collect()
}

pub(crate) fn model_for(models: &[LanguageModel], lang: Language) -> &LanguageModel {
    models.iter().find(|m| m.language == lang).unwrap_or(&models[0])
}

pub(crate) fn style_tokens(rng: &mut StdRng, lang: pmr_text::Language) -> Vec<String> {
    (0..rng.gen_range(2..=4)).map(|_| synth_word(rng, lang)).collect()
}

pub(crate) fn chatter_topics(rng: &mut StdRng, num_topics: usize) -> Vec<usize> {
    (0..rng.gen_range(2..=3)).map(|_| rng.gen_range(0..num_topics)).collect()
}

fn build_users(rng: &mut StdRng, cfg: &SimConfig) -> Vec<User> {
    let mut users = Vec::with_capacity(cfg.total_population());
    for (band_idx, band) in cfg.bands.iter().enumerate() {
        for _ in 0..band.users {
            let id = UserId(users.len() as u32);
            let ratio = rng.gen_range(band.posting_ratio.0..=band.posting_ratio.1);
            let outgoing = rng.gen_range(band.outgoing.0..=band.outgoing.1);
            let share = rng.gen_range(band.retweet_share.0..=band.retweet_share.1);
            let planned_retweets = ((outgoing as f64) * share).round() as usize;
            let planned_tweets = outgoing.saturating_sub(planned_retweets).max(1);
            let planned_incoming = ((outgoing as f64) / ratio).round().max(4.0) as usize;
            let language = sample_language(rng, cfg);
            let secondary_language = sample_language(rng, cfg);
            let interests = dirichlet(rng, cfg.num_topics, cfg.interest_alpha);
            let style_tokens = style_tokens(rng, language);
            let chatter = chatter_topics(rng, cfg.num_topics);
            users.push(User {
                id,
                handle: format!("user{}", id.0),
                interests,
                language,
                secondary_language,
                planned_tweets,
                planned_retweets,
                planned_incoming,
                band: band_idx,
                is_background: false,
                style_tokens,
                chatter_topics: chatter,
            });
        }
    }
    for _ in 0..cfg.background_users {
        let id = UserId(users.len() as u32);
        let outgoing = rng.gen_range(cfg.background_outgoing.0..=cfg.background_outgoing.1).max(1);
        let planned_retweets = ((outgoing as f64) * cfg.background_retweet_share).round() as usize;
        let planned_tweets = outgoing.saturating_sub(planned_retweets).max(1);
        let language = sample_language(rng, cfg);
        let secondary_language = sample_language(rng, cfg);
        let interests = dirichlet(rng, cfg.num_topics, cfg.interest_alpha);
        let style_tokens = style_tokens(rng, language);
        let chatter = chatter_topics(rng, cfg.num_topics);
        users.push(User {
            id,
            handle: format!("user{}", id.0),
            interests,
            language,
            secondary_language,
            planned_tweets,
            planned_retweets,
            planned_incoming: 0,
            band: cfg.bands.len(),
            is_background: true,
            style_tokens,
            chatter_topics: chatter,
        });
    }
    users
}

pub(crate) fn sample_language(rng: &mut StdRng, cfg: &SimConfig) -> Language {
    let total: f64 = cfg.language_mix.iter().map(|&(_, w)| w).sum();
    let mut x = rng.gen_range(0.0..total);
    for &(lang, w) in &cfg.language_mix {
        if x < w {
            return lang;
        }
        x -= w;
    }
    cfg.language_mix.last().map(|&(l, _)| l).unwrap_or(Language::English)
}

fn generate_originals(
    rng: &mut StdRng,
    cfg: &SimConfig,
    users: &[User],
    graph: &SocialGraph,
    models: &[LanguageModel],
) -> Vec<Tweet> {
    // Originals live in the first 98% of the horizon so that retweet delays
    // stay inside it.
    let latest = cfg.horizon.saturating_mul(98) / 100;
    /// A tweet before id assignment: (timestamp, author, text, topics, language).
    type Draft = (Timestamp, UserId, String, Vec<(usize, f32)>, Language);
    let mut drafts: Vec<Draft> = Vec::new();
    for u in users {
        for _ in 0..u.planned_tweets {
            let ts: Timestamp = rng.gen_range(0..=latest);
            let lang = if rng.gen_bool(cfg.p_secondary_language) {
                u.secondary_language
            } else {
                u.language
            };
            let model = model_for(models, lang);
            // Conversational tweets (those opening with a mention) are
            // chatter by nature; standalone tweets drift to chatter themes
            // with probability `p_chatter`.
            let conversational = rng.gen_bool(cfg.p_mention);
            let topic = if (conversational || rng.gen_bool(cfg.p_chatter))
                && !u.chatter_topics.is_empty()
            {
                // Off-interest chatter: recurring personal themes, not a
                // uniform draw — concentration is what makes chatter
                // actually pollute a user model.
                u.chatter_topics[rng.gen_range(0..u.chatter_topics.len())]
            } else {
                sample_topic(rng, &u.interests)
            };
            // Conversational tweets open with a mention of a followee.
            let mention_handle;
            let mention = if conversational && !graph.followees(u.id).is_empty() {
                let fs = graph.followees(u.id);
                let v = fs[rng.gen_range(0..fs.len())];
                mention_handle = users[v.index()].handle.clone();
                Some(mention_handle.as_str())
            } else {
                None
            };
            let text = render_tweet(rng, cfg, model, topic, mention, &u.style_tokens);
            // A tweet is mostly about one topic, with a secondary shading.
            let mut topics = vec![(topic, 0.85f32)];
            let side = sample_topic(rng, &u.interests);
            if side != topic {
                topics.push((side, 0.15));
            } else {
                topics[0].1 = 1.0;
            }
            drafts.push((ts, u.id, text, topics, lang));
        }
    }
    drafts.sort_by_key(|d| (d.0, d.1));
    drafts
        .into_iter()
        .enumerate()
        .map(|(i, (timestamp, author, text, topics, language))| Tweet {
            id: TweetId(i as u32),
            author,
            timestamp,
            text,
            retweet_of: None,
            topics,
            language,
        })
        .collect()
}

fn generate_retweets(
    rng: &mut StdRng,
    cfg: &SimConfig,
    users: &[User],
    graph: &SocialGraph,
    tweets: &mut Vec<Tweet>,
) {
    let num_originals = tweets.len();
    // Author popularity (follower count) weights the discovery pool: trending
    // content on real platforms is skewed toward popular accounts.
    let popularity: Vec<f64> =
        users.iter().map(|u| 1.0 + graph.followers(u.id).len() as f64).collect();
    // Per-reader tables over authors, refilled for each reader: whether the
    // reader follows the author, and the reader's affinity for the author.
    let mut follows = vec![false; users.len()];
    let mut affinities = vec![1.0f64; users.len()];
    let (mut feed, mut feed_weights) = (Vec::new(), Vec::new());
    let (mut discovery, mut disc_weights) = (Vec::new(), Vec::new());
    for u in users {
        // Activity-coupled sharpness: see `SimConfig::gamma_activity_coupling`.
        let ratio = if u.planned_incoming == 0 {
            1.0
        } else {
            (u.planned_outgoing() as f64 / u.planned_incoming as f64).min(1.0)
        };
        let c = cfg.gamma_activity_coupling;
        let gamma_eff = cfg.retweet_gamma * (1.0 - c + c * ratio);
        follows.fill(false);
        for &v in graph.followees(u.id) {
            follows[v.index()] = true;
        }
        for (a, slot) in affinities.iter_mut().enumerate() {
            *slot = affinity(cfg, u.id, UserId(a as u32));
        }
        let interest_norm = squared_norm(&u.interests);
        // Feed pool: originals authored by followees. Discovery pool:
        // everything else not authored by u.
        feed.clear();
        feed_weights.clear();
        discovery.clear();
        disc_weights.clear();
        for (i, t) in tweets[..num_originals].iter().enumerate() {
            let author = t.author.index();
            let in_feed = follows[author];
            if !in_feed && t.author == u.id {
                continue;
            }
            let align = alignment(&u.interests, interest_norm, &t.topics) as f64;
            let lang = if t.language == u.language { 1.0 } else { cfg.cross_language_discount };
            let interest = (gamma_eff * align).exp();
            if in_feed {
                feed.push(i);
                feed_weights.push(interest * lang * affinities[author]);
            } else {
                discovery.push(i);
                disc_weights.push(interest * popularity[author] * lang * affinities[author]);
            }
        }
        let want_feed = ((u.planned_retweets as f64) * cfg.retweet_from_feed).round() as usize;
        let n_feed = want_feed.min(((feed.len() as f64) * cfg.max_feed_retweet_share) as usize);
        let chosen_feed = weighted_sample_without_replacement(rng, &feed, &feed_weights, n_feed);
        let n_disc = u.planned_retweets.saturating_sub(chosen_feed.len());
        let chosen_disc =
            weighted_sample_without_replacement(rng, &discovery, &disc_weights, n_disc);
        for orig_idx in chosen_feed.into_iter().chain(chosen_disc) {
            let delay: Timestamp = rng.gen_range(1..=(cfg.horizon / 50).max(1));
            let orig = &tweets[orig_idx];
            let rt = Tweet {
                id: TweetId(tweets.len() as u32),
                author: u.id,
                timestamp: orig.timestamp.saturating_add(delay),
                text: format!("rt @{}: {}", users[orig.author.index()].handle, orig.text),
                retweet_of: Some(orig.id),
                topics: orig.topics.clone(),
                language: orig.language,
            };
            tweets.push(rt);
        }
    }
}

/// Persistent per-(reader, author) retweet affinity: a deterministic
/// log-normal factor that makes users repeatedly repost the same few
/// accounts, as real users do. Derived from a hash so it is stable across
/// the whole generation pass.
pub(crate) fn affinity(cfg: &SimConfig, reader: UserId, author: UserId) -> f64 {
    if cfg.author_affinity_sigma == 0.0 {
        return 1.0;
    }
    let mut h: u64 = cfg.seed ^ 0x9E37_79B9_7F4A_7C15;
    for v in [reader.0 as u64, author.0 as u64] {
        h ^= v.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = h.rotate_left(31).wrapping_mul(0x94D0_49BB_1331_11EB);
    }
    // Map the hash to a standard normal via Box–Muller on two halves.
    let u1 = ((h >> 11) as f64 + 1.0) / (u64::MAX >> 11) as f64;
    let u2 = ((h & 0x7FF) as f64 + 0.5) / 2048.0;
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (cfg.author_affinity_sigma * z).exp()
}

/// Weighted sampling without replacement (Efraimidis–Spirakis): draw `k`
/// items with probability proportional to `weights`, via keys `u^(1/w)`.
///
/// Every item draws its key, whatever `k` is. The result lists the `k`
/// largest keys in descending order, ties in input order: the order a
/// stable sort of all keys gives, found by selecting the top `k` first and
/// sorting only those.
pub(crate) fn weighted_sample_without_replacement(
    rng: &mut StdRng,
    items: &[usize],
    weights: &[f64],
    k: usize,
) -> Vec<usize> {
    debug_assert_eq!(items.len(), weights.len());
    let mut keyed: Vec<(f64, usize)> = weights
        .iter()
        .enumerate()
        .map(|(pos, &w)| {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let key = if w <= 0.0 { f64::NEG_INFINITY } else { u.ln() / w };
            (key, pos)
        })
        .collect();
    let by_key = |a: &(f64, usize), b: &(f64, usize)| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1));
    if 0 < k && k < keyed.len() {
        keyed.select_nth_unstable_by(k - 1, by_key);
    }
    keyed.truncate(k);
    keyed.sort_unstable_by(by_key);
    keyed.into_iter().map(|(_, pos)| items[pos]).collect()
}

pub(crate) fn index_timelines(
    users: &[User],
    tweets: &[Tweet],
) -> (Vec<Vec<TweetId>>, Vec<Vec<TweetId>>) {
    let mut originals = vec![Vec::new(); users.len()];
    let mut retweets = vec![Vec::new(); users.len()];
    for t in tweets {
        if t.is_retweet() {
            retweets[t.author.index()].push(t.id);
        } else {
            originals[t.author.index()].push(t.id);
        }
    }
    for list in originals.iter_mut().chain(retweets.iter_mut()) {
        list.sort_by_key(|id| (tweets[id.index()].timestamp, *id));
    }
    (originals, retweets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScalePreset;

    fn smoke_corpus() -> Corpus {
        generate_corpus(&SimConfig::preset(ScalePreset::Smoke, 1234))
    }

    #[test]
    fn corpus_has_planned_shape() {
        let c = smoke_corpus();
        assert_eq!(c.evaluated_user_ids().count(), 60);
        assert_eq!(c.users.len(), c.config.total_population());
        assert!(c.len() > 1000, "smoke corpus too small: {}", c.len());
        for (i, t) in c.tweets.iter().enumerate() {
            assert_eq!(t.id.index(), i, "tweet ids must be dense");
        }
    }

    #[test]
    fn retweets_reference_earlier_originals() {
        let c = smoke_corpus();
        for t in &c.tweets {
            if let Some(orig) = t.retweet_of {
                let o = c.tweet(orig);
                assert!(o.retweet_of.is_none(), "retweets of retweets are not generated");
                assert!(t.timestamp > o.timestamp, "retweet must postdate the original");
                assert_ne!(t.author, o.author, "users do not retweet themselves");
            }
        }
    }

    #[test]
    fn retweet_counts_are_near_plan() {
        let c = smoke_corpus();
        for u in &c.users {
            let got = c.retweets_of(u.id).len();
            assert!(got <= u.planned_retweets, "user {:?} has more retweets than planned", u.id);
            // The feed cap can reduce counts, but discovery backfills.
            assert!(
                got + 2 >= u.planned_retweets.min(4),
                "user {:?} got {got} of {} planned retweets",
                u.id,
                u.planned_retweets
            );
        }
    }

    #[test]
    fn retweets_align_with_interests() {
        let c = smoke_corpus();
        // The average interest alignment of retweeted content must exceed
        // the average alignment of non-retweeted incoming content — this is
        // the recommendation signal the whole study rests on.
        let mut rt_align = 0.0f64;
        let mut rt_n = 0usize;
        let mut other_align = 0.0f64;
        let mut other_n = 0usize;
        for u in &c.users {
            let retweeted: std::collections::HashSet<TweetId> =
                c.retweets_of(u.id).iter().map(|&id| c.tweet(id).retweet_of.unwrap()).collect();
            for id in c.incoming_of(u.id) {
                let t = c.tweet(id);
                if t.is_retweet() {
                    continue;
                }
                let a = c.user(u.id).interest_alignment(&t.topics) as f64;
                if retweeted.contains(&t.id) {
                    rt_align += a;
                    rt_n += 1;
                } else {
                    other_align += a;
                    other_n += 1;
                }
            }
        }
        assert!(rt_n > 0 && other_n > 0);
        let rt_avg = rt_align / rt_n as f64;
        let other_avg = other_align / other_n as f64;
        assert!(
            rt_avg > other_avg + 0.1,
            "retweeted content must be interest-aligned: {rt_avg:.3} vs {other_avg:.3}"
        );
    }

    #[test]
    fn posting_ratios_recover_the_bands() {
        let c = smoke_corpus();
        // Band 0 (IS plan) should measure clearly lower ratios than band 2
        // (IP plan).
        let avg_ratio = |band: usize| {
            let us: Vec<&User> = c.users.iter().filter(|u| u.band == band).collect();
            us.iter().map(|u| c.posting_ratio(u.id)).sum::<f64>() / us.len() as f64
        };
        let is = avg_ratio(0);
        let bu = avg_ratio(1);
        let ip = avg_ratio(2);
        assert!(is < bu && bu < ip, "ratios must order IS < BU < IP: {is:.2} {bu:.2} {ip:.2}");
        assert!(is < 0.5, "IS ratios too high: {is:.2}");
        assert!(ip > 1.5, "IP ratios too low: {ip:.2}");
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = SimConfig::preset(ScalePreset::Smoke, 77);
        let a = generate_corpus(&cfg);
        let b = generate_corpus(&cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.tweets.iter().zip(&b.tweets) {
            assert_eq!(x.text, y.text);
            assert_eq!(x.timestamp, y.timestamp);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_corpus(&SimConfig::preset(ScalePreset::Smoke, 1));
        let b = generate_corpus(&SimConfig::preset(ScalePreset::Smoke, 2));
        assert!(
            a.tweets.iter().zip(&b.tweets).any(|(x, y)| x.text != y.text),
            "seeds must change the corpus"
        );
    }

    #[test]
    fn languages_cover_the_mix() {
        let c = smoke_corpus();
        let evaluated: Vec<_> = c.users.iter().filter(|u| !u.is_background).collect();
        let english = evaluated.iter().filter(|u| u.language == Language::English).count();
        assert!(english > 40, "English must dominate: {english}/60");
        assert!(
            c.users.iter().any(|u| u.language != Language::English),
            "some non-English users expected"
        );
    }

    #[test]
    fn weighted_sampling_prefers_heavy_items() {
        let mut rng = StdRng::seed_from_u64(5);
        let items: Vec<usize> = (0..100).collect();
        let weights: Vec<f64> = (0..100).map(|i| if i < 10 { 100.0 } else { 1.0 }).collect();
        let mut heavy_hits = 0;
        for _ in 0..30 {
            let chosen = weighted_sample_without_replacement(&mut rng, &items, &weights, 10);
            heavy_hits += chosen.iter().filter(|&&i| i < 10).count();
        }
        assert!(heavy_hits > 150, "heavy items should dominate: {heavy_hits}/300");
    }

    #[test]
    fn weighted_sampling_without_replacement_is_distinct() {
        let mut rng = StdRng::seed_from_u64(5);
        let items: Vec<usize> = (0..20).collect();
        let weights = vec![1.0; 20];
        let chosen = weighted_sample_without_replacement(&mut rng, &items, &weights, 20);
        let set: std::collections::HashSet<usize> = chosen.iter().copied().collect();
        assert_eq!(set.len(), 20);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::RngCore;

    /// The sampler before top-k selection, kept as the reference: a stable
    /// sort of every key, truncated to `k`.
    fn sample_by_full_sort(
        rng: &mut StdRng,
        items: &[usize],
        weights: &[f64],
        k: usize,
    ) -> Vec<usize> {
        let mut keyed: Vec<(f64, usize)> = items
            .iter()
            .zip(weights)
            .map(|(&item, &w)| {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                let key = if w <= 0.0 { f64::NEG_INFINITY } else { u.ln() / w };
                (key, item)
            })
            .collect();
        keyed.sort_by(|a, b| b.0.total_cmp(&a.0));
        keyed.truncate(k);
        keyed.into_iter().map(|(_, item)| item).collect()
    }

    /// Weights drawn from this palette repeat, and zero or negative weights
    /// (keys −∞) and infinite weights (keys −0) tie, so ties are common.
    const PALETTE: [f64; 7] = [0.0, -1.0, 0.5, 1.0, 1.0, 3.0, f64::INFINITY];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn top_k_selection_matches_the_full_sort(
            picks in proptest::collection::vec(0usize..PALETTE.len(), 0..40),
            seed in 0u64..1_000_000,
        ) {
            let weights: Vec<f64> = picks.iter().map(|&p| PALETTE[p]).collect();
            let n = weights.len();
            // Items unlike their positions, so a position leaking into the
            // output shows.
            let items: Vec<usize> = (0..n).map(|i| 1_000 + 7 * i).collect();
            for k in [0, 1, n / 2, n.saturating_sub(1), n, n + 3] {
                let mut fast = StdRng::seed_from_u64(seed);
                let mut reference = StdRng::seed_from_u64(seed);
                let got = weighted_sample_without_replacement(&mut fast, &items, &weights, k);
                let want = sample_by_full_sort(&mut reference, &items, &weights, k);
                prop_assert_eq!(got, want, "k = {} of n = {}", k, n);
                prop_assert_eq!(fast.next_u64(), reference.next_u64(), "RNG state after k = {}", k);
            }
        }
    }
}
