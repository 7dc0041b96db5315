//! Representation sources (§2): where a user's training documents come from.
//!
//! Five atomic sources — the user's retweets `R`, her other tweets `T`, her
//! followees' posts `E`, her followers' posts `F` and her reciprocal
//! connections' posts `C` — plus the eight pairwise combinations the paper
//! evaluates (TR, RE, RF, RC, TE, TF, TC, EF), for thirteen in total.

use serde::{Deserialize, Serialize};

use pmr_sim::{Corpus, TweetId, UserId};

/// The thirteen representation sources of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RepresentationSource {
    /// The user's retweets.
    R,
    /// The user's tweets except retweets.
    T,
    /// All (re)tweets of followees.
    E,
    /// All (re)tweets of followers.
    F,
    /// All (re)tweets of reciprocal connections.
    C,
    /// `T ∪ R`.
    TR,
    /// `R ∪ E`.
    RE,
    /// `R ∪ F`.
    RF,
    /// `R ∪ C`.
    RC,
    /// `T ∪ E`.
    TE,
    /// `T ∪ F`.
    TF,
    /// `T ∪ C`.
    TC,
    /// `E ∪ F`.
    EF,
}

impl RepresentationSource {
    /// All thirteen sources in the paper's Table 6 column order.
    pub const ALL: [RepresentationSource; 13] = [
        RepresentationSource::R,
        RepresentationSource::T,
        RepresentationSource::E,
        RepresentationSource::F,
        RepresentationSource::C,
        RepresentationSource::TR,
        RepresentationSource::RE,
        RepresentationSource::RF,
        RepresentationSource::RC,
        RepresentationSource::TE,
        RepresentationSource::TF,
        RepresentationSource::TC,
        RepresentationSource::EF,
    ];

    /// The eight sources of the effectiveness figures (Figures 3–6): the
    /// five atomic sources plus the three best-performing pairs.
    pub const FIGURES: [RepresentationSource; 8] = [
        RepresentationSource::T,
        RepresentationSource::R,
        RepresentationSource::E,
        RepresentationSource::F,
        RepresentationSource::C,
        RepresentationSource::TR,
        RepresentationSource::RC,
        RepresentationSource::RE,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            RepresentationSource::R => "R",
            RepresentationSource::T => "T",
            RepresentationSource::E => "E",
            RepresentationSource::F => "F",
            RepresentationSource::C => "C",
            RepresentationSource::TR => "TR",
            RepresentationSource::RE => "RE",
            RepresentationSource::RF => "RF",
            RepresentationSource::RC => "RC",
            RepresentationSource::TE => "TE",
            RepresentationSource::TF => "TF",
            RepresentationSource::TC => "TC",
            RepresentationSource::EF => "EF",
        }
    }

    /// The atomic sources this source unions.
    pub fn components(self) -> &'static [RepresentationSource] {
        use RepresentationSource as S;
        match self {
            S::R => &[S::R],
            S::T => &[S::T],
            S::E => &[S::E],
            S::F => &[S::F],
            S::C => &[S::C],
            S::TR => &[S::T, S::R],
            S::RE => &[S::R, S::E],
            S::RF => &[S::R, S::F],
            S::RC => &[S::R, S::C],
            S::TE => &[S::T, S::E],
            S::TF => &[S::T, S::F],
            S::TC => &[S::T, S::C],
            S::EF => &[S::E, S::F],
        }
    }

    /// Whether the source contains both positive and negative examples —
    /// the condition under which the paper applies the Rocchio aggregation
    /// (§4: C, E, TE, RE, TC, RC and EF).
    pub fn has_negative_examples(self) -> bool {
        use RepresentationSource as S;
        matches!(self, S::C | S::E | S::TE | S::RE | S::TC | S::RC | S::EF)
    }

    /// Materialize the source's tweet ids for a user over the *whole*
    /// timeline (the split layer then restricts to the training phase).
    /// Atomic sources delegate to the corpus accessors; unions dedupe and
    /// re-sort by time.
    pub fn tweet_ids(self, corpus: &Corpus, user: UserId) -> Vec<TweetId> {
        let atomic = |s: RepresentationSource| -> Vec<TweetId> {
            match s {
                RepresentationSource::R => corpus.retweets_of(user).to_vec(),
                RepresentationSource::T => corpus.originals_of(user).to_vec(),
                RepresentationSource::E => corpus.incoming_of(user),
                RepresentationSource::F => corpus.followers_tweets_of(user),
                RepresentationSource::C => corpus.reciprocal_tweets_of(user),
                _ => unreachable!("components() only returns atomic sources"),
            }
        };
        let mut ids: Vec<TweetId> = self.components().iter().flat_map(|&s| atomic(s)).collect();
        ids.sort_by_key(|id| (corpus.tweet(*id).timestamp, *id));
        ids.dedup();
        ids
    }
}

impl std::fmt::Display for RepresentationSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmr_sim::{generate_corpus, ScalePreset, SimConfig};

    fn corpus() -> Corpus {
        generate_corpus(&SimConfig::preset(ScalePreset::Smoke, 99))
    }

    #[test]
    fn thirteen_sources() {
        assert_eq!(RepresentationSource::ALL.len(), 13);
        let unique: std::collections::HashSet<_> = RepresentationSource::ALL.iter().collect();
        assert_eq!(unique.len(), 13);
    }

    #[test]
    fn rocchio_sources_match_section_4() {
        use RepresentationSource as S;
        let with_negatives: Vec<S> =
            S::ALL.iter().copied().filter(|s| s.has_negative_examples()).collect();
        assert_eq!(with_negatives, vec![S::E, S::C, S::RE, S::RC, S::TE, S::TC, S::EF]);
    }

    #[test]
    fn union_sources_dedupe_and_cover_components() {
        let c = corpus();
        let u = c.evaluated_user_ids().next().unwrap();
        let t = RepresentationSource::T.tweet_ids(&c, u);
        let r = RepresentationSource::R.tweet_ids(&c, u);
        let tr = RepresentationSource::TR.tweet_ids(&c, u);
        assert_eq!(tr.len(), t.len() + r.len(), "T and R are disjoint");
        let set: std::collections::HashSet<_> = tr.iter().collect();
        assert!(t.iter().all(|id| set.contains(id)));
        assert!(r.iter().all(|id| set.contains(id)));
    }

    #[test]
    fn sources_are_time_ordered() {
        let c = corpus();
        let u = c.evaluated_user_ids().nth(3).unwrap();
        for s in RepresentationSource::ALL {
            let ids = s.tweet_ids(&c, u);
            for w in ids.windows(2) {
                assert!(c.tweet(w[0]).timestamp <= c.tweet(w[1]).timestamp, "{s} not time-ordered");
            }
        }
    }

    #[test]
    fn c_is_subset_of_e_and_f() {
        let c = corpus();
        let u = c.evaluated_user_ids().nth(5).unwrap();
        let e: std::collections::HashSet<_> =
            RepresentationSource::E.tweet_ids(&c, u).into_iter().collect();
        let f: std::collections::HashSet<_> =
            RepresentationSource::F.tweet_ids(&c, u).into_iter().collect();
        for id in RepresentationSource::C.tweet_ids(&c, u) {
            assert!(e.contains(&id) && f.contains(&id), "C must be E ∩ F");
        }
    }

    #[test]
    fn figures_list_has_eight_sources() {
        assert_eq!(RepresentationSource::FIGURES.len(), 8);
    }
}
