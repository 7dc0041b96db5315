//! User types and per-user generation plans.

use serde::{Deserialize, Serialize};

use pmr_text::Language;

/// Dense user identifier (index into [`crate::Corpus::users`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct UserId(pub u32);

impl UserId {
    /// The user's index in the corpus table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A simulated user: latent interests, languages and activity plan.
///
/// The `interests` vector is generative ground truth, used by the retweet
/// process and by tests; representation models must never read it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct User {
    /// Identifier, equal to the user's index in the corpus table.
    pub id: UserId,
    /// Screen name (used for `@mention` surface forms).
    pub handle: String,
    /// Latent interest distribution over the simulator's topics (sums to 1).
    pub interests: Vec<f32>,
    /// Dominant language of the user's tweets.
    pub language: Language,
    /// Secondary language, occasionally used ([`crate::SimConfig::p_secondary_language`]).
    pub secondary_language: Language,
    /// Planned number of original tweets.
    pub planned_tweets: usize,
    /// Planned number of retweets.
    pub planned_retweets: usize,
    /// Planned incoming volume |E(u)| the graph builder aims for.
    pub planned_incoming: usize,
    /// Index of the activity band this user was drawn from (0=IS, 1=BU,
    /// 2=IP, 3=extra in the default preset). Generation metadata only — the
    /// *experiment* groups users by measured posting ratio, like the paper.
    pub band: usize,
    /// Background users populate the social graph (as the full 2009 Twitter
    /// graph surrounds the paper's 60 users) but are never evaluated.
    pub is_background: bool,
    /// Personal style tokens (slang, habitual tags): sprinkled into the
    /// user's tweets with [`crate::SimConfig::p_author_style`].
    pub style_tokens: Vec<String>,
    /// Recurring off-interest "chatter" themes (everyday life,
    /// conversations). Original tweets drift to these with
    /// [`crate::SimConfig::p_chatter`]; retweets never do — which is why
    /// the paper finds a user's retweets a cleaner interest signal than
    /// her own tweets.
    pub chatter_topics: Vec<usize>,
}

impl User {
    /// Planned outgoing volume |R ∪ T|.
    pub fn planned_outgoing(&self) -> usize {
        self.planned_tweets + self.planned_retweets
    }

    /// Cosine similarity between this user's interests and a topic mixture.
    ///
    /// Interests are a dense distribution, `topics` a sparse one. This is the
    /// quantity the retweet process thresholds on.
    pub fn interest_alignment(&self, topics: &[(usize, f32)]) -> f32 {
        alignment(&self.interests, squared_norm(&self.interests), topics)
    }
}

/// Squared Euclidean norm of an interest vector: the reader-only part of
/// [`alignment`], which the retweet passes compute once per reader.
pub(crate) fn squared_norm(interests: &[f32]) -> f32 {
    interests.iter().map(|w| w * w).sum()
}

/// Cosine between dense `interests`, whose [`squared_norm`] is
/// `interest_norm`, and a sparse topic mixture.
pub(crate) fn alignment(interests: &[f32], interest_norm: f32, topics: &[(usize, f32)]) -> f32 {
    let mut dot = 0.0f32;
    let mut t_norm = 0.0f32;
    for &(k, w) in topics {
        dot += interests.get(k).copied().unwrap_or(0.0) * w;
        t_norm += w * w;
    }
    if t_norm == 0.0 || interest_norm == 0.0 {
        return 0.0;
    }
    dot / (t_norm.sqrt() * interest_norm.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn user_with_interests(interests: Vec<f32>) -> User {
        User {
            id: UserId(0),
            handle: "u0".into(),
            interests,
            language: Language::English,
            secondary_language: Language::English,
            planned_tweets: 0,
            planned_retweets: 0,
            planned_incoming: 0,
            band: 0,
            is_background: false,
            style_tokens: Vec::new(),
            chatter_topics: Vec::new(),
        }
    }

    #[test]
    fn alignment_is_high_on_matching_topic() {
        let u = user_with_interests(vec![0.9, 0.05, 0.05]);
        let aligned = u.interest_alignment(&[(0, 1.0)]);
        let misaligned = u.interest_alignment(&[(2, 1.0)]);
        assert!(aligned > misaligned);
        assert!(aligned > 0.9);
    }

    #[test]
    fn alignment_handles_empty_and_out_of_range() {
        let u = user_with_interests(vec![1.0, 0.0]);
        assert_eq!(u.interest_alignment(&[]), 0.0);
        assert_eq!(u.interest_alignment(&[(99, 1.0)]), 0.0);
    }

    #[test]
    fn planned_outgoing_sums_plans() {
        let mut u = user_with_interests(vec![1.0]);
        u.planned_tweets = 3;
        u.planned_retweets = 4;
        assert_eq!(u.planned_outgoing(), 7);
    }
}
