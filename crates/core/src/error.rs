//! The shared typed error of the framework.
//!
//! Library code in this workspace must not panic (`pmr-lint`'s
//! `lib-unwrap` rule enforces it): a degenerate synthetic user, a corrupted
//! cache or a malformed corpus is an *input* problem the caller decides how
//! to handle, not a programming error worth tearing the sweep down for.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Everything that can go wrong preparing or evaluating a corpus.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PmrError {
    /// A structural invariant of the corpus did not hold (e.g. a retweet
    /// without an original). Indicates a mis-built or corrupted corpus.
    CorpusInvariant {
        /// What was violated, with enough context to locate it.
        detail: String,
    },
    /// A user's timeline is too degenerate to derive the requested
    /// artifact from (e.g. an empty retweet sample where the split
    /// guarantees one).
    DegenerateUser {
        /// The offending user id.
        user: u32,
        /// What made the timeline unusable.
        detail: String,
    },
    /// Serialization of a result artifact failed.
    Serialize {
        /// The serializer's message.
        detail: String,
    },
    /// A configuration names a value its component cannot run with (e.g.
    /// a history decay outside (0, 1]).
    Config {
        /// Which value, and why it is rejected.
        detail: String,
    },
    /// A serving-engine worker died mid-stream (a panic in a shard), so
    /// the engine can no longer answer queries or snapshot barriers.
    EngineAborted {
        /// Which worker died and why, as far as the engine could tell.
        detail: String,
    },
}

impl PmrError {
    /// Shorthand for a [`PmrError::CorpusInvariant`].
    pub fn invariant(detail: impl Into<String>) -> PmrError {
        PmrError::CorpusInvariant { detail: detail.into() }
    }
}

impl fmt::Display for PmrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PmrError::CorpusInvariant { detail } => {
                write!(f, "corpus invariant violated: {detail}")
            }
            PmrError::DegenerateUser { user, detail } => {
                write!(f, "user {user} has a degenerate timeline: {detail}")
            }
            PmrError::Serialize { detail } => write!(f, "serialization failed: {detail}"),
            PmrError::Config { detail } => write!(f, "invalid configuration: {detail}"),
            PmrError::EngineAborted { detail } => {
                write!(f, "serving engine aborted: {detail}")
            }
        }
    }
}

impl std::error::Error for PmrError {}

/// The framework's result alias.
pub type PmrResult<T> = Result<T, PmrError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_their_context() {
        let e = PmrError::invariant("retweet 42 points at nothing");
        assert_eq!(e.to_string(), "corpus invariant violated: retweet 42 points at nothing");
        let e = PmrError::DegenerateUser { user: 7, detail: "no feed retweets".into() };
        assert!(e.to_string().contains("user 7"));
    }

    #[test]
    fn errors_round_trip_through_serde() {
        let e = PmrError::DegenerateUser { user: 3, detail: "x".into() };
        let json = serde_json::to_string(&e).expect("serializable");
        let back: PmrError = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(e, back);
    }
}
