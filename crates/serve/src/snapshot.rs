//! Snapshot/restore of the full engine state as JSONL.
//!
//! Layout: one header line ([`SnapshotHeader`]) followed by one
//! [`UserSnapshot`] line per user in ascending user-id order. The format is
//! byte-deterministic — users are sorted across shards before writing and
//! the JSON serializer emits map keys in sorted order — so two engines
//! paused at the same stream position produce identical files regardless
//! of their shard count. Restoring is the inverse: the user list is
//! re-partitioned onto whatever shard layout the resuming engine runs.
//!
//! Window entries are stored as `(tweet id, arrival time)` pairs, not as
//! materialized feature vectors: features are a pure function of the
//! corpus and the [`EngineConfig`], so the restoring side recomputes them
//! (via the resolver passed to [`crate::Engine::resume`]) instead of
//! bloating the snapshot with redundant floats.
//!
//! A graph user line holds only the user's merged graph (and the
//! similarity it scores under). Its vertex ids are the engine's shared
//! gram ids, a pure function of the corpus prefix that the restoring side
//! re-derives with the window features; so, like the topic background, the
//! id space is not serialized, and scoring never changes a snapshot.

use pmr_core::{PmrError, PmrResult};
use pmr_sim::Timestamp;
use serde::{Deserialize, Serialize};

use crate::config::{EngineConfig, ServeModel};
use crate::shard::UserModel;

/// Current snapshot format version; bumped on breaking layout changes.
/// v2 added the `epoch` header field and the topic user-model variant. v3
/// dropped the per-user gram space from graph user lines: their edge keys
/// are over the engine's shared gram ids.
pub const SNAPSHOT_VERSION: u32 = 3;

/// First line of a snapshot: format version, semantic configuration and
/// the replay position the snapshot was taken at.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SnapshotHeader {
    /// Format version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// The engine's semantic configuration.
    pub config: EngineConfig,
    /// Stream events ingested before the snapshot.
    pub events: u64,
    /// Queries issued before the snapshot (= the next query id).
    pub queries: u64,
    /// Topic-background epoch active at the snapshot (0 for the gram
    /// families). The background model itself is *not* serialized: it is a
    /// pure function of `(corpus, config, epoch)`, so the resuming side
    /// re-derives it — snapshot bytes stay independent of when the last
    /// retrain ran relative to the barrier.
    pub epoch: u64,
    /// Number of user lines that follow.
    pub users: u64,
}

/// One remembered feed tweet, by reference; features are recomputed on
/// restore.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowEntrySnapshot {
    /// The candidate tweet's id.
    pub tweet: u32,
    /// When it entered the user's feed.
    pub at: Timestamp,
}

/// One user line: model plus candidate window, oldest entry first.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UserSnapshot {
    /// The user's id.
    pub user: u32,
    /// Their online model.
    pub model: UserModel,
    /// Their candidate window.
    pub window: Vec<WindowEntrySnapshot>,
}

impl SnapshotHeader {
    /// Reject a header this build cannot resume from: another format
    /// version, or a config [`EngineConfig::check`] rejects.
    fn check(&self) -> PmrResult<()> {
        if self.version != SNAPSHOT_VERSION {
            return Err(PmrError::Serialize {
                detail: format!(
                    "snapshot version {} unsupported (expected {SNAPSHOT_VERSION})",
                    self.version
                ),
            });
        }
        self.config
            .check()
            .map_err(|e| PmrError::Serialize { detail: format!("snapshot header: {e}") })
    }
}

/// The complete state of a paused engine.
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    /// Version, configuration and position.
    pub header: SnapshotHeader,
    /// Every user with state, ascending by user id.
    pub users: Vec<UserSnapshot>,
}

impl EngineSnapshot {
    /// Serialize to the JSONL wire format (trailing newline included).
    pub fn to_jsonl(&self) -> PmrResult<String> {
        let mut out = String::new();
        let header = serde_json::to_string(&self.header)
            .map_err(|e| PmrError::Serialize { detail: format!("snapshot header: {e}") })?;
        out.push_str(&header);
        out.push('\n');
        for user in &self.users {
            let line = serde_json::to_string(user).map_err(|e| PmrError::Serialize {
                detail: format!("snapshot of user {}: {e}", user.user),
            })?;
            out.push_str(&line);
            out.push('\n');
        }
        Ok(out)
    }

    /// Parse the JSONL wire format back into a snapshot.
    pub fn from_jsonl(text: &str) -> PmrResult<EngineSnapshot> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header_line = lines.next().ok_or_else(|| PmrError::Serialize {
            detail: "empty snapshot: missing header line".to_owned(),
        })?;
        let header: SnapshotHeader = serde_json::from_str(header_line)
            .map_err(|e| PmrError::Serialize { detail: format!("snapshot header: {e}") })?;
        // Fail on the header before parsing user lines another version may
        // lay out differently.
        header.check()?;
        let mut users = Vec::new();
        for line in lines {
            let user: UserSnapshot = serde_json::from_str(line)
                .map_err(|e| PmrError::Serialize { detail: format!("snapshot user line: {e}") })?;
            users.push(user);
        }
        let snapshot = EngineSnapshot { header, users };
        snapshot.check()?;
        Ok(snapshot)
    }

    /// Reject a snapshot the engine cannot resume from faithfully: a bad
    /// header, a user count other than the header's, user ids out of
    /// strictly ascending order (a repeated user would silently replace
    /// the earlier line), or a user model of another family than the
    /// header's config (that user would get empty answers forever).
    pub(crate) fn check(&self) -> PmrResult<()> {
        self.header.check()?;
        let invalid = |detail: String| Err(PmrError::Serialize { detail });
        if self.users.len() as u64 != self.header.users {
            return invalid(format!(
                "snapshot truncated: header promises {} users, found {}",
                self.header.users,
                self.users.len()
            ));
        }
        for pair in self.users.windows(2) {
            if pair[0].user >= pair[1].user {
                return invalid(format!(
                    "snapshot user ids not strictly ascending: {} then {}",
                    pair[0].user, pair[1].user
                ));
            }
        }
        let config = self.header.config.model;
        for user in &self.users {
            let same_family = matches!(
                (&user.model, config),
                (UserModel::Bag(_), ServeModel::Bag { .. })
                    | (UserModel::Graph(_), ServeModel::Graph { .. })
                    | (UserModel::Topic(_), ServeModel::Topic { .. })
            );
            if !same_family {
                return invalid(format!(
                    "snapshot user {} holds a model of another family than the {} config",
                    user.user,
                    config.name()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServeModel;
    use pmr_bag::{BagSimilarity, SparseVector, WeightingScheme};
    use pmr_core::{OnlineGraphModel, OnlineProfile};
    use pmr_graph::{GraphSimilarity, NGramGraph};

    fn sample() -> EngineSnapshot {
        let mut profile = OnlineProfile::new(0.9);
        profile.observe_unit(&SparseVector::from_pairs(vec![(0, 3.0), (5, 4.0)]).normalized());
        EngineSnapshot {
            header: SnapshotHeader {
                version: SNAPSHOT_VERSION,
                config: EngineConfig {
                    model: ServeModel::Bag {
                        weighting: WeightingScheme::TF,
                        similarity: BagSimilarity::Cosine,
                        char_grams: false,
                        n: 1,
                        decay: 0.9,
                    },
                    window: 8,
                },
                events: 42,
                queries: 7,
                epoch: 0,
                users: 1,
            },
            users: vec![UserSnapshot {
                user: 3,
                model: UserModel::Bag(profile),
                window: vec![WindowEntrySnapshot { tweet: 11, at: 900 }],
            }],
        }
    }

    #[test]
    fn jsonl_round_trip_is_byte_stable() {
        let snap = sample();
        let text = snap.to_jsonl().expect("serializes");
        let back = EngineSnapshot::from_jsonl(&text).expect("parses");
        assert_eq!(back.to_jsonl().expect("re-serializes"), text);
        assert_eq!(back.header, snap.header);
        assert_eq!(back.users.len(), 1);
        assert_eq!(back.users[0].window, snap.users[0].window);
    }

    #[test]
    fn graph_snapshot_with_a_duplicate_edge_key_is_rejected() {
        let mut model = OnlineGraphModel::new(GraphSimilarity::Value);
        model.observe(&NGramGraph::from_ids(&[0, 1, 2], 1));
        let mut snap = sample();
        snap.header.config.model =
            ServeModel::Graph { similarity: GraphSimilarity::Value, char_grams: false, n: 1 };
        snap.users[0].model = UserModel::Graph(model);
        let text = snap.to_jsonl().expect("serializes");
        assert!(EngineSnapshot::from_jsonl(&text).is_ok());
        // Edges a-b and b-c: keys 1 and 2^32 + 2.
        let edges = r#""edges":{"1":1,"4294967298":1}"#;
        assert!(text.contains(edges), "unexpected graph encoding: {text}");
        let duplicated = text.replacen(edges, r#""edges":{"1":1,"4294967298":1,"1":2}"#, 1);
        match EngineSnapshot::from_jsonl(&duplicated) {
            Err(PmrError::Serialize { detail }) => {
                assert!(detail.contains("duplicate edge key 1"), "{detail}")
            }
            other => panic!("expected a Serialize error, got {other:?}"),
        }
    }

    fn rejected(text: &str) -> String {
        match EngineSnapshot::from_jsonl(text) {
            Err(PmrError::Serialize { detail }) => detail,
            other => panic!("expected a Serialize error, got {other:?}"),
        }
    }

    #[test]
    fn a_repeated_user_line_is_rejected() {
        let text = sample().to_jsonl().expect("serializes");
        let user_line = text.lines().nth(1).expect("one user line");
        let repeated = format!("{}{user_line}\n", text.replacen("\"users\":1", "\"users\":2", 1));
        assert!(rejected(&repeated).contains("strictly ascending"));
    }

    #[test]
    fn a_user_model_of_another_family_is_rejected() {
        let mut snap = sample();
        snap.users[0].model = UserModel::Graph(OnlineGraphModel::new(GraphSimilarity::Value));
        let text = snap.to_jsonl().expect("serializes");
        assert!(rejected(&text).contains("another family"));
    }

    #[test]
    fn a_header_decay_outside_the_unit_interval_is_rejected() {
        for decay in [0.0, -0.5, 1.5] {
            let mut snap = sample();
            if let ServeModel::Bag { decay: d, .. } = &mut snap.header.config.model {
                *d = decay;
            }
            let text = snap.to_jsonl().expect("serializes");
            assert!(rejected(&text).contains("outside (0, 1]"), "decay {decay}");
        }
    }

    #[test]
    fn a_header_gram_order_of_zero_is_rejected() {
        let mut snap = sample();
        if let ServeModel::Bag { n, .. } = &mut snap.header.config.model {
            *n = 0;
        }
        let text = snap.to_jsonl().expect("serializes");
        assert!(rejected(&text).contains("gram order n = 0"));
    }

    #[test]
    fn version_and_truncation_are_rejected() {
        let snap = sample();
        let text = snap.to_jsonl().expect("serializes");
        let future = text.replacen(&format!("\"version\":{SNAPSHOT_VERSION}"), "\"version\":99", 1);
        assert_ne!(future, text, "the edit must hit the version field");
        assert!(EngineSnapshot::from_jsonl(&future).is_err(), "future version must be rejected");
        let truncated = text.lines().next().expect("header").to_owned();
        assert!(
            EngineSnapshot::from_jsonl(&truncated).is_err(),
            "missing user lines must be rejected"
        );
        assert!(EngineSnapshot::from_jsonl("").is_err(), "empty input must be rejected");
    }
}

#[cfg(test)]
mod proptests {
    use std::sync::{Arc, OnceLock};

    use pmr_graph::{GraphSimilarity, NGramGraph};
    use pmr_sim::{TweetId, UserId};
    use pmr_text::vocab::TermId;
    use proptest::prelude::*;

    use super::*;
    use crate::config::{EngineConfig, RuntimeOptions, ServeModel};
    use crate::{Engine, TweetFeatures};

    /// A graph-family snapshot taken from a running engine. Its user lines
    /// hold edge keys and weights only (no gram strings), so edits land in
    /// numbers, keys and JSON structure; the multi-byte replacements below
    /// put UTF-8 sequences where the decoder expects none.
    fn graph_snapshot() -> &'static str {
        static TEXT: OnceLock<String> = OnceLock::new();
        TEXT.get_or_init(|| {
            let config = EngineConfig {
                model: ServeModel::Graph {
                    similarity: GraphSimilarity::Value,
                    char_grams: false,
                    n: 2,
                },
                window: 4,
            };
            let runtime =
                RuntimeOptions { shards: 2, queue_capacity: 8, ..RuntimeOptions::default() };
            let mut engine = Engine::start(config, runtime);
            // Gram ids of four short documents; the last repeats gram 0.
            let docs: [&[TermId]; 4] = [&[0, 1, 2], &[3, 4, 5], &[6, 7, 8], &[9, 0]];
            for (i, ids) in docs.iter().enumerate() {
                let features = Arc::new(TweetFeatures::Graph(NGramGraph::from_ids(ids, 2)));
                for user in 0..3u32 {
                    if (i as u32 + user).is_multiple_of(2) {
                        engine.observe(UserId(user), &features);
                    }
                    engine.post_candidate(UserId(user), TweetId(i as u32), i as u64, &features);
                }
            }
            let text =
                engine.snapshot(4).expect("all shards alive").to_jsonl().expect("serializes");
            engine.shutdown();
            text
        })
    }

    /// Characters an edit writes: JSON structure, escapes, digits and
    /// multi-byte text.
    const REPLACEMENTS: [char; 16] =
        ['"', '\\', '{', '}', '[', ']', ':', ',', '0', '9', '-', 'u', 'd', 'é', '😀', '\n'];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Decode never panics on an edited snapshot, and a changed version
        /// or a repeated user line (header count raised to match) is
        /// always an error.
        #[test]
        fn edited_snapshots_decode_without_panicking(
            kind in 0u8..4,
            at in 0.0f64..1.0,
            replacement in 0usize..REPLACEMENTS.len(),
            version in 0u32..8,
        ) {
            let text = graph_snapshot();
            prop_assert!(EngineSnapshot::from_jsonl(text).is_ok(), "the unedited snapshot decodes");
            let boundaries: Vec<usize> =
                text.char_indices().map(|(i, _)| i).chain([text.len()]).collect();
            let boundary = boundaries[(at * boundaries.len() as f64) as usize];
            match kind {
                0 => {
                    let _ = EngineSnapshot::from_jsonl(&text[..boundary]);
                }
                1 => {
                    let mut edited = text.to_owned();
                    if let Some(c) = edited[boundary..].chars().next() {
                        edited.replace_range(
                            boundary..boundary + c.len_utf8(),
                            REPLACEMENTS[replacement].encode_utf8(&mut [0; 4]),
                        );
                    }
                    let _ = EngineSnapshot::from_jsonl(&edited);
                }
                2 => {
                    let version = if version == SNAPSHOT_VERSION { version + 1 } else { version };
                    let edited = text.replacen(
                        &format!("\"version\":{SNAPSHOT_VERSION}"),
                        &format!("\"version\":{version}"),
                        1,
                    );
                    prop_assert!(EngineSnapshot::from_jsonl(&edited).is_err());
                }
                _ => {
                    let lines: Vec<&str> = text.lines().collect();
                    let users = lines.len() - 1;
                    let repeat = 1 + (at * users as f64) as usize;
                    let mut edited = lines[0]
                        .replacen(&format!("\"users\":{users}"), &format!("\"users\":{}", users + 1), 1);
                    edited.push('\n');
                    for (i, line) in lines.iter().enumerate().skip(1) {
                        edited.push_str(line);
                        edited.push('\n');
                        if i == repeat {
                            edited.push_str(line);
                            edited.push('\n');
                        }
                    }
                    prop_assert!(EngineSnapshot::from_jsonl(&edited).is_err());
                }
            }
        }
    }
}
