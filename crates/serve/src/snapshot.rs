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

use pmr_core::{OnlineGraphModel, OnlineProfile, PmrError, PmrResult};
use pmr_sim::Timestamp;
use pmr_topics::TopicProfile;
use serde::{Deserialize, Serialize};

use crate::config::EngineConfig;

/// Current snapshot format version; bumped on breaking layout changes.
/// v2 added the `epoch` header field and the topic user-model variant.
pub const SNAPSHOT_VERSION: u32 = 2;

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

/// A user's serialized online model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum UserModelSnapshot {
    /// Decayed bag centroid.
    Bag(OnlineProfile),
    /// Incremental n-gram graph.
    Graph(OnlineGraphModel),
    /// Decayed topic profile (fold-in θ accumulator); the shared background
    /// model is carried by the header's `epoch`, not per user.
    Topic(TopicProfile),
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
    pub model: UserModelSnapshot,
    /// Their candidate window.
    pub window: Vec<WindowEntrySnapshot>,
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
        if header.version != SNAPSHOT_VERSION {
            return Err(PmrError::Serialize {
                detail: format!(
                    "snapshot version {} unsupported (expected {SNAPSHOT_VERSION})",
                    header.version
                ),
            });
        }
        let mut users = Vec::new();
        for line in lines {
            let user: UserSnapshot = serde_json::from_str(line)
                .map_err(|e| PmrError::Serialize { detail: format!("snapshot user line: {e}") })?;
            users.push(user);
        }
        if users.len() as u64 != header.users {
            return Err(PmrError::Serialize {
                detail: format!(
                    "snapshot truncated: header promises {} users, found {}",
                    header.users,
                    users.len()
                ),
            });
        }
        Ok(EngineSnapshot { header, users })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServeModel;
    use pmr_bag::{BagSimilarity, SparseVector, WeightingScheme};
    use pmr_graph::GraphSimilarity;

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
                model: UserModelSnapshot::Bag(profile),
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
        let mut model = OnlineGraphModel::new(GraphSimilarity::Value, 1);
        model.observe(&["a", "b", "c"]);
        let mut snap = sample();
        snap.header.config.model =
            ServeModel::Graph { similarity: GraphSimilarity::Value, char_grams: false, n: 1 };
        snap.users[0].model = UserModelSnapshot::Graph(model);
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

    #[test]
    fn version_and_truncation_are_rejected() {
        let snap = sample();
        let text = snap.to_jsonl().expect("serializes");
        let future = text.replacen("\"version\":2", "\"version\":99", 1);
        assert!(EngineSnapshot::from_jsonl(&future).is_err(), "future version must be rejected");
        let truncated = text.lines().next().expect("header").to_owned();
        assert!(
            EngineSnapshot::from_jsonl(&truncated).is_err(),
            "missing user lines must be rejected"
        );
        assert!(EngineSnapshot::from_jsonl("").is_err(), "empty input must be rejected");
    }
}
