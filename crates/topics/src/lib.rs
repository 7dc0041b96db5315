//! # pmr-topics
//!
//! Topic models for short multilingual text — the context-agnostic family of
//! the paper's taxonomy (§3).
//!
//! Six models are implemented from their primary sources, all from scratch:
//!
//! | Model | Inference | Reference |
//! |-------|-----------|-----------|
//! | PLSA  | EM        | Hofmann 1999 |
//! | LDA   | collapsed Gibbs | Blei et al. 2003; Griffiths & Steyvers 2004 |
//! | LLDA  | constrained collapsed Gibbs | Ramage et al. 2009 |
//! | HDP   | direct-assignment Gibbs | Teh et al. 2006 §5.3 |
//! | HLDA  | nCRP path Gibbs, fixed depth | Blei et al. 2003 (NIPS) |
//! | BTM   | biterm collapsed Gibbs | Yan et al. 2013; Cheng et al. 2014 |
//!
//! The paper excluded PLSA from its experiments because every configuration
//! violated its 32 GB memory constraint; it is implemented here regardless
//! (the exclusion is a *rule* in `pmr-core`'s configuration grid, and the
//! simulated corpus is small enough to run it for completeness).
//!
//! All models expose the same [`TopicModel`] interface: train once per
//! representation source on pooled pseudo-documents ([`pooling`]), then
//! infer a dense topic distribution for any (training or testing) tweet.
//! User models are centroids of training-tweet distributions and are
//! compared to document models with cosine similarity (§3.2, "Using Topic
//! Models").

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod atm;
pub mod btm;
pub mod coherence;
pub mod corpus;
pub mod dmm;
pub mod hdp;
pub mod hlda;
pub mod label;
pub mod lda;
pub mod llda;
pub mod model;
pub mod online;
pub mod plsa;
pub mod pooling;

pub use atm::{AtmConfig, AtmModel};
pub use btm::{BtmConfig, BtmModel};
pub use coherence::{mean_coherence, umass_coherence};
pub use corpus::TopicCorpus;
pub use dmm::{DmmConfig, DmmModel};
pub use hdp::{HdpConfig, HdpModel};
pub use hlda::{HldaConfig, HldaModel};
pub use label::{LabelId, Labeler};
pub use lda::{LdaConfig, LdaModel};
pub use llda::{LldaConfig, LldaModel};
pub use model::TopicModel;
pub use online::{OnlineTopicConfig, TopicBackground, TopicDoc, TopicProfile};
pub use plsa::{PlsaConfig, PlsaModel};
pub use pooling::PoolingScheme;
