//! # pmr-text
//!
//! Language-agnostic text substrate for content-based personalized microblog
//! recommendation (PMR).
//!
//! This crate implements the pre-processing pipeline described in §4 of
//! *"Comparative Analysis of Content-based Personalized Microblog
//! Recommendations"* (EDBT 2019):
//!
//! * lower-casing of all training and testing tweets,
//! * tokenization on white space and punctuation that keeps URLs, hashtags,
//!   mentions and emoticons together as single tokens ([`token`]),
//! * squeezing of repeated letters (emphatic lengthening, challenge C4),
//! * removal of the corpus-level most frequent tokens as stop words
//!   ([`vocab`]),
//! * character and token n-gram extraction shared by the bag and graph
//!   representation models ([`ngram`]),
//! * emoticon classification used by the Labeled-LDA labeler ([`emoticon`]),
//! * script/language detection used to regenerate the language-distribution
//!   table of the paper ([`lang`]), and
//! * tweet cleaning (hashtag/mention/URL/emoticon stripping) that precedes
//!   language detection ([`clean`]).
//!
//! No language-specific processing (stemming, lemmatization, POS tagging) is
//! performed anywhere: the paper's corpus is multilingual (challenge C3) and
//! its methodology is deliberately language-agnostic.

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod clean;
pub mod emoticon;
pub mod lang;
pub mod ngram;
pub mod token;
pub mod vocab;

#[cfg(test)]
mod reference;

pub use emoticon::{classify_emoticon, EmoticonClass};
pub use lang::{detect_language, Language};
pub use ngram::{char_ngrams, token_ngrams};
pub use token::{tokenize, Token, TokenKind, Tokenizer, TokenizerOptions};
pub use vocab::{StopWords, Vocabulary};
