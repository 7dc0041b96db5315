//! Test references: the URL and emoticon matchers as they were before they
//! tested prefixes on the char slice, collecting a `String` window at every
//! position instead.
//!
//! [`crate::token::Tokenizer::tokenize`] must produce the same tokens over
//! these as over the production matchers; the property test in
//! `token.rs` compares the two, and nothing outside this crate's tests
//! compiles the code here.

use crate::emoticon::LEXICON;
use crate::token::{url_end, URL_PREFIXES};

/// Longest emoticon length in characters, bounding the match window.
const MAX_LEN: usize = 3;

/// [`crate::token`]'s URL matcher over an 8-character `String` window.
pub(crate) fn match_url(chars: &[char], start: usize) -> Option<usize> {
    let rest: String = chars[start..].iter().take(8).collect();
    let opens = URL_PREFIXES.iter().any(|p| rest.starts_with(p));
    opens.then(|| url_end(chars, start))
}

/// [`crate::emoticon::match_emoticon`] over a `MAX_LEN`-character `String`
/// window.
pub(crate) fn match_emoticon(chars: &[char], start: usize) -> Option<usize> {
    let preceded_by_word = start > 0 && chars[start - 1].is_alphanumeric();
    let window: String = chars[start..].iter().take(MAX_LEN).collect();
    let mut best: Option<usize> = None;
    for (surface, _) in LEXICON {
        if window.starts_with(surface) {
            let end = start + surface.chars().count();
            let first_alnum = surface.chars().next().is_some_and(|c| c.is_alphanumeric());
            let last_alnum = surface.chars().last().is_some_and(|c| c.is_alphanumeric());
            if first_alnum && preceded_by_word {
                continue;
            }
            if last_alnum && end < chars.len() && chars[end].is_alphanumeric() {
                continue;
            }
            best = Some(best.map_or(end, |b: usize| b.max(end)));
        }
    }
    best
}

#[test]
fn the_window_covers_every_lexicon_entry() {
    assert!(LEXICON.iter().all(|(surface, _)| surface.chars().count() <= MAX_LEN));
}
