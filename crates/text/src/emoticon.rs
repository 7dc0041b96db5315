//! Emoticon lexicon and classification.
//!
//! The Labeled-LDA configuration of the paper (§4, following Ramage et al.
//! 2010) uses nine categories of emoticons as tweet labels: *smile*, *frown*,
//! *wink*, *big grin*, *heart*, *surprise*, *awkward*, *confused* and *laugh*.
//! This module provides the lexicon used both by the tokenizer (to keep
//! emoticons together as single tokens) and by the labeler (to map an
//! emoticon to its category).

use serde::{Deserialize, Serialize};

use crate::token::has_prefix;

/// The nine emoticon categories used as Labeled-LDA labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum EmoticonClass {
    Smile,
    Frown,
    Wink,
    BigGrin,
    Heart,
    Surprise,
    Awkward,
    Confused,
    Laugh,
}

impl EmoticonClass {
    /// All categories, in a stable order.
    pub const ALL: [EmoticonClass; 9] = [
        EmoticonClass::Smile,
        EmoticonClass::Frown,
        EmoticonClass::Wink,
        EmoticonClass::BigGrin,
        EmoticonClass::Heart,
        EmoticonClass::Surprise,
        EmoticonClass::Awkward,
        EmoticonClass::Confused,
        EmoticonClass::Laugh,
    ];

    /// Canonical lower-case name, used to derive Labeled-LDA label strings.
    pub fn name(self) -> &'static str {
        match self {
            EmoticonClass::Smile => "smile",
            EmoticonClass::Frown => "frown",
            EmoticonClass::Wink => "wink",
            EmoticonClass::BigGrin => "big_grin",
            EmoticonClass::Heart => "heart",
            EmoticonClass::Surprise => "surprise",
            EmoticonClass::Awkward => "awkward",
            EmoticonClass::Confused => "confused",
            EmoticonClass::Laugh => "laugh",
        }
    }

    /// Whether the paper assigns 10 frequency variations to this category's
    /// label (§4: the emoticons *big grin*, *heart*, *surprise* and
    /// *confused* carry no variations; the rest do).
    pub fn has_variations(self) -> bool {
        !matches!(
            self,
            EmoticonClass::BigGrin
                | EmoticonClass::Heart
                | EmoticonClass::Surprise
                | EmoticonClass::Confused
        )
    }
}

/// The emoticon lexicon: surface form → category.
///
/// Longest-match entries must come first within a shared prefix; the matcher
/// below tries longer forms before shorter ones regardless of order, so the
/// table order is purely cosmetic.
pub(crate) const LEXICON: &[(&str, EmoticonClass)] = &[
    (":-)", EmoticonClass::Smile),
    (":)", EmoticonClass::Smile),
    ("(-:", EmoticonClass::Smile),
    ("(:", EmoticonClass::Smile),
    ("=)", EmoticonClass::Smile),
    (":-(", EmoticonClass::Frown),
    (":(", EmoticonClass::Frown),
    (")-:", EmoticonClass::Frown),
    ("):", EmoticonClass::Frown),
    ("=(", EmoticonClass::Frown),
    (";-)", EmoticonClass::Wink),
    (";)", EmoticonClass::Wink),
    (":-d", EmoticonClass::BigGrin),
    (":d", EmoticonClass::BigGrin),
    ("=d", EmoticonClass::BigGrin),
    ("<3", EmoticonClass::Heart),
    (":-o", EmoticonClass::Surprise),
    (":o", EmoticonClass::Surprise),
    (":-/", EmoticonClass::Awkward),
    (":/", EmoticonClass::Awkward),
    (":-\\", EmoticonClass::Awkward),
    (":\\", EmoticonClass::Awkward),
    (":-s", EmoticonClass::Confused),
    (":s", EmoticonClass::Confused),
    (":-|", EmoticonClass::Confused),
    (":'(", EmoticonClass::Frown),
    ("xd", EmoticonClass::Laugh),
    ("x-d", EmoticonClass::Laugh),
    (":p", EmoticonClass::Laugh),
    (":-p", EmoticonClass::Laugh),
];

/// Try to match an emoticon starting at `start` in `chars` (already
/// lower-cased). Returns the exclusive end index of the longest match.
///
/// An emoticon whose surface form *starts* with a letter (`xd`) requires a
/// token boundary before it, and one that *ends* with a letter or digit
/// (`:d`, `<3`) requires a boundary after it; this keeps words like
/// "xdocument" and prefixes like ":dog" intact, while punctuation-delimited
/// emoticons such as `:)` may directly follow a word ("cool:)").
pub fn match_emoticon(chars: &[char], start: usize) -> Option<usize> {
    let preceded_by_word = start > 0 && chars[start - 1].is_alphanumeric();
    let mut best: Option<usize> = None;
    for (surface, _) in LEXICON {
        if has_prefix(&chars[start..], surface) {
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

/// Classify a full token as an emoticon, if it is one.
pub fn classify_emoticon(token: &str) -> Option<EmoticonClass> {
    LEXICON.iter().find(|(s, _)| *s == token).map(|&(_, c)| c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_the_basics() {
        assert_eq!(classify_emoticon(":)"), Some(EmoticonClass::Smile));
        assert_eq!(classify_emoticon(":-("), Some(EmoticonClass::Frown));
        assert_eq!(classify_emoticon(";)"), Some(EmoticonClass::Wink));
        assert_eq!(classify_emoticon(":d"), Some(EmoticonClass::BigGrin));
        assert_eq!(classify_emoticon("<3"), Some(EmoticonClass::Heart));
        assert_eq!(classify_emoticon(":o"), Some(EmoticonClass::Surprise));
        assert_eq!(classify_emoticon(":/"), Some(EmoticonClass::Awkward));
        assert_eq!(classify_emoticon(":s"), Some(EmoticonClass::Confused));
        assert_eq!(classify_emoticon("xd"), Some(EmoticonClass::Laugh));
        assert_eq!(classify_emoticon("hello"), None);
    }

    #[test]
    fn nine_categories() {
        assert_eq!(EmoticonClass::ALL.len(), 9);
    }

    #[test]
    fn longest_match_wins() {
        let chars: Vec<char> = ":-) yes".chars().collect();
        assert_eq!(match_emoticon(&chars, 0), Some(3));
    }

    #[test]
    fn no_match_inside_words() {
        // "xd" inside "xdocument" must not match.
        let chars: Vec<char> = "xdocument".chars().collect();
        assert_eq!(match_emoticon(&chars, 0), None);
        // ":d" followed by letters must not match either.
        let chars: Vec<char> = ":dog".chars().collect();
        assert_eq!(match_emoticon(&chars, 0), None);
    }

    #[test]
    fn punctuation_emoticon_may_follow_a_word() {
        let chars: Vec<char> = "ab:)".chars().collect();
        assert_eq!(match_emoticon(&chars, 2), Some(4));
    }

    #[test]
    fn letter_initial_emoticon_needs_leading_boundary() {
        let chars: Vec<char> = "a xd b".chars().collect();
        assert_eq!(match_emoticon(&chars, 2), Some(4));
        let glued: Vec<char> = "axd".chars().collect();
        assert_eq!(match_emoticon(&glued, 1), None);
    }

    #[test]
    fn variation_rules_match_the_paper() {
        assert!(EmoticonClass::Smile.has_variations());
        assert!(EmoticonClass::Frown.has_variations());
        assert!(!EmoticonClass::BigGrin.has_variations());
        assert!(!EmoticonClass::Heart.has_variations());
        assert!(!EmoticonClass::Surprise.has_variations());
        assert!(!EmoticonClass::Confused.has_variations());
    }
}
