//! Tokenization of microblog posts.
//!
//! The tokenizer follows the protocol of the paper's experimental setup (§4):
//! the raw text is lower-cased, then split on white space and punctuation,
//! while URLs, hashtags, mentions and emoticons are kept together as single
//! tokens. Runs of repeated letters are squeezed to dampen emphatic
//! lengthening ("yeeees" → "yees", challenge C4).
//!
//! Tokenization is purely character-class based and therefore language
//! agnostic. Scripts that do not separate words with spaces (Chinese,
//! Japanese, Thai — challenge C3) surface as long `Word` tokens; the
//! character-based representation models are the ones equipped to deal with
//! those, exactly as in the paper.

use serde::{Deserialize, Serialize};

use crate::emoticon;

/// The lexical class of a token.
///
/// The class matters in two places: the Labeled-LDA labeler assigns labels
/// from hashtags, mentions and emoticons, and the cleaning step that precedes
/// language detection drops everything that is not a [`TokenKind::Word`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TokenKind {
    /// An ordinary word (any script).
    Word,
    /// A `#hashtag` token, kept whole including the leading `#`.
    Hashtag,
    /// A `@mention` token, kept whole including the leading `@`.
    Mention,
    /// A URL (`http://…` or `https://…` or `www.…`), kept whole.
    Url,
    /// An emoticon such as `:)` or `:-(`.
    Emoticon,
}

/// A token produced by the [`Tokenizer`]: its surface text (already
/// lower-cased and squeezed) plus its lexical class.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Token {
    /// Normalized surface form.
    pub text: String,
    /// Lexical class.
    pub kind: TokenKind,
}

impl Token {
    /// Convenience constructor used pervasively in tests.
    pub fn new(text: impl Into<String>, kind: TokenKind) -> Self {
        Token { text: text.into(), kind }
    }

    /// Shorthand for a plain [`TokenKind::Word`] token.
    pub fn word(text: impl Into<String>) -> Self {
        Token::new(text, TokenKind::Word)
    }
}

/// Options controlling tokenization.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TokenizerOptions {
    /// Maximum length of a run of identical letters that survives squeezing.
    /// The paper squeezes repeated letters; we keep doubles by default so
    /// legitimate words like "good" are unharmed while "goooood" becomes
    /// "good".
    pub max_letter_run: usize,
    /// Whether to lower-case the input before tokenizing (the paper always
    /// does; exposed for testing and ablations).
    pub lowercase: bool,
}

impl Default for TokenizerOptions {
    fn default() -> Self {
        TokenizerOptions { max_letter_run: 2, lowercase: true }
    }
}

/// A reusable tokenizer.
///
/// The tokenizer holds no corpus state (stop-word removal is a separate,
/// corpus-level step in [`crate::vocab`]), so a single instance can be shared
/// freely across threads.
#[derive(Debug, Clone, Default)]
pub struct Tokenizer {
    opts: TokenizerOptions,
}

impl Tokenizer {
    /// Create a tokenizer with the given options.
    pub fn new(opts: TokenizerOptions) -> Self {
        Tokenizer { opts }
    }

    /// Tokenize a raw tweet into normalized tokens.
    pub fn tokenize(&self, text: &str) -> Vec<Token> {
        self.tokenize_with(text, match_url, emoticon::match_emoticon)
    }

    /// The tokenizer loop over the given URL and emoticon matchers, each of
    /// which returns the exclusive end of a match at a position.
    fn tokenize_with(
        &self,
        text: &str,
        match_url: impl Fn(&[char], usize) -> Option<usize>,
        match_emoticon: impl Fn(&[char], usize) -> Option<usize>,
    ) -> Vec<Token> {
        let lowered;
        let text = if self.opts.lowercase {
            lowered = text.to_lowercase();
            &lowered
        } else {
            text
        };
        let mut tokens = Vec::new();
        let chars: Vec<char> = text.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
                continue;
            }
            // URLs: http://, https://, www.
            if let Some(end) = match_url(&chars, i) {
                tokens.push(Token::new(collect(&chars, i, end), TokenKind::Url));
                i = end;
                continue;
            }
            // Hashtags and mentions: marker followed by word characters.
            if (c == '#' || c == '@') && i + 1 < chars.len() && is_word_char(chars[i + 1]) {
                let mut end = i + 1;
                while end < chars.len() && is_word_char(chars[end]) {
                    end += 1;
                }
                let kind = if c == '#' { TokenKind::Hashtag } else { TokenKind::Mention };
                tokens.push(Token::new(collect(&chars, i, end), kind));
                i = end;
                continue;
            }
            // Emoticons: longest match from the lexicon.
            if let Some(end) = match_emoticon(&chars, i) {
                tokens.push(Token::new(collect(&chars, i, end), TokenKind::Emoticon));
                i = end;
                continue;
            }
            // Plain words: maximal run of word characters.
            if is_word_char(c) {
                let mut end = i;
                while end < chars.len() && is_word_char(chars[end]) {
                    end += 1;
                }
                let word = squeeze(&chars[i..end], self.opts.max_letter_run);
                tokens.push(Token::new(word, TokenKind::Word));
                i = end;
                continue;
            }
            // Any other punctuation separates tokens and is dropped.
            i += 1;
        }
        tokens
    }
}

/// Tokenize with default options (lower-cased, letter runs squeezed to 2).
pub fn tokenize(text: &str) -> Vec<Token> {
    Tokenizer::default().tokenize(text)
}

fn collect(chars: &[char], start: usize, end: usize) -> String {
    chars[start..end].iter().collect()
}

/// A character that may appear inside a word, hashtag or mention.
/// Underscores are included because Twitter usernames and hashtags use them.
fn is_word_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '\''
}

/// Squeeze runs of identical characters longer than `max_run` down to
/// `max_run` occurrences.
fn squeeze(chars: &[char], max_run: usize) -> String {
    debug_assert!(max_run >= 1);
    let mut out = String::with_capacity(chars.len());
    let mut run_char = None;
    let mut run_len = 0usize;
    for &c in chars {
        if Some(c) == run_char {
            run_len += 1;
        } else {
            run_char = Some(c);
            run_len = 1;
        }
        if run_len <= max_run {
            out.push(c);
        }
    }
    out
}

/// Whether `chars` begins with the characters of `prefix`.
pub(crate) fn has_prefix(chars: &[char], prefix: &str) -> bool {
    let mut rest = chars.iter();
    prefix.chars().all(|p| rest.next() == Some(&p))
}

/// The prefixes that open a URL token.
pub(crate) const URL_PREFIXES: [&str; 3] = ["http://", "https://", "www."];

/// Try to match a URL starting at `start`; returns the exclusive end index.
fn match_url(chars: &[char], start: usize) -> Option<usize> {
    let opens = URL_PREFIXES.iter().any(|p| has_prefix(&chars[start..], p));
    opens.then(|| url_end(chars, start))
}

/// The exclusive end of a URL that starts at `start`: the next whitespace,
/// with trailing sentence punctuation trimmed.
pub(crate) fn url_end(chars: &[char], start: usize) -> usize {
    let mut end = start;
    while end < chars.len() && !chars[end].is_whitespace() {
        end += 1;
    }
    // Trim trailing punctuation that commonly ends a sentence after a URL.
    while end > start && matches!(chars[end - 1], '.' | ',' | ')' | '!' | '?' | ';' | ':') {
        end -= 1;
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(text: &str) -> Vec<String> {
        tokenize(text).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn splits_on_whitespace_and_punctuation() {
        assert_eq!(words("Bob sues Jim."), vec!["bob", "sues", "jim"]);
        assert_eq!(words("one,two;three"), vec!["one", "two", "three"]);
    }

    #[test]
    fn lowercases() {
        assert_eq!(words("HeLLo WoRLD"), vec!["hello", "world"]);
    }

    #[test]
    fn keeps_hashtags_whole() {
        let toks = tokenize("great talk at #edbt today");
        let tag = toks.iter().find(|t| t.kind == TokenKind::Hashtag).unwrap();
        assert_eq!(tag.text, "#edbt");
    }

    #[test]
    fn keeps_mentions_whole() {
        let toks = tokenize("@alice did you see this?");
        assert_eq!(toks[0], Token::new("@alice", TokenKind::Mention));
    }

    #[test]
    fn keeps_urls_whole() {
        let toks = tokenize("read this http://example.com/a?b=1 now");
        let url = toks.iter().find(|t| t.kind == TokenKind::Url).unwrap();
        assert_eq!(url.text, "http://example.com/a?b=1");
    }

    #[test]
    fn url_trailing_punctuation_is_trimmed() {
        let toks = tokenize("see www.example.com.");
        let url = toks.iter().find(|t| t.kind == TokenKind::Url).unwrap();
        assert_eq!(url.text, "www.example.com");
    }

    #[test]
    fn detects_emoticons() {
        let toks = tokenize("love it :) so much");
        let emo = toks.iter().find(|t| t.kind == TokenKind::Emoticon).unwrap();
        assert_eq!(emo.text, ":)");
    }

    #[test]
    fn squeezes_emphatic_lengthening() {
        assert_eq!(words("yeeeeees"), vec!["yees"]);
        assert_eq!(words("good"), vec!["good"]); // doubles survive
        assert_eq!(words("goooood"), vec!["good"]);
    }

    #[test]
    fn squeeze_to_one_when_configured() {
        let t = Tokenizer::new(TokenizerOptions { max_letter_run: 1, lowercase: true });
        let toks = t.tokenize("yeeees good");
        assert_eq!(toks[0].text, "yes");
        assert_eq!(toks[1].text, "god");
    }

    #[test]
    fn bare_marker_characters_are_dropped() {
        assert_eq!(words("# @ !"), Vec::<String>::new());
    }

    #[test]
    fn handles_non_latin_scripts() {
        let toks = tokenize("日本語のツイート test");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].kind, TokenKind::Word);
        assert_eq!(toks[1].text, "test");
    }

    #[test]
    fn apostrophes_stay_inside_words() {
        assert_eq!(words("don't stop"), vec!["don't", "stop"]);
    }

    #[test]
    fn empty_input_yields_no_tokens() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   \t\n").is_empty());
    }

    #[test]
    fn mention_first_word_position_is_observable() {
        let toks = tokenize("@bob thanks for the follow");
        assert_eq!(toks[0].kind, TokenKind::Mention);
    }

    #[test]
    fn mixed_tweet_roundtrip() {
        let toks = tokenize("RT @carol: soooo cool!! :-) http://t.co/xyz #wow");
        let kinds: Vec<TokenKind> = toks.iter().map(|t| t.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TokenKind::Word,     // rt
                TokenKind::Mention,  // @carol
                TokenKind::Word,     // soo
                TokenKind::Word,     // cool
                TokenKind::Emoticon, // :-)
                TokenKind::Url,      // http://t.co/xyz
                TokenKind::Hashtag,  // #wow
            ]
        );
        assert_eq!(toks[2].text, "soo");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The tokenizer never panics and always lower-cases ASCII.
        #[test]
        fn tokenizer_is_total(text in "\\PC{0,120}") {
            for t in tokenize(&text) {
                prop_assert!(!t.text.is_empty());
                prop_assert!(!t.text.chars().any(|c| c.is_ascii_uppercase()));
            }
        }

        /// Squeezing leaves no letter run longer than the configured cap in
        /// plain words.
        #[test]
        fn squeezing_bounds_runs(word in "[a-z]{1,30}") {
            let toks = tokenize(&word);
            prop_assert_eq!(toks.len(), 1);
            let chars: Vec<char> = toks[0].text.chars().collect();
            let mut run = 1;
            for w in chars.windows(2) {
                if w[0] == w[1] {
                    run += 1;
                    prop_assert!(run <= 2, "run of {} in {}", run, toks[0].text);
                } else {
                    run = 1;
                }
            }
        }

        /// Hashtags and mentions survive tokenization verbatim.
        #[test]
        fn markup_tokens_survive(tag in "[a-z][a-z0-9_]{0,10}") {
            let text = format!("#{tag} and @{tag} talk");
            let toks = tokenize(&text);
            let want = format!("#{tag}");
            prop_assert!(toks.iter().any(|t| t.kind == TokenKind::Hashtag && t.text == want));
            let want = format!("@{tag}");
            prop_assert!(toks.iter().any(|t| t.kind == TokenKind::Mention && t.text == want));
        }

        /// Tokens contain no whitespace, so n-gram joining is unambiguous.
        #[test]
        fn tokens_are_whitespace_free(text in "\\PC{0,120}") {
            for t in tokenize(&text) {
                prop_assert!(!t.text.chars().any(char::is_whitespace), "{:?}", t.text);
            }
        }
    }
}

#[cfg(test)]
mod reference_proptests {
    use super::*;
    use crate::emoticon::LEXICON;
    use crate::reference;
    use proptest::prelude::*;

    /// Pieces that open, nearly open or interrupt every token class: URL
    /// prefixes and near misses, markers, word characters, non-ASCII
    /// letters whose lower case changes length or form, punctuation and
    /// whitespace. Every lexicon emoticon, in lower and upper case, is
    /// added on top.
    const PIECES: &[&str] = &[
        "http://", "https://", "www.", "HTTP://", "Www.", "http:/", "https:", "www", "ww.", "#",
        "@", "'", "_", "0", "3", "42", "a", "x", "d", "o", "p", "s", "X", "D", "yeeees", "Σ", "İ",
        "é", "中", "ß", " ", "  ", "\t", "\n", ".", ",", ")", "(", ":", ";", "-", "=", "<", "/",
        "\\", "|", "!", "?",
    ];

    fn pieces() -> Vec<String> {
        let mut all: Vec<String> = PIECES.iter().map(|p| p.to_string()).collect();
        for (surface, _) in LEXICON {
            all.push(surface.to_string());
            all.push(surface.to_uppercase());
        }
        all
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The slice matchers tokenize exactly as the `String`-window
        /// references do, token for token.
        #[test]
        fn tokenize_matches_the_string_window_reference(
            picks in proptest::collection::vec(0usize..1_000, 0..24),
        ) {
            let pieces = pieces();
            let text: String = picks.iter().map(|&p| pieces[p % pieces.len()].as_str()).collect();
            let raw = TokenizerOptions { max_letter_run: 1, lowercase: false };
            for opts in [TokenizerOptions::default(), raw] {
                let tokenizer = Tokenizer::new(opts);
                let want =
                    tokenizer.tokenize_with(&text, reference::match_url, reference::match_emoticon);
                prop_assert_eq!(tokenizer.tokenize(&text), want, "{:?}", text);
            }
        }
    }
}
