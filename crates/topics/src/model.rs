//! The common topic-model interface plus shared sampling utilities.

use rand::rngs::StdRng;
use rand::Rng;
use serde::value::{expect_field, expect_object};
use serde::{Deserialize, Serialize, Value};

use pmr_text::vocab::TermId;

/// Anything that can turn a (test or training) tweet into a dense topic
/// distribution. Training happens in each model's `train` constructor; this
/// trait only covers what the recommendation framework needs afterwards.
pub trait TopicModel: Send + Sync {
    /// Dimensionality of the inferred distributions.
    fn num_topics(&self) -> usize;

    /// Infer the topic distribution `θ_d` of a document given the trained
    /// model. Deterministic given the RNG state. Returns a distribution
    /// (non-negative, sums to 1); an empty or fully out-of-vocabulary
    /// document yields the uniform distribution.
    fn infer(&self, doc: &[TermId], rng: &mut StdRng) -> Vec<f32>;
}

/// A `[word][topic]` matrix: the Gibbs samplers' topic–word counts and φ.
///
/// Entry `(w, t)` lives at `data[w * topics + t]`, so what a Gibbs draw or
/// a fold-in step reads — one word's value under every topic — is one
/// contiguous row. [`WordTopic::topic`] walks one topic across the
/// vocabulary for the readers that want φ topic by topic.
#[derive(Debug, Clone, PartialEq)]
pub struct WordTopic<T> {
    words: usize,
    topics: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> WordTopic<T> {
    /// A matrix of `words` rows over `topics` topics, every entry
    /// `T::default()`.
    pub fn new(words: usize, topics: usize) -> Self {
        WordTopic { words, topics, data: vec![T::default(); words * topics] }
    }

    /// Vocabulary size: the number of rows.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Number of topics: the length of every row.
    pub fn topics(&self) -> usize {
        self.topics
    }

    /// Word `w`'s values under every topic. Panics if `w` is outside the
    /// vocabulary.
    pub fn row(&self, w: usize) -> &[T] {
        &self.data[w * self.topics..(w + 1) * self.topics]
    }

    /// Word `w`'s values under every topic, mutably.
    pub fn row_mut(&mut self, w: usize) -> &mut [T] {
        &mut self.data[w * self.topics..(w + 1) * self.topics]
    }

    /// Word `w`'s row, or `None` for a word outside the vocabulary.
    pub fn get(&self, w: usize) -> Option<&[T]> {
        (w < self.words).then(|| self.row(w))
    }

    /// Topic `t`'s value for every word, in word order. Panics if `t` is
    /// not a topic.
    pub fn topic(&self, t: usize) -> impl ExactSizeIterator<Item = T> + '_ {
        assert!(t < self.topics, "topic {t} out of range for {} topics", self.topics);
        self.data.iter().skip(t).step_by(self.topics).copied()
    }
}

impl<T: Serialize> Serialize for WordTopic<T> {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("words".to_owned(), self.words.serialize()),
            ("topics".to_owned(), self.topics.serialize()),
            ("data".to_owned(), self.data.serialize()),
        ])
    }
}

impl<T: Deserialize> Deserialize for WordTopic<T> {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        let obj = expect_object(v, "WordTopic")?;
        let words = usize::deserialize(expect_field(obj, "words", "WordTopic")?)?;
        let topics = usize::deserialize(expect_field(obj, "topics", "WordTopic")?)?;
        let data = Vec::<T>::deserialize(expect_field(obj, "data", "WordTopic")?)?;
        if words.checked_mul(topics) != Some(data.len()) {
            return Err(serde::Error::msg(format!(
                "WordTopic: {} entries for {words} words × {topics} topics",
                data.len()
            )));
        }
        Ok(WordTopic { words, topics, data })
    }
}

/// One fold-in Gibbs sweep over `doc` against a frozen φ: each token's
/// topic `z[i]` is redrawn with weights `(n_dk + α_t) · φ[w][t]`, where
/// `alpha(t)` is topic `t`'s prior mass. A word outside φ's vocabulary
/// weighs every topic 0, so its draw is uniform.
pub(crate) fn fold_in_sweep(
    phi: &WordTopic<f32>,
    alpha: impl Fn(usize) -> f64,
    doc: &[TermId],
    z: &mut [usize],
    n_dk: &mut [u32],
    weights: &mut [f64],
    rng: &mut StdRng,
) {
    for (&w, zi) in doc.iter().zip(z.iter_mut()) {
        n_dk[*zi] -= 1;
        match phi.get(w as usize) {
            Some(row) => {
                for (t, ((wt, &c), &p)) in weights.iter_mut().zip(&*n_dk).zip(row).enumerate() {
                    *wt = (c as f64 + alpha(t)) * p as f64;
                }
            }
            None => weights.fill(0.0),
        }
        *zi = sample_discrete(rng, weights);
        n_dk[*zi] += 1;
    }
}

/// Sample an index from unnormalized non-negative weights.
///
/// Falls back to the last index on floating-point underflow and to a
/// uniform draw when all weights are zero.
pub(crate) fn sample_discrete(rng: &mut StdRng, weights: &[f64]) -> usize {
    debug_assert!(!weights.is_empty());
    let total: f64 = weights.iter().sum();
    if total <= 0.0 || !total.is_finite() {
        return rng.gen_range(0..weights.len());
    }
    let mut x = rng.gen_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        if x < w {
            return i;
        }
        x -= w;
    }
    weights.len() - 1
}

/// The uniform distribution over `k` topics.
pub(crate) fn uniform(k: usize) -> Vec<f32> {
    vec![1.0 / k as f32; k.max(1)]
}

/// Normalize a non-negative vector into a distribution in place (uniform if
/// the sum is zero).
pub(crate) fn normalize(v: &mut [f32]) {
    let sum: f32 = v.iter().sum();
    if sum > 0.0 {
        for x in v.iter_mut() {
            *x /= sum;
        }
    } else if !v.is_empty() {
        let u = 1.0 / v.len() as f32;
        v.iter_mut().for_each(|x| *x = u);
    }
}

/// Occurrence counts of `words` as `(word, count)` pairs in ascending word
/// id: sort, then run-length encode. Samplers that sum one term per
/// distinct word iterate this instead of a `HashMap`, whose iteration
/// order (and with it the sum's rounding) changes with every new map.
pub(crate) fn word_counts(mut words: Vec<TermId>) -> Vec<(TermId, u32)> {
    words.sort_unstable();
    let mut counts: Vec<(TermId, u32)> = Vec::new();
    for w in words {
        match counts.last_mut() {
            Some((last, c)) if *last == w => *c += 1,
            _ => counts.push((w, 1)),
        }
    }
    counts
}

/// Natural log of the Gamma function (Lanczos approximation, g = 7).
/// Accurate to ~1e-13 for x > 0, which is far beyond what Gibbs likelihood
/// ratios need.
pub(crate) fn ln_gamma(x: f64) -> f64 {
    debug_assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    const COEFFS: [f64; 8] = [
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        return std::f64::consts::PI.ln()
            - (std::f64::consts::PI * x).sin().ln()
            - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = 0.999_999_999_999_809_9;
    for (i, &c) in COEFFS.iter().enumerate() {
        a += c / (x + i as f64 + 1.0);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Argmax helper shared by the model test suites.
#[cfg(test)]
pub(crate) fn argmax(v: &[f32]) -> usize {
    v.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .map(|(i, _)| i)
        .expect("non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn sample_discrete_respects_point_mass() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            assert_eq!(sample_discrete(&mut rng, &[0.0, 1.0, 0.0]), 1);
        }
    }

    #[test]
    fn sample_discrete_handles_all_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        let idx = sample_discrete(&mut rng, &[0.0, 0.0]);
        assert!(idx < 2);
    }

    #[test]
    fn sample_discrete_covers_support() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[sample_discrete(&mut rng, &[1.0, 1.0, 1.0])] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn normalize_makes_distributions() {
        let mut v = vec![1.0, 3.0];
        normalize(&mut v);
        assert!((v[0] - 0.25).abs() < 1e-6);
        let mut z = vec![0.0, 0.0];
        normalize(&mut z);
        assert_eq!(z, vec![0.5, 0.5]);
    }

    #[test]
    fn uniform_sums_to_one() {
        let u = uniform(7);
        assert!((u.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn word_topic_rows_are_word_major() {
        let mut m = WordTopic::<u32>::new(3, 2);
        m.row_mut(1)[0] = 5;
        m.row_mut(2)[1] = 7;
        assert_eq!(m.row(1), &[5, 0]);
        assert_eq!(m.get(2), Some(&[0, 7][..]));
        assert_eq!(m.get(3), None);
        assert_eq!(m.topic(0).collect::<Vec<_>>(), vec![0, 5, 0]);
        assert_eq!(m.topic(1).collect::<Vec<_>>(), vec![0, 0, 7]);
    }

    #[test]
    fn word_topic_serde_rejects_a_ragged_matrix() {
        let mut m = WordTopic::<f32>::new(2, 3);
        m.row_mut(1)[2] = 0.25;
        let json = serde_json::to_string(&m).expect("serializes");
        let back: WordTopic<f32> = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, m);
        let ragged = json.replace("\"words\":2", "\"words\":3");
        assert!(serde_json::from_str::<WordTopic<f32>>(&ragged).is_err());
    }

    #[test]
    fn ln_gamma_matches_known_values() {
        // Γ(1) = Γ(2) = 1; Γ(5) = 24; Γ(0.5) = √π.
        assert!(ln_gamma(1.0).abs() < 1e-10);
        assert!(ln_gamma(2.0).abs() < 1e-10);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn ln_gamma_satisfies_recurrence() {
        for x in [0.3, 1.7, 4.2, 11.0, 123.4] {
            let lhs = ln_gamma(x + 1.0);
            let rhs = ln_gamma(x) + x.ln();
            assert!((lhs - rhs).abs() < 1e-9, "x={x}: {lhs} vs {rhs}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::btm::{BtmConfig, BtmModel};
    use crate::corpus::TopicCorpus;
    use crate::lda::{LdaConfig, LdaModel};
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn arb_corpus() -> impl Strategy<Value = Vec<Vec<String>>> {
        proptest::collection::vec(proptest::collection::vec("[a-f]{1,3}", 0..10), 1..12)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// LDA inference yields a valid distribution on any corpus and any
        /// (possibly out-of-vocabulary) query document.
        #[test]
        fn lda_inference_is_a_distribution(docs in arb_corpus(), query in proptest::collection::vec("[a-h]{1,3}", 0..8)) {
            let corpus = TopicCorpus::from_token_docs(&docs);
            let model = LdaModel::train(&LdaConfig::paper(3, 10, 1), &corpus);
            let mut rng = StdRng::seed_from_u64(2);
            let theta = model.infer(&corpus.encode(&query), &mut rng);
            prop_assert_eq!(theta.len(), 3);
            prop_assert!((theta.iter().sum::<f32>() - 1.0).abs() < 1e-3);
            prop_assert!(theta.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }

        /// Same for BTM.
        #[test]
        fn btm_inference_is_a_distribution(docs in arb_corpus(), query in proptest::collection::vec("[a-h]{1,3}", 0..8)) {
            let corpus = TopicCorpus::from_token_docs(&docs);
            let model = BtmModel::train(&BtmConfig::paper(3, 10, 1), &corpus);
            let mut rng = StdRng::seed_from_u64(2);
            let theta = model.infer(&corpus.encode(&query), &mut rng);
            prop_assert_eq!(theta.len(), 3);
            prop_assert!((theta.iter().sum::<f32>() - 1.0).abs() < 1e-3);
        }
    }
}
