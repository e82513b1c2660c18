//! Synthetic word-level language-modeling corpora.

use crate::vocab::{Vocab, NUM_SPECIAL};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A token stream for language modeling.
///
/// Tokens are drawn from a Zipfian unigram distribution blended with a
/// deterministic Markov transition (`next = a·cur + c mod V`), so the
/// stream has both a realistic frequency profile and enough structure that
/// an LSTM LM's perplexity genuinely falls during training.
///
/// # Example
///
/// ```
/// use echo_data::{LmCorpus, Vocab};
///
/// let corpus = LmCorpus::synthetic(Vocab::new(100), 10_000, 0.5, 42);
/// assert_eq!(corpus.tokens().len(), 10_000);
/// assert!(corpus.tokens().iter().all(|&t| t < 100));
/// ```
#[derive(Debug, Clone)]
pub struct LmCorpus {
    vocab: Vocab,
    tokens: Vec<usize>,
}

impl LmCorpus {
    /// Generates a corpus of `num_tokens` tokens.
    ///
    /// `structure` in `[0, 1]` is the probability that a token follows the
    /// deterministic Markov rule rather than the Zipf draw; higher values
    /// make the stream easier to model.
    pub fn synthetic(vocab: Vocab, num_tokens: usize, structure: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let zipf = ZipfSampler::new(vocab.num_words());
        let mut tokens = Vec::with_capacity(num_tokens);
        let mut cur = vocab.word(0);
        for _ in 0..num_tokens {
            let next = if rng.gen_bool(structure) {
                // Deterministic transition over word ranks.
                let rank = cur - NUM_SPECIAL;
                vocab.word((rank * 31 + 7) % vocab.num_words())
            } else {
                vocab.word(zipf.sample(&mut rng))
            };
            tokens.push(next);
            cur = next;
        }
        LmCorpus { vocab, tokens }
    }

    /// A PTB-sized corpus (10k vocabulary; token count scaled down from
    /// PTB's 929k by `scale` in `(0, 1]` so tests stay fast).
    pub fn ptb_like(scale: f64, seed: u64) -> Self {
        let n = ((929_000f64 * scale) as usize).max(1_000);
        LmCorpus::synthetic(Vocab::ptb(), n, 0.6, seed)
    }

    /// The corpus vocabulary.
    pub fn vocab(&self) -> Vocab {
        self.vocab
    }

    /// The token stream.
    pub fn tokens(&self) -> &[usize] {
        &self.tokens
    }
}

/// Zipf(1.0) sampler over ranks `0..n` via inverse-CDF on precomputed
/// cumulative weights.
#[derive(Debug, Clone)]
struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    fn new(n: usize) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 0..n {
            acc += 1.0 / (rank + 1) as f64;
            cdf.push(acc);
        }
        let total = *cdf.last().expect("n > 0");
        for v in &mut cdf {
            *v /= total;
        }
        ZipfSampler { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let a = LmCorpus::synthetic(Vocab::new(50), 1000, 0.5, 7);
        let b = LmCorpus::synthetic(Vocab::new(50), 1000, 0.5, 7);
        let c = LmCorpus::synthetic(Vocab::new(50), 1000, 0.5, 8);
        assert_eq!(a.tokens(), b.tokens());
        assert_ne!(a.tokens(), c.tokens());
    }

    #[test]
    fn zipf_head_is_heavy() {
        let corpus = LmCorpus::synthetic(Vocab::new(1000), 50_000, 0.0, 3);
        let head = corpus
            .tokens()
            .iter()
            .filter(|&&t| t < NUM_SPECIAL + 10)
            .count();
        // Top-10 of ~1000 Zipf words carry >30% of the mass.
        assert!(head as f64 / 50_000.0 > 0.3, "head mass {head}");
    }

    #[test]
    fn structured_stream_is_predictable() {
        let corpus = LmCorpus::synthetic(Vocab::new(200), 20_000, 1.0, 5);
        // With structure = 1.0 every transition follows the Markov rule.
        let v = corpus.vocab();
        for w in corpus.tokens().windows(2) {
            let rank = w[0] - NUM_SPECIAL;
            assert_eq!(w[1], v.word((rank * 31 + 7) % v.num_words()));
        }
    }

    #[test]
    fn presets_scale() {
        let c = LmCorpus::ptb_like(0.01, 1);
        assert!(c.tokens().len() >= 9_000);
        assert_eq!(c.vocab().size(), 10_000);
    }
}
