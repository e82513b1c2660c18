//! Input generation (rule 7): everything a workload feeds the program is
//! drawn here from `--seed` with the harness's own generator, so the
//! inputs do not change when the program's code (or its vendored `rand`)
//! does. The program only ever sees the token vectors, sentence pairs and
//! requests these functions return.

use echo_data::SentencePair;
use std::time::Duration;

/// Ids `0..NUM_SPECIAL` are PAD/BOS/EOS/UNK in `echo-data`'s vocabulary
/// convention; generated words stay above them so that no target is the
/// ignored PAD class.
const NUM_SPECIAL: usize = 4;

/// SplitMix64: tiny, seedable, and good enough to draw benchmark inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named input stream of a run: `stream` keeps
    /// the corpus, the prompts and the parameter seeds independent.
    pub fn new(seed: u64, stream: &str) -> Rng {
        let tag = stream.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        let mut rng = Rng(seed ^ tag);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }
}

/// The seed handed to the program's own parameter initialisers.
pub fn param_seed(seed: u64) -> u64 {
    Rng::new(seed, "params").next_u64()
}

/// Zipf(1) rank in `0..n` by inverse transform on the continuous
/// approximation (`H(r) ≈ ln r`): frequent words dominate, as in text.
fn zipf_rank(rng: &mut Rng, n: usize) -> usize {
    (((n as f64 + 1.0).powf(rng.unit()) - 1.0) as usize).min(n - 1)
}

/// A language-modelling token stream over a `vocab`-word vocabulary: a
/// Zipf draw blended with a deterministic successor rule, so a model's
/// loss genuinely falls within a window (the LM output checks rely on
/// that).
pub fn lm_tokens(seed: u64, vocab: usize, len: usize) -> Vec<usize> {
    let words = vocab - NUM_SPECIAL;
    let mut rng = Rng::new(seed, "lm-corpus");
    let mut cur = 0usize;
    (0..len)
        .map(|_| {
            cur = if rng.unit() < 0.9 {
                (cur * 31 + 7) % words
            } else {
                zipf_rank(&mut rng, words)
            };
            NUM_SPECIAL + cur
        })
        .collect()
}

/// A parallel corpus whose target side is a per-word mapping of the
/// source with adjacent words swapped: learnable, and it needs attention
/// to align positions. Source lengths are uniform in `min_len..=max_len`.
pub fn nmt_pairs(
    seed: u64,
    src_vocab: usize,
    tgt_vocab: usize,
    pairs: usize,
    min_len: usize,
    max_len: usize,
) -> Vec<SentencePair> {
    let (src_words, tgt_words) = (src_vocab - NUM_SPECIAL, tgt_vocab - NUM_SPECIAL);
    let mut rng = Rng::new(seed, "nmt-corpus");
    (0..pairs)
        .map(|_| {
            let len = min_len + rng.below(max_len - min_len + 1);
            let ranks: Vec<usize> = (0..len).map(|_| zipf_rank(&mut rng, src_words)).collect();
            let mut target: Vec<usize> = ranks
                .iter()
                .map(|r| NUM_SPECIAL + (r * 17 + 5) % tgt_words)
                .collect();
            for pair in target.chunks_exact_mut(2) {
                pair.swap(0, 1);
            }
            SentencePair {
                source: ranks.iter().map(|r| NUM_SPECIAL + r).collect(),
                target,
            }
        })
        .collect()
}

/// One generation request of a serving workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// A fresh session per request, so its stream can be replayed alone.
    pub session: u64,
    pub prompt: Vec<u32>,
    pub max_new_tokens: usize,
    /// Open loop: when the request is due, from the window's start.
    /// Closed loop: zero (a client sends as soon as its last one ends).
    pub due: Duration,
}

/// `count` requests with `prompt_len` uniformly drawn prompt tokens each.
/// `rate` is the open-loop arrival rate in requests per second (constant
/// inter-arrival, so offered load is the same on every seed), or `None`
/// for a closed loop.
pub fn requests(
    seed: u64,
    vocab: usize,
    count: usize,
    prompt_len: usize,
    max_new_tokens: usize,
    rate: Option<f64>,
) -> Vec<Request> {
    let mut rng = Rng::new(seed, "prompts");
    (0..count)
        .map(|i| Request {
            session: i as u64,
            prompt: (0..prompt_len).map(|_| rng.below(vocab) as u32).collect(),
            max_new_tokens,
            due: rate.map_or(Duration::ZERO, |r| Duration::from_secs_f64(i as f64 / r)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(lm_tokens(14, 1000, 5000), lm_tokens(14, 1000, 5000));
        assert_eq!(
            nmt_pairs(14, 400, 390, 64, 8, 24),
            nmt_pairs(14, 400, 390, 64, 8, 24)
        );
        assert_eq!(
            requests(14, 10_000, 100, 4, 24, Some(30.0)),
            requests(14, 10_000, 100, 4, 24, Some(30.0))
        );
        assert_eq!(param_seed(14), param_seed(14));
    }

    #[test]
    fn another_seed_other_inputs() {
        assert_ne!(lm_tokens(14, 1000, 5000), lm_tokens(15, 1000, 5000));
        assert_ne!(
            nmt_pairs(14, 400, 390, 64, 8, 24),
            nmt_pairs(15, 400, 390, 64, 8, 24)
        );
        let (a, b) = (
            requests(14, 50, 100, 2, 24, None),
            requests(15, 50, 100, 2, 24, None),
        );
        assert_ne!(a, b);
        assert_ne!(param_seed(14), param_seed(15));
    }

    #[test]
    fn arrival_schedule_is_constant_rate_on_every_seed() {
        let a = requests(14, 10_000, 90, 4, 24, Some(30.0));
        let b = requests(99, 10_000, 90, 4, 24, Some(30.0));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.due, y.due);
        }
        assert_eq!(a[0].due, Duration::ZERO);
        assert_eq!(a[30].due, Duration::from_secs(1));
        assert!(requests(14, 50, 8, 2, 24, None)
            .iter()
            .all(|r| r.due.is_zero()));
    }

    #[test]
    fn generated_ids_are_in_vocabulary_and_avoid_specials() {
        assert!(lm_tokens(3, 60, 4000)
            .iter()
            .all(|&t| (NUM_SPECIAL..60).contains(&t)));
        for p in nmt_pairs(3, 400, 390, 200, 8, 24) {
            assert!((8..=24).contains(&p.source.len()));
            assert_eq!(p.source.len(), p.target.len());
            assert!(p.source.iter().all(|&t| (NUM_SPECIAL..400).contains(&t)));
            assert!(p.target.iter().all(|&t| (NUM_SPECIAL..390).contains(&t)));
        }
        for r in requests(3, 50, 200, 2, 24, None) {
            assert_eq!(r.prompt.len(), 2);
            assert!(r.prompt.iter().all(|&t| t < 50));
        }
    }

    #[test]
    fn streams_of_one_seed_are_independent() {
        let (mut a, mut b) = (Rng::new(14, "lm-corpus"), Rng::new(14, "prompts"));
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
