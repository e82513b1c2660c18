//! The synthetic parallel (translation) corpus standing in for IWSLT15
//! English–Vietnamese, and the micro-batch plan that cuts global batches
//! into the leaves the trainers fold.

use crate::batch::{LmBatch, NmtBatch};
use crate::vocab::{Vocab, NUM_SPECIAL};
use echo_tensor::{Shape, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Extracts lanes `[lo, hi)` of a `[T, B]` language-modeling batch as a
/// standalone batch (used to cut micro-batches).
///
/// # Panics
///
/// Panics if the lane range is out of bounds.
pub fn slice_lm_lanes(batch: &LmBatch, lanes: std::ops::Range<usize>) -> LmBatch {
    assert!(
        lanes.start <= lanes.end && lanes.end <= batch.batch,
        "lane range {lanes:?} out of bounds for batch {}",
        batch.batch
    );
    let nb = lanes.len();
    let t_len = batch.seq_len;
    let mut input = Tensor::zeros(Shape::d2(t_len, nb));
    let mut targets = Tensor::zeros(Shape::d1(t_len * nb));
    for t in 0..t_len {
        for (out_lane, src_lane) in lanes.clone().enumerate() {
            input.data_mut()[t * nb + out_lane] = batch.input.data()[t * batch.batch + src_lane];
            targets.data_mut()[t * nb + out_lane] =
                batch.targets.data()[t * batch.batch + src_lane];
        }
    }
    LmBatch {
        input,
        targets,
        batch: nb,
        seq_len: t_len,
    }
}

/// Extracts lanes `[lo, hi)` of an NMT batch as a standalone batch,
/// mirroring [`slice_lm_lanes`] across all three time-major tensors
/// (`[T_src, B]` source, `[T_tgt, B]` decoder input, flat `T_tgt·B`
/// targets).
///
/// # Panics
///
/// Panics if the lane range is out of bounds.
pub fn slice_nmt_lanes(batch: &NmtBatch, lanes: std::ops::Range<usize>) -> NmtBatch {
    assert!(
        lanes.start <= lanes.end && lanes.end <= batch.batch,
        "lane range {lanes:?} out of bounds for batch {}",
        batch.batch
    );
    let nb = lanes.len();
    let slice_2d = |t_len: usize, src: &Tensor| {
        let mut out = Tensor::zeros(Shape::d2(t_len, nb));
        for t in 0..t_len {
            for (out_lane, src_lane) in lanes.clone().enumerate() {
                out.data_mut()[t * nb + out_lane] = src.data()[t * batch.batch + src_lane];
            }
        }
        out
    };
    let mut target_output = Tensor::zeros(Shape::d1(batch.tgt_len * nb));
    for t in 0..batch.tgt_len {
        for (out_lane, src_lane) in lanes.clone().enumerate() {
            target_output.data_mut()[t * nb + out_lane] =
                batch.target_output.data()[t * batch.batch + src_lane];
        }
    }
    NmtBatch {
        source: slice_2d(batch.src_len, &batch.source),
        target_input: slice_2d(batch.tgt_len, &batch.target_input),
        target_output,
        batch: nb,
        src_len: batch.src_len,
        tgt_len: batch.tgt_len,
    }
}

/// The micro-batch schedule that makes data-parallel gradients bit-exact.
///
/// Float addition is not associative, so "sum the replica gradients" has
/// as many answers as there are ways to parenthesize the sum. This plan
/// removes the ambiguity by *defining* the gradient of a global batch as
/// a balanced binary tree fold over `micro` fixed micro-batches (`micro`
/// a power of two that divides the lane count). A serial trainer folds
/// the leaves left-to-right through the same tree; `replicas` workers
/// (any power of two dividing `micro`) each own a contiguous, aligned
/// subtree of leaves, and the cross-replica all-reduce walks the
/// remaining tree levels — reproducing the serial association exactly,
/// for every replica count, down to the last ULP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicrobatchPlan {
    micro: usize,
    lanes_per_micro: usize,
}

impl MicrobatchPlan {
    /// Plans `micro` micro-batches over a `lanes`-lane global batch.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint if `micro` is
    /// not a power of two or does not evenly divide `lanes`.
    pub fn new(lanes: usize, micro: usize) -> Result<MicrobatchPlan, String> {
        if micro == 0 || !micro.is_power_of_two() {
            return Err(format!("micro-batch count {micro} must be a power of two"));
        }
        if lanes == 0 || !lanes.is_multiple_of(micro) {
            return Err(format!(
                "micro-batch count {micro} must evenly divide the {lanes} batch lanes"
            ));
        }
        Ok(MicrobatchPlan {
            micro,
            lanes_per_micro: lanes / micro,
        })
    }

    /// Number of micro-batches (tree leaves).
    pub fn micro(&self) -> usize {
        self.micro
    }

    /// Lanes per micro-batch.
    pub fn lanes_per_micro(&self) -> usize {
        self.lanes_per_micro
    }

    /// Whether `replicas` workers can own aligned subtrees under this
    /// plan (power of two, at most `micro`).
    pub fn supports_replicas(&self, replicas: usize) -> bool {
        replicas > 0 && replicas.is_power_of_two() && self.micro.is_multiple_of(replicas)
    }

    /// Cuts the global batch into the plan's micro-batches.
    ///
    /// # Panics
    ///
    /// Panics if `batch` does not have the planned lane count.
    pub fn cut(&self, batch: &LmBatch) -> Vec<LmBatch> {
        assert_eq!(
            batch.batch,
            self.micro * self.lanes_per_micro,
            "batch does not match plan"
        );
        (0..self.micro)
            .map(|m| {
                slice_lm_lanes(
                    batch,
                    m * self.lanes_per_micro..(m + 1) * self.lanes_per_micro,
                )
            })
            .collect()
    }

    /// Cuts an NMT global batch into the plan's micro-batches, the
    /// [`cut`](Self::cut) analogue over [`NmtBatch`] lanes.
    ///
    /// # Panics
    ///
    /// Panics if `batch` does not have the planned lane count.
    pub fn cut_nmt(&self, batch: &NmtBatch) -> Vec<NmtBatch> {
        assert_eq!(
            batch.batch,
            self.micro * self.lanes_per_micro,
            "batch does not match plan"
        );
        (0..self.micro)
            .map(|m| {
                slice_nmt_lanes(
                    batch,
                    m * self.lanes_per_micro..(m + 1) * self.lanes_per_micro,
                )
            })
            .collect()
    }

    /// The contiguous leaf span owned by `replica` of `replicas`.
    ///
    /// # Panics
    ///
    /// Panics if the replica count is unsupported (see
    /// [`supports_replicas`](Self::supports_replicas)).
    pub fn replica_leaves(&self, replica: usize, replicas: usize) -> std::ops::Range<usize> {
        assert!(
            self.supports_replicas(replicas),
            "{replicas} replicas cannot own aligned subtrees of {} leaves",
            self.micro
        );
        assert!(replica < replicas, "replica {replica} of {replicas}");
        let per = self.micro / replicas;
        replica * per..(replica + 1) * per
    }
}

/// One sentence pair (token ids, without BOS/EOS framing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SentencePair {
    /// Source tokens.
    pub source: Vec<usize>,
    /// Target tokens.
    pub target: Vec<usize>,
}

/// A synthetic parallel corpus.
///
/// The "translation" of a source sentence is a deterministic per-token
/// mapping (an affine permutation of word ranks into the target
/// vocabulary) combined with *local pair reordering* (adjacent tokens swap
/// with a sentence-position-dependent rule). The task therefore requires
/// attention to align positions — the same structural property that makes
/// the attention scoring function the memory bottleneck on IWSLT — while
/// remaining learnable, so training curves (perplexity down, BLEU up)
/// behave like the paper's Figure 12.
#[derive(Debug, Clone)]
pub struct ParallelCorpus {
    src_vocab: Vocab,
    tgt_vocab: Vocab,
    pairs: Vec<SentencePair>,
}

impl ParallelCorpus {
    /// Generates `num_pairs` sentence pairs with source lengths drawn
    /// uniformly from `len_range`.
    ///
    /// # Panics
    ///
    /// Panics if `len_range` is empty or starts below 2.
    pub fn synthetic(
        src_vocab: Vocab,
        tgt_vocab: Vocab,
        num_pairs: usize,
        len_range: std::ops::RangeInclusive<usize>,
        seed: u64,
    ) -> Self {
        assert!(
            *len_range.start() >= 2 && len_range.start() <= len_range.end(),
            "bad length range"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pairs = Vec::with_capacity(num_pairs);
        for _ in 0..num_pairs {
            let len = rng.gen_range(len_range.clone());
            let source: Vec<usize> = (0..len)
                .map(|_| src_vocab.word(zipf_rank(&mut rng, src_vocab.num_words())))
                .collect();
            let target = translate(&source, src_vocab, tgt_vocab);
            pairs.push(SentencePair { source, target });
        }
        ParallelCorpus {
            src_vocab,
            tgt_vocab,
            pairs,
        }
    }

    /// An IWSLT15-En–Vi-like corpus scaled by `scale` (IWSLT has ~133k
    /// pairs) with sentence lengths 4–16 and small vocabularies scaled for
    /// tractable CPU training.
    pub fn iwslt_like(scale: f64, seed: u64) -> Self {
        let pairs = ((133_000f64 * scale) as usize).max(200);
        ParallelCorpus::synthetic(Vocab::new(400), Vocab::new(300), pairs, 4..=16, seed)
    }

    /// Source vocabulary.
    pub fn src_vocab(&self) -> Vocab {
        self.src_vocab
    }

    /// Target vocabulary.
    pub fn tgt_vocab(&self) -> Vocab {
        self.tgt_vocab
    }

    /// The sentence pairs.
    pub fn pairs(&self) -> &[SentencePair] {
        &self.pairs
    }

    /// Splits off the last `n` pairs as a held-out validation set.
    pub fn split_validation(&self, n: usize) -> (&[SentencePair], &[SentencePair]) {
        let cut = self.pairs.len().saturating_sub(n);
        (&self.pairs[..cut], &self.pairs[cut..])
    }

    /// The reference translation of an arbitrary source sentence under the
    /// corpus's generative rule (used to score BLEU against model output).
    pub fn reference(&self, source: &[usize]) -> Vec<usize> {
        translate(source, self.src_vocab, self.tgt_vocab)
    }
}

/// The deterministic translation rule: affine rank mapping + adjacent-pair
/// swap.
fn translate(source: &[usize], src: Vocab, tgt: Vocab) -> Vec<usize> {
    let mut out: Vec<usize> = source
        .iter()
        .map(|&s| {
            let rank = s - NUM_SPECIAL;
            tgt.word((rank * 17 + 5) % tgt.num_words())
        })
        .collect();
    // Swap adjacent pairs (0,1), (2,3), ... — the local reordering that
    // makes attention necessary.
    let _ = src;
    for i in (0..out.len().saturating_sub(1)).step_by(2) {
        out.swap(i, i + 1);
    }
    out
}

fn zipf_rank(rng: &mut StdRng, n: usize) -> usize {
    // Cheap approximate Zipf: u^3 concentrates mass on small ranks.
    let u: f64 = rng.gen();
    ((u * u * u) * n as f64) as usize % n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> ParallelCorpus {
        ParallelCorpus::synthetic(Vocab::new(50), Vocab::new(40), 100, 4..=8, 11)
    }

    #[test]
    fn pairs_have_matching_lengths() {
        for p in corpus().pairs() {
            assert_eq!(p.source.len(), p.target.len());
            assert!((4..=8).contains(&p.source.len()));
        }
    }

    #[test]
    fn translation_is_deterministic_and_reordered() {
        let c = corpus();
        let src = vec![
            c.src_vocab().word(0),
            c.src_vocab().word(1),
            c.src_vocab().word(2),
        ];
        let t1 = c.reference(&src);
        let t2 = c.reference(&src);
        assert_eq!(t1, t2);
        // First two output tokens are the swapped translations.
        let w = |rank: usize| {
            c.tgt_vocab()
                .word((rank * 17 + 5) % c.tgt_vocab().num_words())
        };
        assert_eq!(t1, vec![w(1), w(0), w(2)]);
    }

    #[test]
    fn corpus_targets_follow_the_rule() {
        let c = corpus();
        for p in c.pairs() {
            assert_eq!(p.target, c.reference(&p.source));
        }
    }

    #[test]
    fn validation_split() {
        let c = corpus();
        let (train, valid) = c.split_validation(10);
        assert_eq!(train.len(), 90);
        assert_eq!(valid.len(), 10);
    }

    #[test]
    fn seeded_reproducibility() {
        let a = ParallelCorpus::synthetic(Vocab::new(50), Vocab::new(40), 50, 4..=8, 1);
        let b = ParallelCorpus::synthetic(Vocab::new(50), Vocab::new(40), 50, 4..=8, 1);
        assert_eq!(a.pairs(), b.pairs());
    }

    fn numbered_batch(seq_len: usize, lanes: usize) -> LmBatch {
        // input[t][b] = 100t + b so any mis-slice is visible.
        let mut input = Tensor::zeros(Shape::d2(seq_len, lanes));
        let mut targets = Tensor::zeros(Shape::d1(seq_len * lanes));
        for t in 0..seq_len {
            for b in 0..lanes {
                input.data_mut()[t * lanes + b] = (100 * t + b) as f32;
                targets.data_mut()[t * lanes + b] = (100 * t + b + 1) as f32;
            }
        }
        LmBatch {
            input,
            targets,
            batch: lanes,
            seq_len,
        }
    }

    #[test]
    fn lane_slices_reassemble_the_batch() {
        let batch = numbered_batch(3, 10);
        let ranges = [0..3, 3..6, 6..8, 8..10];
        for range in ranges {
            let slice = slice_lm_lanes(&batch, range.clone());
            assert_eq!(slice.batch, range.len());
            for t in 0..batch.seq_len {
                for (i, b) in range.clone().enumerate() {
                    assert_eq!(
                        slice.input.data()[t * slice.batch + i],
                        batch.input.data()[t * batch.batch + b]
                    );
                    assert_eq!(
                        slice.targets.data()[t * slice.batch + i],
                        batch.targets.data()[t * batch.batch + b]
                    );
                }
            }
        }
    }

    #[test]
    fn microbatch_plan_validates_inputs() {
        assert!(MicrobatchPlan::new(8, 3).is_err()); // not a power of two
        assert!(MicrobatchPlan::new(6, 4).is_err()); // does not divide
        assert!(MicrobatchPlan::new(0, 1).is_err());
        let plan = MicrobatchPlan::new(8, 4).unwrap();
        assert_eq!(plan.lanes_per_micro(), 2);
        assert!(plan.supports_replicas(1));
        assert!(plan.supports_replicas(2));
        assert!(plan.supports_replicas(4));
        assert!(!plan.supports_replicas(3));
        assert!(!plan.supports_replicas(8));
    }

    #[test]
    fn replica_leaves_tile_the_tree() {
        let plan = MicrobatchPlan::new(16, 8).unwrap();
        for replicas in [1, 2, 4, 8] {
            let mut leaves = Vec::new();
            for r in 0..replicas {
                leaves.extend(plan.replica_leaves(r, replicas));
            }
            assert_eq!(leaves, (0..8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn microbatch_cut_is_a_lane_partition() {
        let batch = numbered_batch(4, 8);
        let plan = MicrobatchPlan::new(8, 4).unwrap();
        let micros = plan.cut(&batch);
        assert_eq!(micros.len(), 4);
        for m in &micros {
            assert_eq!(m.batch, 2);
            assert_eq!(m.seq_len, 4);
        }
        // Lane 5 lives in micro-batch 2, local lane 1.
        assert_eq!(micros[2].input.data()[1], batch.input.data()[5]);
    }
}
