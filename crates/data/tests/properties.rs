//! Property tests for the synthetic-data crate.

use echo_check::{check, default_cases, Gen};
use echo_data::{
    BpttBatches, LmCorpus, MicrobatchPlan, NmtBatch, ParallelCorpus, Vocab, BOS, EOS, PAD,
};

/// BPTT batching is a faithful re-tiling: every (input, target) pair
/// is a (token, next-token) pair from the stream.
#[test]
fn bptt_pairs_are_stream_adjacent() {
    let path = concat!(module_path!(), "::bptt_pairs_are_stream_adjacent");
    let gen = |g: &mut Gen| {
        let (len, batch) = (g.range(100usize..400), g.range(1usize..5));
        (len, batch, g.range(2usize..10), g.range(0u64..500))
    };
    check(path, default_cases(), gen, |(len, batch, seq, seed)| {
        if len / batch <= seq + 1 {
            return false;
        }
        let corpus = LmCorpus::synthetic(Vocab::new(50), len, 0.5, seed);
        let lane_len = corpus.tokens().len() / batch;
        for b in BpttBatches::new(corpus.tokens(), batch, seq) {
            for t in 0..seq {
                for lane in 0..batch {
                    let x = b.input.get(&[t, lane]).unwrap() as usize;
                    let y = b.targets.data()[t * batch + lane] as usize;
                    // Find the position in the lane and check adjacency.
                    let _ = lane_len;
                    let stream = corpus.tokens();
                    // x must be followed by y somewhere (weak check), and
                    // specifically adjacent within the lane (strong check
                    // via reconstruction below).
                    assert!(stream.contains(&x));
                    assert!(stream.contains(&y));
                }
            }
        }
        // Strong check: concatenating all windows of lane 0 reproduces the
        // lane prefix.
        let mut lane0 = Vec::new();
        for b in BpttBatches::new(corpus.tokens(), batch, seq) {
            for t in 0..seq {
                lane0.push(b.input.get(&[t, 0]).unwrap() as usize);
            }
        }
        assert_eq!(&lane0[..], &corpus.tokens()[..lane0.len()]);
        true
    });
}

/// NMT batches are well-formed: BOS-framed inputs, EOS-terminated
/// outputs, PAD elsewhere, and `target_output` is `target_input`
/// shifted by one.
#[test]
fn nmt_batches_are_well_framed() {
    let path = concat!(module_path!(), "::nmt_batches_are_well_framed");
    let gen = |g: &mut Gen| (g.range(4usize..20), g.range(2usize..5), g.range(0u64..500));
    check(path, default_cases(), gen, |(pairs, batch, seed)| {
        let corpus = ParallelCorpus::synthetic(Vocab::new(40), Vocab::new(30), pairs, 3..=7, seed);
        for b in NmtBatch::bucketed(corpus.pairs(), batch) {
            for lane in 0..b.batch {
                assert_eq!(b.target_input.get(&[0, lane]).unwrap(), BOS as f32);
                let mut saw_eos = false;
                for t in 0..b.tgt_len {
                    let out = b.target_output.data()[t * b.batch + lane] as usize;
                    let next_in = if t + 1 < b.tgt_len {
                        Some(b.target_input.get(&[t + 1, lane]).unwrap() as usize)
                    } else {
                        None
                    };
                    if saw_eos {
                        assert_eq!(out, PAD);
                    }
                    if out == EOS {
                        saw_eos = true;
                    } else if out != PAD {
                        // Shift-by-one relation.
                        assert_eq!(Some(out), next_in);
                    }
                }
                assert!(saw_eos, "every lane must terminate with EOS");
            }
        }
        true
    });
}

/// The reference translation is a bijection-ish mapping: same source →
/// same target, and equal-length outputs.
#[test]
fn reference_translation_is_deterministic() {
    let path = concat!(module_path!(), "::reference_translation_is_deterministic");
    let gen = |g: &mut Gen| (g.range(2usize..12), g.range(0u64..500));
    check(path, default_cases(), gen, |(len, seed)| {
        let corpus = ParallelCorpus::synthetic(Vocab::new(40), Vocab::new(30), 4, 3..=6, seed);
        let v = corpus.src_vocab();
        let src: Vec<usize> = (0..len)
            .map(|i| v.word((i * 7 + seed as usize) % v.num_words()))
            .collect();
        let a = corpus.reference(&src);
        let b = corpus.reference(&src);
        assert_eq!(&a, &b);
        assert_eq!(a.len(), src.len());
        assert!(a.iter().all(|&t| corpus.tgt_vocab().is_word(t)));
        true
    });
}

/// Cutting an LM batch into micro-batches moves every (t, lane) cell
/// into exactly one micro-batch, unchanged and in lane order.
#[test]
fn lm_batch_sharding_loses_no_cell() {
    let path = concat!(module_path!(), "::lm_batch_sharding_loses_no_cell");
    let gen = |g: &mut Gen| {
        let (micro_pow, lanes_per) = (g.range(0u32..4), g.range(1usize..4));
        (micro_pow, lanes_per, g.range(1usize..6), g.range(0u64..100))
    };
    check(path, default_cases(), gen, |case| {
        let (micro_pow, lanes_per, seq, seed) = case;
        let micro = 1usize << micro_pow;
        let lanes = micro * lanes_per;
        let corpus = LmCorpus::synthetic(Vocab::new(30), lanes * (seq + 2), 0.5, seed);
        let Some(batch) = BpttBatches::new(corpus.tokens(), lanes, seq).next() else {
            // Stream too short for a full window — nothing to cut.
            return true;
        };
        let micros = MicrobatchPlan::new(lanes, micro).unwrap().cut(&batch);
        assert_eq!(micros.len(), micro);
        assert_eq!(micros.iter().map(|s| s.batch).sum::<usize>(), lanes);
        let mut lane = 0usize;
        for m in &micros {
            assert_eq!(m.seq_len, seq);
            for b in 0..m.batch {
                for t in 0..seq {
                    assert_eq!(
                        m.input.data()[t * m.batch + b],
                        batch.input.data()[t * batch.batch + lane + b]
                    );
                    assert_eq!(
                        m.targets.data()[t * m.batch + b],
                        batch.targets.data()[t * batch.batch + lane + b]
                    );
                }
            }
            lane += m.batch;
        }
        true
    });
}

/// Zipf structure: rank-0 words are at least as frequent as deep-tail
/// words in aggregate.
#[test]
fn zipf_head_beats_tail() {
    let path = concat!(module_path!(), "::zipf_head_beats_tail");
    let gen = |g: &mut Gen| g.range(0u64..200);
    check(path, default_cases(), gen, |seed| {
        let corpus = LmCorpus::synthetic(Vocab::new(500), 20_000, 0.0, seed);
        let head = corpus.tokens().iter().filter(|&&t| t < 4 + 25).count();
        let tail = corpus.tokens().iter().filter(|&&t| t >= 4 + 400).count();
        assert!(head > tail, "head {head} tail {tail}");
        true
    });
}
/// NMT lane slicing loses no cell across any of the three tensors.
#[test]
fn nmt_lane_slices_are_faithful() {
    let path = concat!(module_path!(), "::nmt_lane_slices_are_faithful");
    let gen = |g: &mut Gen| (g.range(4usize..16), g.range(2usize..5), g.range(0u64..100));
    check(path, default_cases(), gen, |(pairs, batch, seed)| {
        let corpus = ParallelCorpus::synthetic(Vocab::new(40), Vocab::new(30), pairs, 3..=7, seed);
        for b in NmtBatch::bucketed(corpus.pairs(), batch) {
            let lanes = b.batch;
            for lo in 0..lanes {
                for hi in lo..=lanes {
                    let s = echo_data::slice_nmt_lanes(&b, lo..hi);
                    assert_eq!(s.batch, hi - lo);
                    assert_eq!((s.src_len, s.tgt_len), (b.src_len, b.tgt_len));
                    for (i, lane) in (lo..hi).enumerate() {
                        for t in 0..b.src_len {
                            assert_eq!(
                                s.source.data()[t * s.batch + i],
                                b.source.data()[t * b.batch + lane]
                            );
                        }
                        for t in 0..b.tgt_len {
                            assert_eq!(
                                s.target_input.data()[t * s.batch + i],
                                b.target_input.data()[t * b.batch + lane]
                            );
                            assert_eq!(
                                s.target_output.data()[t * s.batch + i],
                                b.target_output.data()[t * b.batch + lane]
                            );
                        }
                    }
                }
            }
        }
        true
    });
}
