//! Synthetic datasets for the Echo reproduction.
//!
//! The paper trains on PTB / Wikitext-2 (word-level language modeling) and
//! IWSLT15 English–Vietnamese (NMT). Those corpora are not available
//! offline, and nothing in the paper's evaluation depends on their
//! linguistic content — throughput and memory depend only on shapes, and
//! the training-curve experiments only need a *learnable* task. This crate
//! therefore provides:
//!
//! * [`LmCorpus`] — a Zipfian token stream with Markov-chain structure
//!   (so perplexity genuinely falls during training), with presets whose
//!   vocabulary size and token count mirror PTB and Wikitext-2;
//! * [`ParallelCorpus`] — a synthetic translation task (deterministic
//!   token mapping plus local reordering, with noise) whose BLEU score
//!   rises as a seq2seq+attention model learns it, standing in for
//!   IWSLT15 En–Vi;
//! * batching utilities matching the models' `[T, B]` time-major inputs,
//!   and [`MicrobatchPlan`], which cuts a global batch into the leaves of
//!   the trainers' canonical gradient fold.

#![warn(missing_docs)]

pub mod batch;
pub mod lm;
pub mod parallel;
pub mod vocab;

pub use batch::{BpttBatches, LmBatch, NmtBatch};
pub use lm::LmCorpus;
pub use parallel::{slice_lm_lanes, slice_nmt_lanes, MicrobatchPlan, ParallelCorpus, SentencePair};
pub use vocab::{Vocab, BOS, EOS, PAD, UNK};
