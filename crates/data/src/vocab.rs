//! Vocabulary handling for the synthetic corpora.

use serde::{Deserialize, Serialize};

/// Padding token id.
pub const PAD: usize = 0;
/// Beginning-of-sentence token id.
pub const BOS: usize = 1;
/// End-of-sentence token id.
pub const EOS: usize = 2;
/// Unknown-word token id.
pub const UNK: usize = 3;

/// Number of reserved special tokens.
pub const NUM_SPECIAL: usize = 4;

/// A synthetic vocabulary: ids `0..NUM_SPECIAL` are special tokens, the
/// rest are "words" ranked by frequency (id `NUM_SPECIAL` is the most
/// frequent word, matching the Zipfian generators).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Vocab {
    size: usize,
}

impl Vocab {
    /// Creates a vocabulary with `size` total ids (including specials).
    ///
    /// # Panics
    ///
    /// Panics if `size <= NUM_SPECIAL`.
    pub fn new(size: usize) -> Self {
        assert!(size > NUM_SPECIAL, "vocabulary too small: {size}");
        Vocab { size }
    }

    /// PTB's vocabulary size (10 000 words).
    pub fn ptb() -> Self {
        Vocab::new(10_000)
    }

    /// Total number of ids.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of non-special word ids.
    pub fn num_words(&self) -> usize {
        self.size - NUM_SPECIAL
    }

    /// Maps a frequency rank (0 = most frequent) to a token id.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= self.num_words()`.
    pub fn word(&self, rank: usize) -> usize {
        assert!(rank < self.num_words());
        NUM_SPECIAL + rank
    }

    /// Whether an id is a real word (not a special token).
    pub fn is_word(&self, id: usize) -> bool {
        (NUM_SPECIAL..self.size).contains(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specials_are_reserved() {
        let v = Vocab::new(100);
        assert_eq!(v.word(0), NUM_SPECIAL);
        assert!(!v.is_word(PAD));
        assert!(!v.is_word(EOS));
        assert!(v.is_word(NUM_SPECIAL));
        assert_eq!(v.num_words(), 96);
    }

    #[test]
    fn presets_have_paper_sizes() {
        assert_eq!(Vocab::ptb().size(), 10_000);
    }

    #[test]
    #[should_panic(expected = "vocabulary too small")]
    fn tiny_vocab_rejected() {
        Vocab::new(3);
    }
}
