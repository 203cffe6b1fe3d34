//! The one word codec: every payload on the BSP wire, the service protocol,
//! the checkpoint files and the fragment spill file is a sequence of
//! little-endian `u64` words ("Longs", the paper's unit), and this module is
//! the only place that converts between words and bytes.
//!
//! * [`WordWriter`] appends words to a byte buffer that goes onto the wire as
//!   it is — there is no intermediate `Vec<u64>`.
//! * [`WordReader`] is a bounded cursor over received bytes. Every read is
//!   checked: truncated, misaligned or garbage input becomes a typed
//!   [`WireError`], never a panic and never an over-allocation
//!   ([`WordReader::cap`] clamps wire-declared counts before
//!   `Vec::with_capacity`).
//! * [`WordFold`] is the word-folded FNV-1a shared by the frame checksum
//!   ([`crate::transport`]) and the checkpoint container
//!   ([`crate::checkpoint`]) — the same fold the `.ecsr` format uses. It is
//!   resumable across byte slices, so a checksum can be chained over a list
//!   of buffers without concatenating them.

use std::fmt;

/// Typed failures of [`WordReader`] and of the message decoders built on it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The payload length is not a multiple of 8 bytes.
    Unaligned {
        /// The payload length in bytes.
        bytes: usize,
    },
    /// The payload ended before a declared field or record did.
    Truncated {
        /// Word offset at which the read started.
        at: usize,
        /// Words the read needed.
        need: usize,
    },
    /// The words decoded, but their content is not a valid message (unknown
    /// enum tag, inconsistent record length, bad UTF-8, …).
    Invalid(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Unaligned { bytes } => {
                write!(f, "payload length {bytes} is not word-aligned")
            }
            WireError::Truncated { at, need } => {
                write!(f, "payload truncated: need {need} word(s) at word {at}")
            }
            WireError::Invalid(what) => write!(f, "invalid payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for String {
    fn from(e: WireError) -> String {
        e.to_string()
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// Word-folded FNV-1a: each little-endian `u64` of the input is one
/// xor-multiply step (the byte-serial variant needs eight). Input may arrive
/// in slices of any length; bytes that do not fill a word are carried to the
/// next call, and [`finish`](Self::finish) folds a trailing partial word
/// zero-padded. The digest therefore depends only on the byte sequence, not
/// on how it was split.
#[derive(Clone, Copy, Debug)]
pub struct WordFold {
    h: u64,
    /// Up to 7 pending bytes, little-endian in the low bits.
    carry: u64,
    pending: u32,
}

impl Default for WordFold {
    fn default() -> Self {
        WordFold { h: FNV_OFFSET, carry: 0, pending: 0 }
    }
}

impl WordFold {
    /// A fold at the FNV offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one word.
    pub fn word(&mut self, w: u64) {
        if self.pending == 0 {
            self.h = (self.h ^ w).wrapping_mul(FNV_PRIME);
        } else {
            self.bytes(&w.to_le_bytes());
        }
    }

    /// Folds a byte slice.
    pub fn bytes(&mut self, bytes: &[u8]) {
        let mut rest = bytes;
        while self.pending > 0 {
            let Some((&b, tail)) = rest.split_first() else { return };
            self.push_carry(b);
            rest = tail;
        }
        let (words, tail) = rest.as_chunks::<8>();
        let mut h = self.h;
        for w in words {
            h = (h ^ u64::from_le_bytes(*w)).wrapping_mul(FNV_PRIME);
        }
        self.h = h;
        for &b in tail {
            self.push_carry(b);
        }
    }

    fn push_carry(&mut self, b: u8) {
        self.carry |= u64::from(b) << (8 * self.pending);
        self.pending += 1;
        if self.pending == 8 {
            let w = std::mem::take(&mut self.carry);
            self.pending = 0;
            self.word(w);
        }
    }

    /// The digest; a trailing partial word counts zero-padded.
    pub fn finish(mut self) -> u64 {
        if self.pending > 0 {
            self.pending = 0;
            self.word(self.carry);
        }
        self.h
    }
}

/// Words needed to carry `bytes` bytes (rounded up).
pub fn words_for(bytes: usize) -> usize {
    bytes.div_ceil(8)
}

/// The `N` words at word offset `at` of `bytes`, read in place; zeros when
/// they are not all there. For a reader that walks a payload [`WordReader`]
/// already validated and must not panic on it all the same.
pub fn words_at<const N: usize>(bytes: &[u8], at: usize) -> [u64; N] {
    let end = at.saturating_add(N).saturating_mul(8);
    let (words, _) = bytes.get(end - 8 * N..end).unwrap_or_default().as_chunks::<8>();
    let mut out = [0u64; N];
    for (o, w) in out.iter_mut().zip(words) {
        *o = u64::from_le_bytes(*w);
    }
    out
}

/// Appends `words` to `buf` as the little-endian bytes they travel as.
pub fn extend_words(buf: &mut Vec<u8>, words: &[u64]) {
    buf.reserve(8 * words.len());
    for w in words {
        buf.extend_from_slice(&w.to_le_bytes());
    }
}

/// An append-only word payload, kept as the bytes that go on the wire.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WordWriter {
    buf: Vec<u8>,
}

impl WordWriter {
    /// An empty payload.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty payload with room for `words` words.
    pub fn with_capacity(words: usize) -> Self {
        WordWriter { buf: Vec::with_capacity(8 * words) }
    }

    /// A payload holding exactly `words`.
    pub fn from_words(words: &[u64]) -> Self {
        let mut w = Self::with_capacity(words.len());
        w.words(words);
        w
    }

    /// Makes room for `words` more words.
    pub fn reserve(&mut self, words: usize) {
        self.buf.reserve(8 * words);
    }

    /// Appends one word.
    pub fn u(&mut self, w: u64) {
        self.buf.extend_from_slice(&w.to_le_bytes());
    }

    /// Appends a run of words.
    pub fn words(&mut self, words: &[u64]) {
        extend_words(&mut self.buf, words);
    }

    /// Overwrites word `at` — a count written ahead of the elements it
    /// counts. Out of range is a no-op.
    pub fn set(&mut self, at: usize, w: u64) {
        if let Some(slot) = self.buf.get_mut(8 * at..).and_then(|b| b.first_chunk_mut::<8>()) {
            *slot = w.to_le_bytes();
        }
    }

    /// Appends a string: its byte length, then the bytes zero-padded to a
    /// word boundary.
    pub fn str(&mut self, s: &str) {
        self.u(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
        self.buf.resize(self.buf.len().next_multiple_of(8), 0);
    }

    /// Words written so far.
    pub fn len(&self) -> usize {
        self.buf.len() / 8
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The payload bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// The payload bytes, by value.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// A word of the `u32` field `field`: a larger one is invalid, not truncated.
pub fn word_u32(word: u64, field: &str) -> Result<u32, WireError> {
    u32::try_from(word).map_err(|_| WireError::Invalid(format!("{field} {word} out of range")))
}

/// A bounded sequential reader over a word payload.
#[derive(Clone, Debug)]
pub struct WordReader<'a> {
    bytes: &'a [u8],
    /// Words consumed so far.
    at: usize,
}

impl<'a> WordReader<'a> {
    /// A reader over `bytes`, which must be a whole number of words.
    pub fn new(bytes: &'a [u8]) -> Result<Self, WireError> {
        if !bytes.len().is_multiple_of(8) {
            return Err(WireError::Unaligned { bytes: bytes.len() });
        }
        Ok(WordReader { bytes, at: 0 })
    }

    /// Reads the next `n` words as raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let truncated = WireError::Truncated { at: self.at, need: n };
        let len = n.checked_mul(8).ok_or_else(|| truncated.clone())?;
        let (head, rest) = self.bytes.split_at_checked(len).ok_or(truncated)?;
        self.bytes = rest;
        self.at += n;
        Ok(head)
    }

    /// Reads one word.
    pub fn u(&mut self) -> Result<u64, WireError> {
        let [w] = self.array()?;
        Ok(w)
    }

    /// Reads a wire-declared count as a `usize` (saturating: an absurd
    /// count then fails the bounded reads that follow it).
    pub fn count(&mut self) -> Result<usize, WireError> {
        Ok(usize::try_from(self.u()?).unwrap_or(usize::MAX))
    }

    /// Reads a length-prefixed record: its word count, then that many
    /// words as a reader of their own, which cannot read past the record.
    pub fn record(&mut self) -> Result<WordReader<'a>, WireError> {
        let len = self.count()?;
        let at = self.at;
        Ok(WordReader { bytes: self.take(len)?, at })
    }

    /// Reads `N` words.
    pub fn array<const N: usize>(&mut self) -> Result<[u64; N], WireError> {
        let (words, _) = self.take(N)?.as_chunks::<8>();
        let mut out = [0u64; N];
        for (o, w) in out.iter_mut().zip(words) {
            *o = u64::from_le_bytes(*w);
        }
        Ok(out)
    }

    /// Reads `count` consecutive `N`-word elements in one bounded take — the
    /// tight loop for the bulk of a record. A count the payload cannot hold
    /// is a truncation error before anything is read.
    pub fn arrays<const N: usize>(
        &mut self,
        count: usize,
    ) -> Result<impl Iterator<Item = [u64; N]> + 'a, WireError> {
        let (words, _) = self.take(count.saturating_mul(N))?.as_chunks::<8>();
        Ok(words.chunks_exact(N.max(1)).map(|element| {
            let mut out = [0u64; N];
            for (o, w) in out.iter_mut().zip(element) {
                *o = u64::from_le_bytes(*w);
            }
            out
        }))
    }

    /// Reads a string written by [`WordWriter::str`].
    pub fn str(&mut self) -> Result<String, WireError> {
        let n = self.count()?;
        let padded = self.take(words_for(n))?;
        let bytes = padded.get(..n).unwrap_or(padded);
        String::from_utf8(bytes.to_vec())
            .map_err(|e| WireError::Invalid(format!("bad utf8 in string: {e}")))
    }

    /// Clamps a wire-declared count of `words_each`-word elements to what
    /// the rest of the payload could possibly hold, so `Vec::with_capacity`
    /// on garbage input cannot over-allocate — decoding then fails with a
    /// truncation error instead.
    pub fn cap(&self, n: usize, words_each: usize) -> usize {
        n.min(self.remaining() / words_each.max(1))
    }

    /// Words left to read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() / 8
    }

    /// Words consumed so far (from the start of the outermost payload).
    pub fn position(&self) -> usize {
        self.at
    }

    /// An error unless the payload was read to its end — for records whose
    /// declared length must match their content exactly.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(WireError::Invalid(format!(
                "{} unread word(s) after word {}",
                self.remaining(),
                self.at
            )))
        }
    }

    /// The unread words, decoded.
    pub fn rest(&mut self) -> Vec<u64> {
        let (words, _) = std::mem::take(&mut self.bytes).as_chunks::<8>();
        self.at += words.len();
        words.iter().map(|w| u64::from_le_bytes(*w)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The fold every other implementation in the workspace is defined as:
    /// one xor-multiply per word.
    fn fold_words(words: &[u64]) -> u64 {
        words.iter().fold(FNV_OFFSET, |h, &w| (h ^ w).wrapping_mul(FNV_PRIME))
    }

    #[test]
    fn fold_matches_the_per_word_definition_and_pads_the_tail() {
        let words = [1u64, u64::MAX, 0xDEAD_BEEF, 0];
        let bytes = WordWriter::from_words(&words).into_bytes();
        let mut f = WordFold::new();
        f.bytes(&bytes);
        assert_eq!(f.finish(), fold_words(&words));
        // 3 tail bytes fold as one zero-padded word.
        let mut f = WordFold::new();
        f.bytes(&[0xAA, 0xBB, 0xCC]);
        assert_eq!(f.finish(), fold_words(&[0x00CC_BBAA]));
        assert_eq!(WordFold::new().finish(), FNV_OFFSET);
    }

    #[test]
    fn strings_roundtrip_and_reject_truncation() {
        for s in ["", "a", "12345678", "graphs/torus.ecsr", "ünïcödé"] {
            let mut w = WordWriter::new();
            w.str(s);
            w.u(7);
            let mut r = WordReader::new(w.as_bytes()).unwrap();
            assert_eq!(r.str().unwrap(), s);
            assert_eq!(r.u().unwrap(), 7);
            r.finish().unwrap();
        }
        // Declared length beyond the payload is a typed error, as is a
        // length that overflows the byte count.
        for declared in [100u64, u64::MAX] {
            let w = WordWriter::from_words(&[declared, 0x6162_6364]);
            let err = WordReader::new(w.as_bytes()).unwrap().str().unwrap_err();
            assert!(matches!(err, WireError::Truncated { at: 1, .. }), "{err:?}");
        }
        let w = WordWriter::from_words(&[2, 0xFFFF]);
        assert!(matches!(
            WordReader::new(w.as_bytes()).unwrap().str(),
            Err(WireError::Invalid(_))
        ));
    }

    #[test]
    fn reads_are_bounded_and_typed() {
        assert_eq!(WordReader::new(&[1, 2, 3]).unwrap_err(), WireError::Unaligned { bytes: 3 });
        let w = WordWriter::from_words(&[1, 10, 20]);
        let mut r = WordReader::new(w.as_bytes()).unwrap();
        assert_eq!((r.cap(usize::MAX, 1), r.cap(usize::MAX, 2), r.cap(2, 1)), (3, 1, 2));
        let mut body = r.record().unwrap();
        assert_eq!((body.position(), body.u().unwrap()), (1, 10));
        assert_eq!(body.u().unwrap_err(), WireError::Truncated { at: 2, need: 1 });
        assert!(matches!(r.clone().record(), Err(WireError::Truncated { at: 3, need: 20 })));
        assert_eq!(r.array::<2>().unwrap_err(), WireError::Truncated { at: 2, need: 2 });
        assert_eq!(r.take(usize::MAX).unwrap_err(), WireError::Truncated { at: 2, need: usize::MAX });
        assert!(r.finish().is_err());
        // Bulk reads are one bounded take: all of the elements or none.
        assert!(matches!(r.arrays::<3>(1).err(), Some(WireError::Truncated { at: 2, need: 3 })));
        assert!(matches!(r.arrays::<3>(usize::MAX).err(), Some(WireError::Truncated { .. })));
        assert_eq!(r.clone().arrays::<1>(1).unwrap().collect::<Vec<_>>(), vec![[20]]);
        assert_eq!(r.rest(), vec![20]);
        r.finish().unwrap();
        // In-place reads never reach past the payload.
        assert_eq!(words_at::<2>(w.as_bytes(), 1), [10, 20]);
        assert_eq!(words_at::<2>(w.as_bytes(), 2), [0, 0]);
        assert_eq!(words_at::<1>(w.as_bytes(), usize::MAX), [0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The digest depends on the bytes alone, not on how they were
        /// split into slices.
        #[test]
        fn fold_is_independent_of_the_split(
            bytes in prop::collection::vec(0u64..256, 0..200),
            cuts in prop::collection::vec(0u64..200, 0..6),
        ) {
            let bytes: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
            let mut whole = WordFold::new();
            whole.bytes(&bytes);
            let mut cuts: Vec<usize> = cuts.iter().map(|&c| c as usize % (bytes.len() + 1)).collect();
            cuts.sort_unstable();
            let mut split = WordFold::new();
            let mut from = 0;
            for cut in cuts {
                split.bytes(&bytes[from..cut]);
                from = cut;
            }
            split.bytes(&bytes[from..]);
            prop_assert_eq!(split.finish(), whole.finish());
        }

        /// Words written are the words read back, a count patched in
        /// after the fact included.
        #[test]
        fn words_roundtrip(words in prop::collection::vec(0u64..u64::MAX, 0..64)) {
            let mut words = words;
            let mut w = WordWriter::from_words(&words);
            w.set(words.len(), 1); // out of range: no-op
            if let Some(first) = words.first_mut() {
                *first = 42;
                w.set(0, 42);
            }
            prop_assert_eq!(w.len(), words.len());
            prop_assert_eq!(WordReader::new(w.as_bytes()).unwrap().rest(), words);
        }
    }
}
