//! Messages exchanged between partitions across workers.

use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a worker ("machine"/executor) in the BSP engine.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
pub struct WorkerId(pub u32);

impl WorkerId {
    /// Returns the identifier as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for WorkerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "W{}", self.0)
    }
}

impl fmt::Display for WorkerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "W{}", self.0)
    }
}

/// A message addressed from one partition to another.
///
/// Payloads are already-serialised bytes: the engine never inspects them, it
/// only routes and *accounts* for them (bytes moved within a worker versus
/// across workers), which is what the paper's platform-overhead analysis needs.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// Sending partition (engine-level partition index).
    pub from: u32,
    /// Receiving partition.
    pub to: u32,
    /// Application-defined tag distinguishing message kinds.
    pub tag: u32,
    /// Serialised payload.
    pub payload: Bytes,
}

impl Envelope {
    /// Creates an envelope.
    pub fn new(from: u32, to: u32, tag: u32, payload: impl Into<Bytes>) -> Self {
        Envelope { from, to, tag, payload: payload.into() }
    }

    /// Payload size in bytes (what the shuffle would move).
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// True when the payload is empty (control messages).
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

/// Helpers for encoding sequences of 64-bit values into payloads.
///
/// The partition state the algorithm ships around (path maps, boundary
/// vertices, remote edges) is fundamentally a sequence of Longs; encoding them
/// explicitly keeps the byte counts interpretable in the paper's units.
pub mod codec {
    use crate::wire::{WordReader, WordWriter};
    use bytes::Bytes;

    /// Encodes a slice of u64 values (little endian) into a payload.
    pub fn encode_u64s(values: &[u64]) -> Bytes {
        WordWriter::from_words(values).into_bytes().into()
    }

    /// Decodes a payload written by [`encode_u64s`]; trailing bytes short of
    /// a word are ignored.
    pub fn decode_u64s(payload: &Bytes) -> Vec<u64> {
        let bytes = payload.as_slice();
        let whole = bytes.len() - bytes.len() % 8;
        WordReader::new(&bytes[..whole]).map(|mut r| r.rest()).unwrap_or_default()
    }

    /// Number of Longs a payload of `bytes` bytes represents (rounded up).
    pub fn longs_in(bytes: usize) -> u64 {
        crate::wire::words_for(bytes) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_len_and_flags() {
        let e = Envelope::new(0, 1, 7, vec![1u8, 2, 3]);
        assert_eq!(e.len(), 3);
        assert!(!e.is_empty());
        assert_eq!(e.tag, 7);
        let empty = Envelope::new(1, 0, 0, Vec::new());
        assert!(empty.is_empty());
    }

    #[test]
    fn worker_id_display() {
        assert_eq!(format!("{}", WorkerId(3)), "W3");
        assert_eq!(WorkerId(3).index(), 3);
    }

    #[test]
    fn u64_codec_roundtrip() {
        let values = vec![0u64, 1, u64::MAX, 42, 0xDEAD_BEEF];
        let encoded = codec::encode_u64s(&values);
        assert_eq!(encoded.len(), values.len() * 8);
        let decoded = codec::decode_u64s(&encoded);
        assert_eq!(decoded, values);
    }

    #[test]
    fn codec_longs_in_rounds_up() {
        assert_eq!(codec::longs_in(0), 0);
        assert_eq!(codec::longs_in(8), 1);
        assert_eq!(codec::longs_in(9), 2);
    }

    #[test]
    fn empty_payload_decodes_empty() {
        let decoded = codec::decode_u64s(&Bytes::new());
        assert!(decoded.is_empty());
    }
}
