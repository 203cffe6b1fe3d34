//! Versioned, checksummed checkpoint files for superstep state.
//!
//! A checkpoint is a flat sequence of u64 words inside a small versioned
//! container, written atomically (temp file + rename) so a crash mid-write
//! never leaves a file that restores:
//!
//! ```text
//! word 0  magic   0x45434B50_54303141  ("ECKPT01A")
//! word 1  version CHECKPOINT_VERSION
//! word 2  len     number of payload words
//! word 3  check   word-folded FNV-1a over the payload
//! words 4..4+len  payload
//! ```
//!
//! Restore is paranoid by design: a torn write, wrong magic, foreign
//! version, truncated payload, or checksum mismatch yields a typed
//! [`CheckpointError`] — the caller treats the file as absent rather than
//! trusting it. The payload layout is the caller's business; this module
//! only guarantees "either the exact words written, or a typed refusal".

use crate::wire::{WordFold, WordReader, WordWriter};
use std::fmt;
use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Container magic ("ECKPT01A" squeezed into a u64).
pub const CHECKPOINT_MAGIC: u64 = 0x4543_4B50_5430_3141;
/// Current container version. The container itself has not changed since
/// version 1; the version also pins the one payload layout written into it
/// (a BSP worker's: kept states since version 2, fragments as segments of
/// records in versions 3 and 4, and since version 5 the slot and kept state
/// lists alone), so a file of another build is refused rather than misread.
pub const CHECKPOINT_VERSION: u64 = 5;

/// Typed reasons a checkpoint file cannot be restored.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file does not exist or could not be opened (e.g. a directory in
    /// its path is a regular file): there was nothing to refuse.
    Missing,
    /// The file does not start with [`CHECKPOINT_MAGIC`].
    BadMagic,
    /// The file was written by an incompatible container version.
    UnsupportedVersion(u64),
    /// The file ends before the declared payload does (torn write).
    Truncated,
    /// The payload does not match its checksum (corrupted write).
    ChecksumMismatch,
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Missing => write!(f, "checkpoint file missing"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            CheckpointError::Truncated => write!(f, "torn checkpoint (truncated payload)"),
            CheckpointError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Canonical checkpoint file name for `worker` at `superstep` — the state
/// *entering* that superstep.
pub fn checkpoint_file(dir: &Path, worker: u32, superstep: u32) -> PathBuf {
    dir.join(format!("ckpt-w{worker}-s{superstep}.bin"))
}

/// Atomically writes the word payload `payload` to `path` (temp file in the
/// same directory, then rename). Returns the total Longs written including
/// the container header.
pub fn write_checkpoint(path: &Path, payload: &[u8]) -> Result<u64, CheckpointError> {
    let bytes = payload.len();
    if !bytes.is_multiple_of(8) {
        return Err(CheckpointError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("checkpoint payload of {bytes} bytes is not word-aligned"),
        )));
    }
    let len = (bytes / 8) as u64;
    let mut fold = WordFold::new();
    fold.bytes(payload);
    let header =
        WordWriter::from_words(&[CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len, fold.finish()]);
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(header.as_bytes())?;
        f.write_all(payload)?;
        f.sync_all().ok();
    }
    fs::rename(&tmp, path)?;
    Ok(4 + len)
}

/// Reads and fully validates a checkpoint, returning its payload (a word
/// payload for [`WordReader`]).
pub fn read_checkpoint(path: &Path) -> Result<Vec<u8>, CheckpointError> {
    const HEADER_BYTES: usize = 32;
    let mut bytes = Vec::new();
    let mut file = fs::File::open(path).map_err(|_| CheckpointError::Missing)?;
    file.read_to_end(&mut bytes)?;
    // A torn write from a killed worker must surface as a typed error, so
    // every read is bounds-checked rather than indexed.
    let [magic, version, len, check] = bytes
        .get(..HEADER_BYTES)
        .and_then(|h| WordReader::new(h).ok()?.array().ok())
        .ok_or(CheckpointError::Truncated)?;
    if magic != CHECKPOINT_MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    // Checked arithmetic: a corrupt length word must not overflow the
    // size computation (a debug-build panic is still a panic).
    let need = usize::try_from(len)
        .ok()
        .and_then(|n| n.checked_mul(8))
        .and_then(|n| n.checked_add(HEADER_BYTES))
        .ok_or(CheckpointError::Truncated)?;
    if bytes.len() < need {
        return Err(CheckpointError::Truncated);
    }
    bytes.truncate(need);
    bytes.drain(..HEADER_BYTES);
    let mut fold = WordFold::new();
    fold.bytes(&bytes);
    if fold.finish() != check {
        return Err(CheckpointError::ChecksumMismatch);
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_words(path: &Path, words: &[u64]) -> Result<u64, CheckpointError> {
        write_checkpoint(path, WordWriter::from_words(words).as_bytes())
    }

    fn read_words(path: &Path) -> Result<Vec<u64>, CheckpointError> {
        read_checkpoint(path).map(|bytes| WordReader::new(&bytes).unwrap().rest())
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("euler-ckpt-test-{}-{tag}", std::process::id()));
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn roundtrip() {
        let dir = temp_dir("roundtrip");
        let path = checkpoint_file(&dir, 3, 7);
        let words: Vec<u64> = (0..1000).map(|i| i * 31 + 7).collect();
        let longs = write_words(&path, &words).unwrap();
        assert_eq!(longs, 4 + 1000);
        assert_eq!(read_words(&path).unwrap(), words);
        assert!(path.file_name().unwrap().to_str().unwrap().contains("w3-s7"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_payload_roundtrip() {
        let dir = temp_dir("empty");
        let path = checkpoint_file(&dir, 0, 0);
        write_words(&path, &[]).unwrap();
        assert!(read_words(&path).unwrap().is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_typed() {
        let dir = temp_dir("missing");
        assert!(matches!(
            read_checkpoint(&checkpoint_file(&dir, 0, 99)),
            Err(CheckpointError::Missing)
        ));
        // Beneath a regular file nothing is written, and nothing read back.
        let blocker = dir.join("blocker");
        fs::write(&blocker, b"not a directory").unwrap();
        let path = checkpoint_file(&blocker, 0, 0);
        assert!(matches!(write_words(&path, &[1]), Err(CheckpointError::Io(_))));
        assert!(matches!(read_checkpoint(&path), Err(CheckpointError::Missing)));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_write_is_detected_and_refused() {
        let dir = temp_dir("torn");
        let path = checkpoint_file(&dir, 1, 1);
        write_words(&path, &[1, 2, 3, 4, 5]).unwrap();
        // Simulate a torn write: chop the file mid-payload.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 12]).unwrap();
        assert!(matches!(read_checkpoint(&path), Err(CheckpointError::Truncated)));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_version_tag_is_refused() {
        let dir = temp_dir("version");
        let path = checkpoint_file(&dir, 1, 2);
        write_words(&path, &[9, 9, 9]).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[8..16].copy_from_slice(&99u64.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_checkpoint(&path),
            Err(CheckpointError::UnsupportedVersion(99))
        ));
        // A version 1 file — the same container around a payload without the
        // kept-state list — and a version 4 one, whose payload also held
        // fragment segments, are refused the same way.
        for earlier in [1u64, 4] {
            bytes[8..16].copy_from_slice(&earlier.to_le_bytes());
            fs::write(&path, &bytes).unwrap();
            assert!(matches!(
                read_checkpoint(&path),
                Err(CheckpointError::UnsupportedVersion(v)) if v == earlier
            ));
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flipped_payload_bit_is_refused() {
        let dir = temp_dir("corrupt");
        let path = checkpoint_file(&dir, 1, 3);
        write_words(&path, &[10, 20, 30]).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0x80;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_checkpoint(&path), Err(CheckpointError::ChecksumMismatch)));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn arbitrary_garbage_is_refused_not_panicked() {
        let dir = temp_dir("garbage");
        let path = checkpoint_file(&dir, 2, 0);
        fs::write(&path, b"not a checkpoint").unwrap();
        assert!(matches!(read_checkpoint(&path), Err(CheckpointError::Truncated)));
        fs::write(&path, vec![0xAB; 64]).unwrap();
        assert!(matches!(read_checkpoint(&path), Err(CheckpointError::BadMagic)));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overwrite_is_atomic_replacement() {
        let dir = temp_dir("atomic");
        let path = checkpoint_file(&dir, 0, 1);
        write_words(&path, &[1]).unwrap();
        write_words(&path, &[2, 3]).unwrap();
        assert_eq!(read_words(&path).unwrap(), vec![2, 3]);
        assert!(!path.with_extension("tmp").exists(), "temp file must not linger");
        fs::remove_dir_all(&dir).ok();
    }
}
