//! Atomic checkpoint persistence: write-to-temp, fsync, rename.
//!
//! A checkpoint file is only ever observed in one of two states — the
//! previous complete version or the new complete version — because the
//! bytes land in a `.tmp` sibling first and are renamed over the
//! destination only after `sync_all`. A `kill -9` between any two
//! syscalls leaves either the old file or a stray `.tmp` (which loads
//! ignore); the codec's trailing checksum catches the remaining
//! torn-sector cases.

use std::fs;
use std::io::{self, Write};
use std::path::Path;

use crate::codec::{CheckpointFile, CodecError};

/// A failed checkpoint load, distinguishing I/O from format damage.
#[derive(Debug)]
pub enum LoadError {
    /// The file could not be read at all.
    Io(io::Error),
    /// The bytes were read but are damaged or mismatched.
    Codec(CodecError),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "checkpoint unreadable: {e}"),
            LoadError::Codec(e) => write!(f, "checkpoint invalid: {e}"),
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Io(e) => Some(e),
            LoadError::Codec(e) => Some(e),
        }
    }
}

/// Writes `bytes` to `path` atomically: temp sibling, fsync, rename.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = Path::new(&tmp);
    {
        let mut f = fs::File::create(tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(tmp, path)
}

/// Persists a checkpoint envelope atomically.
pub fn save_checkpoint(path: &Path, file: &CheckpointFile) -> io::Result<()> {
    write_atomic(path, &file.encode())
}

/// Loads and validates a checkpoint envelope; `expected` binds it to
/// the `(aig, options)` fingerprints of the run about to resume.
pub fn load_checkpoint(
    path: &Path,
    expected: Option<(u64, u64)>,
) -> Result<CheckpointFile, LoadError> {
    let bytes = fs::read(path).map_err(LoadError::Io)?;
    CheckpointFile::decode(&bytes, expected).map_err(LoadError::Codec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use veridic_mc::{CheckStats, EngineCheckpoint, RunCheckpoint};

    fn sample() -> CheckpointFile {
        CheckpointFile {
            aig_fingerprint: 7,
            options_fingerprint: 9,
            state: RunCheckpoint {
                bad_index: 0,
                slot: 1,
                state: EngineCheckpoint::Induction { next_k: 3 },
                stats: CheckStats::default(),
                reasons: Vec::new(),
                cleared_depth: Some(30),
            },
        }
    }

    #[test]
    fn save_load_round_trip_and_no_temp_residue() {
        let dir = std::env::temp_dir().join(format!("veridic-store-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap(); // lint: allow
        let path = dir.join("p0.ckpt");
        save_checkpoint(&path, &sample()).unwrap(); // lint: allow
        assert!(
            !dir.join("p0.ckpt.tmp").exists(),
            "temp must be renamed away"
        );
        let back = load_checkpoint(&path, Some((7, 9))).unwrap(); // lint: allow
        assert_eq!(back.state.slot, 1);
        // Overwrite keeps the file valid.
        save_checkpoint(&path, &sample()).unwrap(); // lint: allow
        assert!(load_checkpoint(&path, None).is_ok());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_and_damaged_files_are_distinguished() {
        let dir = std::env::temp_dir().join(format!("veridic-store2-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap(); // lint: allow
        let missing = load_checkpoint(&dir.join("absent.ckpt"), None);
        assert!(matches!(missing, Err(LoadError::Io(_))));
        let path = dir.join("torn.ckpt");
        let mut bytes = sample().encode();
        bytes.truncate(bytes.len() - 3);
        fs::write(&path, &bytes).unwrap(); // lint: allow
        assert!(matches!(
            load_checkpoint(&path, None),
            Err(LoadError::Codec(_))
        ));
        fs::remove_dir_all(&dir).ok();
    }
}
