//! Crash-safe artifact writes.
//!
//! Study JSON, saved models and benchmark reports are read back by later
//! runs, so a process killed mid-write must not leave a truncated file
//! where a complete one used to be. [`write_atomic`] writes a temp file in
//! the target's directory and renames it over the target: readers see
//! either the old bytes or the new ones, never a prefix.

use std::ffi::OsString;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Writes `bytes` to `path` through a temp file in the same directory and a
/// rename, so an existing `path` is replaced whole or left untouched.
///
/// No fsync: this guards against a killed process, not against power loss.
/// The temp name is derived from the target name and the process id, so
/// concurrent writers of one path must be separate processes. The parent
/// directory must exist.
///
/// # Errors
///
/// Returns any I/O error from creating, writing or renaming the temp file;
/// the temp file is removed on failure.
pub fn write_atomic(path: impl AsRef<Path>, bytes: impl AsRef<[u8]>) -> io::Result<()> {
    let path = path.as_ref();
    let tmp = temp_path(path);
    let result = fs::File::create(&tmp)
        .and_then(|mut file| file.write_all(bytes.as_ref()))
        .and_then(|()| fs::rename(&tmp, path));
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// `dir/.name.<pid>.tmp` for target `dir/name`.
fn temp_path(path: &Path) -> PathBuf {
    let mut name = OsString::from(".");
    name.push(path.file_name().unwrap_or_default());
    name.push(format!(".{}.tmp", std::process::id()));
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hqnn-write-atomic-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn successful_write_replaces_target_and_leaves_no_temp_file() {
        let dir = temp_dir("ok");
        let target = dir.join("study.json");
        fs::write(&target, b"old").unwrap();
        write_atomic(&target, b"new contents").unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"new contents");
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, vec![OsString::from("study.json")]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_write_leaves_existing_target_byte_identical() {
        let dir = temp_dir("fail");
        let target = dir.join("study.json");
        fs::write(&target, b"{\"complete\": true}\n").unwrap();
        // A directory squatting on the temp name makes the write fail.
        fs::create_dir(temp_path(&target)).unwrap();
        assert!(write_atomic(&target, b"{\"trunc").is_err());
        assert_eq!(fs::read(&target).unwrap(), b"{\"complete\": true}\n");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn temp_file_sits_next_to_the_target() {
        let tmp = temp_path(Path::new("out/BENCH_1.json"));
        assert_eq!(tmp.parent(), Some(Path::new("out")));
        let name = tmp.file_name().unwrap().to_string_lossy().into_owned();
        assert!(
            name.starts_with(".BENCH_1.json.") && name.ends_with(".tmp"),
            "{name}"
        );
    }
}
