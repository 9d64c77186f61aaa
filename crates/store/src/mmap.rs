//! Memory-mapped snapshot buffers behind the engine's [`SharedBytes`]
//! handle.
//!
//! `OnlineIndex::load` reads the whole snapshot with `fs::read`, so load
//! cost is linear in file size before a single section is decoded. With
//! [`OpenOptions::mmap`](crate::OpenOptions::mmap) set,
//! [`CheckpointedIndex::open`](crate::CheckpointedIndex::open) maps the
//! file instead, through [`open_bytes`]: [`map_file`] wraps a read-only,
//! private `mmap(2)` of the snapshot in a [`SharedBytes`], so the loader's
//! zero-copy views (string arena, direct postings) become *page-granular
//! and lazy* — the kernel faults pages in as queries touch them, and a
//! restart touches only the header, section table, and metadata pages.
//!
//! The build environment has no `libc` crate, so the two syscalls are
//! declared directly (`extern "C"`); everything else is std. On
//! non-Unix targets (and for callers that ask for it) [`read_file`] is
//! the portable fallback with identical semantics minus the laziness.
//!
//! # Caveats
//!
//! * The mapping is `MAP_PRIVATE` and read-only: mutating the snapshot
//!   file *in place* while a process has it mapped is undefined from the
//!   reader's point of view (the engine's own savers never do — they
//!   write a temp file and rename). Truncating a mapped file can raise
//!   `SIGBUS` on access; replace snapshots atomically, never in place.
//! * No torn-page or durability claims are made for the mapping itself:
//!   integrity still comes from the container's per-section CRC32
//!   validation, which runs on the mapped bytes exactly as it does on a
//!   heap buffer.

use std::fs::File;
use std::io;
use std::path::Path;
use std::sync::Arc;

use sj_common::{ByteStore, SharedBytes};

/// Reads the whole file into an owned buffer — the portable load path
/// (and the only one off Unix). Byte-for-byte equivalent to [`map_file`].
pub fn read_file(path: &Path) -> io::Result<SharedBytes> {
    Ok(std::fs::read(path)?.into())
}

/// Opens `path` as a [`SharedBytes`], preferring an mmap when asked for
/// and available; `fs::read` otherwise. Returns the buffer and whether
/// it is actually memory-mapped.
pub fn open_bytes(path: &Path, prefer_mmap: bool) -> io::Result<(SharedBytes, bool)> {
    if prefer_mmap {
        if let Some(mapped) = map_file(path)? {
            return Ok((mapped, true));
        }
    }
    Ok((read_file(path)?, false))
}

/// Maps `path` read-only and returns it as a [`SharedBytes`], or `None`
/// where mapping is unsupported (non-Unix targets) — callers fall back
/// to [`read_file`]. An empty file yields an empty heap buffer (a
/// zero-length `mmap` is an error by spec).
///
/// # Errors
///
/// Propagates `open`/`metadata` failures and the `mmap(2)` errno.
#[cfg(unix)]
pub fn map_file(path: &Path) -> io::Result<Option<SharedBytes>> {
    use std::os::unix::io::AsRawFd;

    let file = File::open(path)?;
    let len = file.metadata()?.len();
    let len = usize::try_from(len)
        .map_err(|_| io::Error::new(io::ErrorKind::OutOfMemory, "file exceeds address space"))?;
    if len == 0 {
        return Ok(Some(Vec::new().into()));
    }
    // SAFETY: a fresh read-only private mapping of `len` bytes backed by
    // an open fd; the fd may close immediately after (POSIX keeps the
    // mapping alive), and `MmapBytes::drop` unmaps exactly this range.
    let ptr = unsafe {
        sys::mmap(
            std::ptr::null_mut(),
            len,
            sys::PROT_READ,
            sys::MAP_PRIVATE,
            file.as_raw_fd(),
            0,
        )
    };
    if ptr == sys::MAP_FAILED {
        return Err(io::Error::last_os_error());
    }
    let store = MmapBytes { ptr, len };
    Ok(Some(SharedBytes::from_store(
        Arc::new(store) as Arc<dyn ByteStore>
    )))
}

/// Maps `path` read-only; always `None` on non-Unix targets (no mmap
/// shim), so [`open_bytes`] falls back to [`read_file`].
#[cfg(not(unix))]
pub fn map_file(_path: &Path) -> io::Result<Option<SharedBytes>> {
    Ok(None)
}

/// The raw syscall declarations — the subset of `libc` this shim needs,
/// with the constants pinned to their POSIX-universal values.
#[cfg(unix)]
mod sys {
    use std::ffi::c_void;
    use std::os::raw::c_int;

    /// `PROT_READ`: pages may be read.
    pub const PROT_READ: c_int = 1;
    /// `MAP_PRIVATE`: copy-on-write, not shared with other mappers.
    pub const MAP_PRIVATE: c_int = 2;
    /// `mmap`'s error return, `(void *) -1`.
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, length: usize) -> c_int;
    }
}

/// One live read-only mapping, unmapped on drop. Private to the module:
/// callers only ever see the type-erased [`SharedBytes`].
#[cfg(unix)]
struct MmapBytes {
    ptr: *mut std::ffi::c_void,
    len: usize,
}

// SAFETY: the mapping is PROT_READ and never handed out mutably, so
// concurrent reads from any thread are fine; the raw pointer is owned
// exclusively by this struct until drop.
#[cfg(unix)]
unsafe impl Send for MmapBytes {}
#[cfg(unix)]
unsafe impl Sync for MmapBytes {}

#[cfg(unix)]
impl ByteStore for MmapBytes {
    fn as_bytes(&self) -> &[u8] {
        // SAFETY: `ptr` is a live mapping of exactly `len` readable
        // bytes, valid until `drop` unmaps it — and the returned slice
        // cannot outlive `self`.
        unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
    }
}

#[cfg(unix)]
impl Drop for MmapBytes {
    fn drop(&mut self) {
        // SAFETY: unmaps the exact range mmap returned; failure is
        // unreportable in drop and leaves only a leaked mapping.
        unsafe {
            sys::munmap(self.ptr, self.len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("passjoin-store-mmap-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn mapped_bytes_equal_read_bytes() {
        let path = temp_path("roundtrip");
        let payload: Vec<u8> = (0..10_000u32).flat_map(|i| i.to_le_bytes()).collect();
        std::fs::write(&path, &payload).unwrap();
        let (mapped, _) = open_bytes(&path, true).unwrap();
        let (read, was_mapped) = open_bytes(&path, false).unwrap();
        assert!(!was_mapped);
        assert_eq!(mapped.as_bytes(), read.as_bytes());
        assert_eq!(mapped.as_bytes(), &payload[..]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_maps_to_an_empty_buffer() {
        let path = temp_path("empty");
        std::fs::write(&path, b"").unwrap();
        let (bytes, _) = open_bytes(&path, true).unwrap();
        assert!(bytes.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let path = temp_path("missing-never-created");
        assert!(open_bytes(&path, true).is_err());
        assert!(open_bytes(&path, false).is_err());
    }

    #[cfg(unix)]
    #[test]
    fn mapping_survives_the_closed_fd_and_unmaps_on_drop() {
        let path = temp_path("fd-close");
        std::fs::write(&path, vec![0xabu8; 1 << 16]).unwrap();
        let mapped = map_file(&path).unwrap().expect("unix maps");
        // The File handle in map_file is already closed; reads still work.
        assert!(mapped.as_bytes().iter().all(|&b| b == 0xab));
        let clone = mapped.clone();
        drop(mapped);
        assert_eq!(clone.len(), 1 << 16, "clone keeps the mapping alive");
        drop(clone); // munmap happens here; nothing observable to assert
        std::fs::remove_file(&path).unwrap();
    }
}
