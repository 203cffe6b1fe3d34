//! Offline shim for `memmap2`.
//!
//! Provides read-only [`Mmap`] — the only surface the `.ecsr` loader in
//! `euler-graph` uses. On Unix the file is mapped with the platform's
//! `mmap(2)` (declared directly against the C library, since the `libc`
//! crate is unavailable offline); elsewhere, or when the kernel refuses the
//! mapping, the whole file is read into an owned buffer instead.
//!
//! Two deliberate deviations from the real crate, both safe-side:
//!
//! * [`Mmap::map`] takes the file by reference and is *safe*: the mapping is
//!   always `PROT_READ` + `MAP_PRIVATE`, so a concurrent writer can at worst
//!   produce stale bytes, never UB-through-aliasing in this process.
//! * The read fallback stores `u64` words, so the buffer start is 8-byte
//!   aligned just like a page-aligned mapping — callers that reinterpret the
//!   bytes as little-endian word arrays get the same alignment guarantee on
//!   both paths.

use std::fs::File;
use std::io;

#[cfg(unix)]
mod sys {
    use core::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        pub fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

/// A read-only view of a file's bytes.
///
/// Deref to `[u8]` like the real `memmap2::Mmap`. The view is either a
/// kernel memory mapping (unmapped on drop) or, on the fallback path, an
/// owned copy of the file contents.
#[derive(Debug)]
pub struct Mmap {
    inner: Inner,
}

#[derive(Debug)]
enum Inner {
    #[cfg(unix)]
    Mapped { ptr: *mut core::ffi::c_void, len: usize },
    /// Owned fallback; `u64` storage keeps the base 8-byte aligned.
    Owned { words: Vec<u64>, len: usize },
}

// SAFETY: the mapping is read-only and owned exclusively by this value; the
// raw pointer is only a region handle, never aliased mutably.
unsafe impl Send for Mmap {}
// SAFETY: all access is through `&self` returning `&[u8]` into a read-only
// mapping, so concurrent readers can never observe a write.
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Maps `file` read-only. Falls back to reading the file into memory on
    /// platforms without `mmap` or when the mapping call fails.
    ///
    /// # Errors
    /// Propagates metadata/read I/O errors.
    pub fn map(file: &File) -> io::Result<Mmap> {
        let len = file.metadata()?.len();
        if len > usize::MAX as u64 {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "file too large to map into this address space"));
        }
        let len = len as usize;
        if len == 0 {
            // A zero-length mmap is invalid (EINVAL); an empty owned buffer
            // is indistinguishable to callers.
            return Ok(Mmap { inner: Inner::Owned { words: Vec::new(), len: 0 } });
        }
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            // SAFETY: len > 0; the fd is valid for the duration of the call;
            // a PROT_READ/MAP_PRIVATE mapping of a regular file has no
            // aliasing requirements on our side.
            let ptr =
                unsafe { sys::mmap(std::ptr::null_mut(), len, sys::PROT_READ, sys::MAP_PRIVATE, file.as_raw_fd(), 0) };
            if ptr != sys::MAP_FAILED {
                return Ok(Mmap { inner: Inner::Mapped { ptr, len } });
            }
            // Fall through to the owned-read path (e.g. fd on a pseudo-fs).
        }
        Self::read_owned(file, len)
    }

    /// The pread-style fallback: reads the whole file into an 8-byte-aligned
    /// owned buffer.
    fn read_owned(file: &File, len: usize) -> io::Result<Mmap> {
        use std::io::Read;
        let mut words = vec![0u64; len.div_ceil(8)];
        // SAFETY: the Vec's allocation covers len bytes (rounded up to a
        // whole number of words) and u64 -> u8 reinterpretation is valid.
        let bytes = unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr() as *mut u8, len) };
        let mut reader = file;
        reader.read_exact(bytes)?;
        Ok(Mmap { inner: Inner::Owned { words, len } })
    }

    /// True when the view is a kernel mapping rather than an owned copy.
    pub fn is_kernel_mapping(&self) -> bool {
        match self.inner {
            #[cfg(unix)]
            Inner::Mapped { .. } => true,
            Inner::Owned { .. } => false,
        }
    }
}

impl std::ops::Deref for Mmap {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.inner {
            #[cfg(unix)]
            // SAFETY: the mapping at ptr spans len readable bytes until drop.
            Inner::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr as *const u8, *len) },
            Inner::Owned { words, len } => {
                // SAFETY: the allocation covers *len bytes (see read_owned).
                unsafe { std::slice::from_raw_parts(words.as_ptr() as *const u8, *len) }
            }
        }
    }
}

impl AsRef<[u8]> for Mmap {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Inner::Mapped { ptr, len } = self.inner {
            // SAFETY: ptr/len came from a successful mmap and are unmapped
            // exactly once.
            unsafe {
                sys::munmap(ptr, len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::path::PathBuf;

    fn temp_file(name: &str, contents: &[u8]) -> PathBuf {
        let dir = std::env::temp_dir().join("memmap2_shim_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let mut f = File::create(&path).unwrap();
        f.write_all(contents).unwrap();
        path
    }

    #[test]
    fn maps_file_contents() {
        let path = temp_file("basic.bin", b"hello mapping");
        let map = Mmap::map(&File::open(&path).unwrap()).unwrap();
        assert_eq!(&map[..], b"hello mapping");
        assert_eq!(map.as_ref().len(), 13);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unix_uses_a_kernel_mapping() {
        let path = temp_file("kernel.bin", &[1u8; 4096]);
        let map = Mmap::map(&File::open(&path).unwrap()).unwrap();
        assert_eq!(map.is_kernel_mapping(), cfg!(unix));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_maps_to_empty_slice() {
        let path = temp_file("empty.bin", b"");
        let map = Mmap::map(&File::open(&path).unwrap()).unwrap();
        assert!(map.is_empty());
        assert!(!map.is_kernel_mapping());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn owned_fallback_is_word_aligned() {
        let path = temp_file("aligned.bin", &[7u8; 33]);
        let map = Mmap::read_owned(&File::open(&path).unwrap(), 33).unwrap();
        assert_eq!(map.len(), 33);
        assert_eq!(map.as_ptr() as usize % 8, 0);
        assert_eq!(&map[..], &[7u8; 33]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapping_is_word_aligned_too() {
        let path = temp_file("aligned_map.bin", &[9u8; 64]);
        let map = Mmap::map(&File::open(&path).unwrap()).unwrap();
        assert_eq!(map.as_ptr() as usize % 8, 0);
        std::fs::remove_file(&path).ok();
    }
}
