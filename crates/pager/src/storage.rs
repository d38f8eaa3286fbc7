use crate::PageId;
use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::RwLock;

/// A page-granular disk: the backing of the durability layer
/// ([`crate::DurableStorage`], the op log of `lsdb-core`'s live maps).
/// Implementations never cache: every read/write is a disk transfer.
///
/// Reads and writes take `&self`; implementations use interior mutability
/// ([`MemStorage`]) or positioned I/O ([`FileStorage`]). Only
/// [`Storage::grow`] is exclusive.
///
/// All transfers are fallible: a corrupt or truncated store file surfaces
/// as an [`io::Error`] to the caller instead of aborting the process.
pub trait Storage: Sync {
    /// Fixed page size in bytes.
    fn page_size(&self) -> usize;

    /// Number of pages ever allocated.
    fn num_pages(&self) -> u32;

    /// Read page `pid` into `buf` (`buf.len() == page_size`).
    fn read_page(&self, pid: PageId, buf: &mut [u8]) -> io::Result<()>;

    /// Write `buf` to page `pid`.
    fn write_page(&self, pid: PageId, buf: &[u8]) -> io::Result<()>;

    /// Extend the disk by one zeroed page, returning its id.
    fn grow(&mut self) -> io::Result<PageId>;

    /// Force previously written pages to stable storage. A plain
    /// [`Storage::write_page`] only hands bytes to the OS cache; durability
    /// layers (commit, checkpoint) must call `sync` before declaring data
    /// safe. The default is a no-op, correct for backings with no volatile
    /// cache ([`MemStorage`]); [`FileStorage`] issues a real fsync.
    fn sync(&self) -> io::Result<()> {
        Ok(())
    }
}

fn out_of_range(op: &str, pid: PageId, num_pages: u32) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("{op} past end of storage: page {} of {num_pages}", pid.0),
    )
}

/// An in-memory "disk": a vector of pages. Deterministic and allocation-
/// cheap; the backing of volatile live maps and of tests. Its transfers
/// never fail (beyond out-of-range page ids).
pub struct MemStorage {
    page_size: usize,
    pages: RwLock<Vec<Box<[u8]>>>,
}

impl MemStorage {
    pub fn new(page_size: usize) -> Self {
        assert!(page_size >= 64, "page size too small to hold a node header");
        MemStorage {
            page_size,
            pages: RwLock::new(Vec::new()),
        }
    }
}

impl Storage for MemStorage {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn num_pages(&self) -> u32 {
        self.pages.read().unwrap().len() as u32
    }

    fn read_page(&self, pid: PageId, buf: &mut [u8]) -> io::Result<()> {
        let pages = self.pages.read().unwrap();
        let page = pages
            .get(pid.index())
            .ok_or_else(|| out_of_range("read", pid, pages.len() as u32))?;
        buf.copy_from_slice(page);
        Ok(())
    }

    fn write_page(&self, pid: PageId, buf: &[u8]) -> io::Result<()> {
        let mut pages = self.pages.write().unwrap();
        let n = pages.len() as u32;
        let page = pages
            .get_mut(pid.index())
            .ok_or_else(|| out_of_range("write", pid, n))?;
        page.copy_from_slice(buf);
        Ok(())
    }

    fn grow(&mut self) -> io::Result<PageId> {
        let pages = self.pages.get_mut().unwrap();
        let pid = PageId(pages.len() as u32);
        pages.push(vec![0u8; self.page_size].into_boxed_slice());
        Ok(pid)
    }
}

/// Magic leading the superblock of every [`FileStorage`] file.
pub const STORE_MAGIC: &[u8; 8] = b"LSDBPAGE";

/// On-disk format version stamped into (and required from) the
/// superblock. Bumped to 2 together with the structure-of-arrays node
/// page layout: pages written by an older build are laid out differently
/// byte-for-byte, so opening them with current code would silently decode
/// garbage — version negotiation turns that into a structured error at
/// open time.
pub const STORE_VERSION: u16 = 2;

/// A file-backed disk. The first page of the file is a reserved
/// superblock — magic, format version, page size — and data page `i`
/// lives at byte offset `(i + 1) * page_size`. Reads and writes use
/// positioned I/O (`pread`/`pwrite`), so concurrent readers never fight
/// over a shared file cursor.
///
/// [`FileStorage::open`] refuses files it cannot faithfully interpret
/// with [`io::ErrorKind::InvalidData`]: missing or foreign magic
/// (including pre-superblock v1 stores, which began directly with page
/// data), an unknown format version, or a page size differing from the
/// one the store was created with.
#[derive(Debug)]
pub struct FileStorage {
    file: File,
    page_size: usize,
    num_pages: u32,
}

/// Bytes of the superblock that carry data; the rest of page 0 is zero.
const SUPERBLOCK_LEN: usize = 16;

fn superblock(page_size: usize) -> [u8; SUPERBLOCK_LEN] {
    let mut sb = [0u8; SUPERBLOCK_LEN];
    sb[..8].copy_from_slice(STORE_MAGIC);
    sb[8..10].copy_from_slice(&STORE_VERSION.to_le_bytes());
    sb[12..16].copy_from_slice(&(page_size as u32).to_le_bytes());
    sb
}

impl FileStorage {
    /// Create (truncating) a storage file at `path`, writing a fresh
    /// superblock.
    pub fn create(path: &Path, page_size: usize) -> io::Result<Self> {
        assert!(page_size >= 64);
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut page0 = vec![0u8; page_size];
        page0[..SUPERBLOCK_LEN].copy_from_slice(&superblock(page_size));
        file.write_all_at(&page0, 0)?;
        Ok(FileStorage {
            file,
            page_size,
            num_pages: 0,
        })
    }

    /// Open an existing storage file, validating its superblock. A file
    /// that is truncated mid-page, lacks the magic (v1 stores predate the
    /// superblock entirely), carries an unknown format version, or was
    /// created with a different page size reports
    /// [`io::ErrorKind::InvalidData`] rather than opening a store that
    /// would decode garbage later.
    pub fn open(path: &Path, page_size: usize) -> io::Result<Self> {
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let file = File::options().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        if len % page_size as u64 != 0 {
            return Err(invalid(format!(
                "store file {} is truncated or corrupt: length {len} is not a \
                 multiple of the page size {page_size}",
                path.display()
            )));
        }
        if len < page_size as u64 {
            return Err(invalid(format!(
                "store file {} has no superblock (empty file)",
                path.display()
            )));
        }
        let mut sb = [0u8; SUPERBLOCK_LEN];
        file.read_exact_at(&mut sb, 0)?;
        if &sb[..8] != STORE_MAGIC {
            return Err(invalid(format!(
                "store file {} has no {:?} superblock: either not a page store \
                 or a pre-superblock format-v1 store, which this version does \
                 not read (v1 pages use the retired interleaved node layout)",
                path.display(),
                String::from_utf8_lossy(STORE_MAGIC),
            )));
        }
        let version = u16::from_le_bytes([sb[8], sb[9]]);
        if version != STORE_VERSION {
            return Err(invalid(format!(
                "store file {} has page-format version {version}, but this \
                 build reads only version {STORE_VERSION}",
                path.display()
            )));
        }
        let stored_ps = u32::from_le_bytes([sb[12], sb[13], sb[14], sb[15]]) as usize;
        if stored_ps != page_size {
            return Err(invalid(format!(
                "store file {} was created with page size {stored_ps}, \
                 opened with {page_size}",
                path.display()
            )));
        }
        Ok(FileStorage {
            file,
            page_size,
            num_pages: (len / page_size as u64 - 1) as u32,
        })
    }

    fn offset(&self, pid: PageId) -> u64 {
        // Data pages start one page in, past the superblock.
        (pid.0 as u64 + 1) * self.page_size as u64
    }
}

impl Storage for FileStorage {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn num_pages(&self) -> u32 {
        self.num_pages
    }

    fn read_page(&self, pid: PageId, buf: &mut [u8]) -> io::Result<()> {
        if pid.0 >= self.num_pages {
            return Err(out_of_range("read", pid, self.num_pages));
        }
        self.file.read_exact_at(buf, self.offset(pid))
    }

    fn write_page(&self, pid: PageId, buf: &[u8]) -> io::Result<()> {
        if pid.0 >= self.num_pages {
            return Err(out_of_range("write", pid, self.num_pages));
        }
        self.file.write_all_at(buf, self.offset(pid))
    }

    fn grow(&mut self) -> io::Result<PageId> {
        let pid = PageId(self.num_pages);
        self.file
            .set_len((self.num_pages as u64 + 2) * self.page_size as u64)?;
        self.num_pages += 1;
        Ok(pid)
    }

    fn sync(&self) -> io::Result<()> {
        self.file.sync_all()
    }
}

/// Boxed storages forward every operation, so durability layers can be
/// built over `Box<dyn Storage + Send>` when the backing is chosen
/// at runtime (memory for experiments, a file for a served store).
impl<S: Storage + ?Sized> Storage for Box<S> {
    fn page_size(&self) -> usize {
        (**self).page_size()
    }

    fn num_pages(&self) -> u32 {
        (**self).num_pages()
    }

    fn read_page(&self, pid: PageId, buf: &mut [u8]) -> io::Result<()> {
        (**self).read_page(pid, buf)
    }

    fn write_page(&self, pid: PageId, buf: &[u8]) -> io::Result<()> {
        (**self).write_page(pid, buf)
    }

    fn grow(&mut self) -> io::Result<PageId> {
        (**self).grow()
    }

    fn sync(&self) -> io::Result<()> {
        (**self).sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_storage_roundtrip() {
        let mut s = MemStorage::new(128);
        let p0 = s.grow().unwrap();
        let p1 = s.grow().unwrap();
        assert_eq!(s.num_pages(), 2);
        let mut buf = vec![7u8; 128];
        s.write_page(p1, &buf).unwrap();
        buf.fill(0);
        s.read_page(p1, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 7));
        s.read_page(p0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0), "fresh pages are zeroed");
    }

    #[test]
    fn mem_storage_shared_reads() {
        let mut s = MemStorage::new(128);
        let p0 = s.grow().unwrap();
        s.write_page(p0, &[9u8; 128]).unwrap();
        let s = &s;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(move || {
                    let mut buf = vec![0u8; 128];
                    s.read_page(p0, &mut buf).unwrap();
                    assert!(buf.iter().all(|&b| b == 9));
                });
            }
        });
    }

    #[test]
    fn mem_storage_out_of_range_is_an_error() {
        let s = MemStorage::new(128);
        let mut buf = vec![0u8; 128];
        let e = s.read_page(PageId(0), &mut buf).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn file_storage_roundtrip_and_reopen() {
        let dir = std::env::temp_dir().join(format!("lsdb-pager-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.bin");
        {
            let mut s = FileStorage::create(&path, 256).unwrap();
            let p0 = s.grow().unwrap();
            let _p1 = s.grow().unwrap();
            s.write_page(p0, &vec![42u8; 256]).unwrap();
        }
        {
            let s = FileStorage::open(&path, 256).unwrap();
            assert_eq!(s.num_pages(), 2);
            let mut buf = vec![0u8; 256];
            s.read_page(PageId(0), &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == 42));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_storage_read_past_end_is_an_error() {
        let dir = std::env::temp_dir().join(format!("lsdb-pager-test2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.bin");
        let s = FileStorage::create(&path, 256).unwrap();
        let mut buf = vec![0u8; 256];
        let e = s.read_page(PageId(0), &mut buf).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_store_file_reports_invalid_data() {
        let dir = std::env::temp_dir().join(format!("lsdb-pager-test3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.bin");
        {
            let mut s = FileStorage::create(&path, 256).unwrap();
            let p = s.grow().unwrap();
            s.write_page(p, &[1u8; 256]).unwrap();
        }
        // Chop the file mid-page: open() must refuse with a usable error.
        let f = File::options().write(true).open(&path).unwrap();
        f.set_len(100).unwrap();
        drop(f);
        let e = FileStorage::open(&path, 256).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("not a multiple"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v1_headerless_store_is_rejected_with_structured_error() {
        // A format-v1 store had no superblock: page 0 was data. Opening
        // one with v2 code must fail cleanly at open, not decode garbage.
        let dir = std::env::temp_dir().join(format!("lsdb-pager-test4-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.bin");
        std::fs::write(&path, vec![0u8; 512]).unwrap(); // two v1 "pages"
        let e = FileStorage::open(&path, 256).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("superblock"), "{e}");
        assert!(e.to_string().contains("v1"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_format_version_is_rejected() {
        let dir = std::env::temp_dir().join(format!("lsdb-pager-test5-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.bin");
        {
            let mut s = FileStorage::create(&path, 256).unwrap();
            s.grow().unwrap();
        }
        // Stamp a future version into the superblock.
        let f = File::options().write(true).open(&path).unwrap();
        f.write_all_at(&99u16.to_le_bytes(), 8).unwrap();
        drop(f);
        let e = FileStorage::open(&path, 256).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("version 99"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn page_size_mismatch_is_rejected() {
        let dir = std::env::temp_dir().join(format!("lsdb-pager-test6-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.bin");
        {
            let mut s = FileStorage::create(&path, 256).unwrap();
            s.grow().unwrap();
            s.grow().unwrap();
            s.grow().unwrap();
        }
        // 1024 divides the 4-page file length evenly, so only the
        // superblock's recorded page size catches the mismatch.
        let e = FileStorage::open(&path, 1024).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("created with page size 256"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
