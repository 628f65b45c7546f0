//! What the benchmark reads from the operating system about its own process:
//! CPU time, resident memory, and heap allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

const M_ARENA_MAX: i32 = -8;

/// Make every thread allocate from one arena. glibc otherwise gives each
/// thread its own, and which of them grow depends on which worker thread wins
/// which request: peak resident memory of the HTTP workload then reads 14 or
/// 16.3 MiB from run to run. Call before any thread is spawned.
pub fn use_one_heap_arena() {
    // SAFETY: `mallopt` takes two integers and only changes allocator
    // settings; M_ARENA_MAX is a parameter glibc defines.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User plus system CPU time of every thread of this process, in seconds. The
/// same quantity as utime + stime in `/proc/self/stat`, read from the clock
/// that has nanosecond instead of 10 ms resolution.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout of 64-bit
    // Linux, and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A `kB` field of `/proc/self/status`, such as `VmRSS` or `VmHWM`.
fn status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_status_kib(&status, field)
}

fn parse_status_kib(status: &str, field: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Resident set size now, in KiB; 0 where `/proc` is absent.
pub fn rss_kib() -> u64 {
    status_kib("VmRSS").unwrap_or(0)
}

/// Return freed heap pages to the kernel, so that what set-up allocated and
/// dropped does not count as resident in the timed phase.
pub fn trim_heap() {
    // SAFETY: `malloc_trim` takes no pointers and may be called at any time;
    // the System allocator this program wraps is glibc's malloc.
    unsafe {
        malloc_trim(0);
    }
}

/// Peak resident memory of one phase. The kernel's high-water mark covers the
/// whole life of the process, set-up transients included, so it is reset when
/// the phase starts; where that is not allowed, the per-block readings of the
/// resident size stand in.
pub struct PeakRss {
    hwm_was_reset: bool,
}

impl PeakRss {
    /// Start a phase: writing `5` to `clear_refs` sets VmHWM to the current
    /// resident size.
    pub fn start() -> PeakRss {
        PeakRss {
            hwm_was_reset: std::fs::write("/proc/self/clear_refs", "5").is_ok(),
        }
    }

    /// Peak of the phase in MiB, given the resident size read at every block
    /// edge.
    pub fn peak_mib(&self, block_rss_kib: impl Iterator<Item = u64>) -> f64 {
        peak_kib(
            self.hwm_was_reset.then(|| status_kib("VmHWM")).flatten(),
            block_rss_kib,
        ) as f64
            / 1024.0
    }
}

fn peak_kib(hwm_since_reset: Option<u64>, block_rss_kib: impl Iterator<Item = u64>) -> u64 {
    hwm_since_reset.unwrap_or_else(|| block_rss_kib.max().unwrap_or(0))
}

/// The System allocator, counting calls and bytes while [`count_allocations`]
/// is on. Off, it costs one relaxed load per call.
pub struct CountingAllocator;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is passed through to `System` unchanged, which upholds
// the `GlobalAlloc` contract; the counters are statistics that publish nothing.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Run `f` with allocation counting on; returns its result, the number of
/// allocations every thread made meanwhile, and their bytes.
pub fn count_allocations<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let before = (
        ALLOCATIONS.load(Ordering::Relaxed),
        ALLOCATED_BYTES.load(Ordering::Relaxed),
    );
    COUNTING.store(true, Ordering::Relaxed);
    let result = f();
    COUNTING.store(false, Ordering::Relaxed);
    (
        result,
        ALLOCATIONS.load(Ordering::Relaxed) - before.0,
        ALLOCATED_BYTES.load(Ordering::Relaxed) - before.1,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let status = "Name:\tperf\nVmHWM:\t  123456 kB\nVmRSS:\t   99000 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM"), Some(123456));
        assert_eq!(parse_status_kib(status, "VmRSS"), Some(99000));
        assert_eq!(parse_status_kib(status, "VmSwap"), None);
        assert_eq!(parse_status_kib(status, "Vm"), None);
    }

    #[test]
    fn peak_falls_back_to_block_readings_when_the_mark_cannot_be_reset() {
        let blocks = [90_000u64, 101_000, 99_500];
        assert_eq!(peak_kib(Some(104_000), blocks.into_iter()), 104_000);
        assert_eq!(peak_kib(None, blocks.into_iter()), 101_000);
        assert_eq!(peak_kib(None, std::iter::empty()), 0);
    }

    #[test]
    fn the_process_clock_advances_with_work() {
        let before = process_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(process_cpu_s() > before, "{x}");
    }
}
