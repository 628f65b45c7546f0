//! Minimal scoped-thread parallelism helpers.
//!
//! MNN's kernels use multi-threading as one of the "schedule" optimizations
//! (Section 3.3). We deliberately avoid a heavyweight runtime: a scoped
//! `std::thread` fan-out over contiguous index ranges is enough for the data-parallel
//! loops in GEMM, Winograd tiling and convolution, and keeps the engine lightweight
//! (one of the paper's stated goals).

/// Split `count` items into at most `threads` contiguous chunks and run `body` on
/// each chunk, in parallel when `threads > 1`.
///
/// `body` receives the half-open range `[start, end)` it is responsible for. The
/// function blocks until all chunks complete. When `threads <= 1` or `count` is
/// small the body is run inline on the calling thread, avoiding spawn overhead.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// let total = AtomicUsize::new(0);
/// mnn_kernels::parallel::parallel_for(4, 1000, |start, end| {
///     total.fetch_add(end - start, Ordering::Relaxed);
/// });
/// assert_eq!(total.load(Ordering::Relaxed), 1000);
/// ```
pub fn parallel_for<F>(threads: usize, count: usize, body: F)
where
    F: Fn(usize, usize) + Sync,
{
    // An index range is a chunk of `count` zero-sized items, which occupy no
    // memory: one partitioning rule serves every helper here.
    let mut items = vec![(); count];
    parallel_chunks_mut(threads, &mut items, 1, |start, chunk| {
        body(start, start + chunk.len())
    });
}

/// Like [`parallel_for`], but hands each worker a disjoint mutable slice of `data`
/// split along the first axis in chunks of `stride` elements.
///
/// This is the pattern used by kernels that write disjoint output rows/blocks
/// concurrently (e.g. one output row of a GEMM per task).
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of `stride`.
pub fn parallel_chunks_mut<T, F>(threads: usize, data: &mut [T], stride: usize, body: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    parallel_chunks_mut_scratch(threads, data, stride, &mut [0u8; 0], 0, |row, chunk, _| {
        body(row, chunk)
    });
}

/// [`parallel_chunks_mut`] for bodies that need working memory: each worker
/// also gets its own `per_worker` elements of `scratch`, so the workers share
/// one caller-provided buffer instead of allocating one each.
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of `stride`, or if `scratch` holds
/// fewer than `per_worker` elements for each of the (at most `threads`) workers.
pub fn parallel_chunks_mut_scratch<T, S, F>(
    threads: usize,
    data: &mut [T],
    stride: usize,
    scratch: &mut [S],
    per_worker: usize,
    body: F,
) where
    T: Send,
    S: Send,
    F: Fn(usize, &mut [T], &mut [S]) + Sync,
{
    assert_eq!(
        data.len() % stride,
        0,
        "data length must be a multiple of stride"
    );
    let count = data.len() / stride;
    if count == 0 {
        return;
    }
    let threads = threads.max(1).min(count);
    if threads == 1 {
        body(0, data, &mut scratch[..per_worker]);
        return;
    }
    // Balanced partitioning: the first `count % threads` workers get one extra
    // row, so row counts differ by at most 1 and every thread gets work.
    // (A `div_ceil`-sized share would leave threads idle: count=9, threads=8
    // used to produce five shares of 2,2,2,2,1 with three threads unused.)
    let base = count / threads;
    let rem = count % threads;
    std::thread::scope(|scope| {
        let mut rest = data;
        let mut spare = scratch;
        let mut row = 0usize;
        for t in 0..threads {
            let take_rows = base + usize::from(t < rem);
            let (head, tail) = rest.split_at_mut(take_rows * stride);
            let (mine, others) = spare.split_at_mut(per_worker);
            let body = &body;
            let start_row = row;
            scope.spawn(move || body(start_row, head, mine));
            row += take_rows;
            rest = tail;
            spare = others;
        }
    });
}

/// Number of worker threads to use by default: the number of available CPUs, capped
/// at 4 to mirror the mobile-CPU settings used throughout the paper's evaluation
/// (2- and 4-thread configurations).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn covers_every_index_exactly_once() {
        for threads in [1, 2, 3, 7] {
            for count in [0, 1, 5, 64, 1001] {
                let hits = (0..count).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>();
                parallel_for(threads, count, |s, e| {
                    for i in s..e {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
                assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
            }
        }
    }

    #[test]
    fn partitioning_is_balanced_and_uses_every_thread() {
        // Adversarial (count, threads) pairs, including the div_ceil failure
        // case count=9, threads=8 (formerly 5 chunks with 3 threads idle).
        for (count, threads) in [
            (9, 8),
            (10, 4),
            (5, 7),
            (7, 7),
            (1000, 3),
            (3, 2),
            (17, 4),
            (64, 5),
        ] {
            let chunks = std::sync::Mutex::new(Vec::new());
            parallel_for(threads, count, |s, e| {
                chunks.lock().unwrap().push((s, e));
            });
            let mut chunks = chunks.into_inner().unwrap();
            chunks.sort_unstable();
            let expected_chunks = threads.min(count);
            assert_eq!(
                chunks.len(),
                expected_chunks,
                "count={count} threads={threads}: expected {expected_chunks} chunks, got {chunks:?}"
            );
            // Exact, contiguous coverage.
            let mut next = 0;
            for &(s, e) in &chunks {
                assert_eq!(
                    s, next,
                    "gap/overlap at {s} (count={count} threads={threads})"
                );
                assert!(e > s);
                next = e;
            }
            assert_eq!(next, count);
            // Balanced: sizes differ by at most 1.
            let sizes: Vec<usize> = chunks.iter().map(|&(s, e)| e - s).collect();
            let min = sizes.iter().min().unwrap();
            let max = sizes.iter().max().unwrap();
            assert!(
                max - min <= 1,
                "unbalanced sizes {sizes:?} for count={count} threads={threads}"
            );
        }
    }

    #[test]
    fn chunks_mut_partitioning_is_balanced() {
        for (rows, threads, stride) in [(9, 8, 3), (10, 4, 2), (5, 7, 1), (1000, 3, 4)] {
            let mut data = vec![0usize; rows * stride];
            let chunks = std::sync::Mutex::new(Vec::new());
            parallel_chunks_mut(threads, &mut data, stride, |start_row, slice| {
                chunks
                    .lock()
                    .unwrap()
                    .push((start_row, slice.len() / stride));
            });
            let mut chunks = chunks.into_inner().unwrap();
            chunks.sort_unstable();
            assert_eq!(chunks.len(), threads.min(rows));
            let mut next = 0;
            for &(start, len) in &chunks {
                assert_eq!(start, next);
                assert!(len > 0);
                next += len;
            }
            assert_eq!(next, rows);
            let sizes: Vec<usize> = chunks.iter().map(|&(_, len)| len).collect();
            assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
        }
    }

    #[test]
    fn chunks_mut_writes_disjoint_rows() {
        let mut data = vec![0usize; 12 * 3];
        parallel_chunks_mut(4, &mut data, 3, |start_row, rows| {
            for (i, chunk) in rows.chunks_mut(3).enumerate() {
                for v in chunk.iter_mut() {
                    *v = start_row + i;
                }
            }
        });
        for (row, chunk) in data.chunks(3).enumerate() {
            assert!(chunk.iter().all(|&v| v == row));
        }
    }

    #[test]
    fn chunks_mut_scratch_gives_each_worker_its_own_slice() {
        for threads in [1, 3, 8] {
            let mut data = vec![0usize; 10 * 2];
            let mut scratch = vec![usize::MAX; threads * 4];
            parallel_chunks_mut_scratch(
                threads,
                &mut data,
                2,
                &mut scratch,
                4,
                |row, rows, mine| {
                    assert_eq!(mine.len(), 4);
                    mine.fill(row);
                    for value in rows.iter_mut() {
                        *value = mine[3];
                    }
                },
            );
            // Every row of a worker's share carries that worker's first row.
            assert!(data
                .chunks(2)
                .enumerate()
                .all(|(r, c)| c[0] <= r && c[0] == c[1]));
            assert_eq!(data[0], 0);
        }
    }

    #[test]
    #[should_panic(expected = "multiple of stride")]
    fn chunks_mut_rejects_misaligned_data() {
        let mut data = vec![0u8; 10];
        parallel_chunks_mut(2, &mut data, 3, |_, _| {});
    }

    #[test]
    fn default_threads_is_positive_and_capped() {
        let t = default_threads();
        assert!(t >= 1);
        assert!(t <= 4);
    }

    #[test]
    fn single_thread_runs_inline() {
        let touched = AtomicUsize::new(0);
        parallel_for(1, 10, |s, e| {
            assert_eq!((s, e), (0, 10));
            touched.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(touched.load(Ordering::Relaxed), 1);
    }
}
