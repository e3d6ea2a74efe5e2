//! Small runtime helpers shared across otherwise-unrelated layers, so e.g.
//! the matching engine does not have to depend on the GP crate to reuse a
//! thread-count resolver.

#![warn(unreachable_pub)]

pub mod channel;
pub mod epoch;

pub use epoch::{EpochCell, EpochReader};

/// Resolves a thread-count configuration value: `0` means "use every
/// available core", anything else is taken literally.  Shared by the GP
/// engine and the matching engine so the `available_parallelism` fallback
/// logic lives in exactly one place.
pub fn resolve_threads(configured: usize) -> usize {
    if configured == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        configured
    }
}

/// Maps `f` over `items` on up to `threads` workers (0 = all cores),
/// returning the results **in input order**.
///
/// The items are split into one contiguous chunk per worker, so the mapping
/// of item to worker — and therefore the result order — is a pure function
/// of `items.len()` and the resolved thread count, never of scheduling.
/// Callers that need *bit-identical* results across thread counts only have
/// to make `f` itself deterministic and free of cross-item state: the
/// reduction here is ordered by construction.
///
/// Small inputs (fewer than two items per worker) are mapped inline to avoid
/// paying thread spawns for no parallelism.
pub fn parallel_ordered_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = resolve_threads(threads).max(1);
    if threads <= 1 || items.len() < 2 * threads {
        return items.iter().map(f).collect();
    }
    let chunk_size = items.len().div_ceil(threads);
    let mut results: Vec<Vec<R>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_size)
            .map(|chunk| {
                let f = &f;
                scope.spawn(move || chunk.iter().map(f).collect::<Vec<R>>())
            })
            .collect();
        for handle in handles {
            results.push(handle.join().expect("parallel map worker panicked"));
        }
    });
    results.into_iter().flatten().collect()
}

/// The mutable sibling of [`parallel_ordered_map`]: maps `f` over disjoint
/// `&mut` items on up to `threads` workers (0 = all cores), returning the
/// results **in input order**.  `f` also receives the item's index so a
/// worker knows *which* disjoint partition it mutates.
///
/// The determinism contract is the same — one contiguous chunk per worker,
/// ordered reduction — but the inline cutoff differs: callers hand this
/// function one item per *shard* (e.g. per-shard ingest batches), so a
/// handful of items is the common case and still worth spawning for, not a
/// degenerate one.  Only trivial inputs (one item, or one thread) run
/// inline.
pub fn parallel_ordered_map_mut<T, R, F>(items: &mut [T], threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let threads = resolve_threads(threads).max(1);
    if threads <= 1 || items.len() <= 1 {
        return items
            .iter_mut()
            .enumerate()
            .map(|(index, item)| f(index, item))
            .collect();
    }
    let chunk_size = items.len().div_ceil(threads);
    let mut results: Vec<Vec<R>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks_mut(chunk_size)
            .enumerate()
            .map(|(chunk_index, chunk)| {
                let f = &f;
                let base = chunk_index * chunk_size;
                scope.spawn(move || {
                    chunk
                        .iter_mut()
                        .enumerate()
                        .map(|(offset, item)| f(base + offset, item))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        for handle in handles {
            results.push(handle.join().expect("parallel map worker panicked"));
        }
    });
    results.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_counts_pass_through() {
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
    }

    #[test]
    fn zero_resolves_to_available_parallelism() {
        let resolved = resolve_threads(0);
        assert!(resolved >= 1);
        let expected = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(resolved, expected);
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<u64> = (0..103).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3).collect();
        for threads in [1, 2, 3, 8] {
            assert_eq!(
                parallel_ordered_map(&items, threads, |&x| x * 3),
                expected,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn parallel_map_handles_tiny_and_empty_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_ordered_map(&empty, 4, |&x| x).is_empty());
        assert_eq!(parallel_ordered_map(&[7u32], 4, |&x| x + 1), vec![8]);
    }
}
