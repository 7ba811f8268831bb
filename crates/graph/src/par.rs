//! A tiny shared-nothing parallel-map helper used across the workspace.
//!
//! The workspace's dominant parallel pattern is "fan a slice out over worker
//! threads that own disjoint blocks".  This module keeps that scaffold in one
//! place so chunk sizing and panic propagation are fixed once.  Its users,
//! each filling one output slot per item from shared read-only inputs:
//!
//! * `rtr_cover`: the per-cluster double trees and routers of
//!   `LevelCover::build_trees`;
//! * `rtr_namedep`: the per-landmark columns of the landmark column pass
//!   (`LandmarkSweep::finish`);
//! * `rtr_core`: the per-node §2 and §3 tables of `StretchSix` and
//!   `ExStretch`;
//! * `rtr_metric`: the rows of the dense `DistanceMatrix`.

use std::panic::resume_unwind;

/// Runs `f(start_index, block)` over disjoint blocks of `slice`, one scoped
/// worker thread per block, sized to the available parallelism; with one
/// CPU (or one element) the single block runs on the calling thread.
///
/// `start_index` is the index of `block[0]` within `slice`, so workers can
/// recover the global position of each element.  Blocks are contiguous and
/// cover the slice exactly; with `t` threads there are at most `t` blocks.
/// Determinism is the caller's property: as long as `f` writes only through
/// its own block (which the borrow checker enforces) and reads only shared
/// immutable state, the result is bit-identical for any thread count.
///
/// A panic in any worker is propagated to the caller with its original
/// payload after all workers have joined.
pub fn par_blocks_mut<T, F>(slice: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = slice.len();
    if n == 0 {
        return;
    }
    let threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1).min(n);
    if threads == 1 {
        // One block: a worker thread would only add a spawn, and an
        // allocator arena for what the block allocates.
        f(0, slice);
        return;
    }
    let chunk = n.div_ceil(threads);
    let result = crossbeam::scope(|scope| {
        let workers: Vec<_> = slice
            .chunks_mut(chunk)
            .enumerate()
            .map(|(ci, block)| {
                let f = &f;
                scope.spawn(move |_| f(ci * chunk, block))
            })
            .collect();
        // Joining every worker keeps the first panic's own payload; a worker
        // left for the scope to join would surface as "a scoped thread
        // panicked".
        let mut first_panic = None;
        for worker in workers {
            if let Err(payload) = worker.join() {
                first_panic.get_or_insert(payload);
            }
        }
        first_panic
    });
    match result {
        Ok(None) => {}
        Ok(Some(payload)) | Err(payload) => resume_unwind(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_element_exactly_once_with_global_indices() {
        let mut v = vec![0usize; 1037];
        par_blocks_mut(&mut v, |start, block| {
            for (offset, slot) in block.iter_mut().enumerate() {
                *slot = start + offset;
            }
        });
        assert!(v.iter().enumerate().all(|(i, &x)| i == x));
    }

    #[test]
    fn empty_slice_is_a_noop() {
        let mut v: Vec<u8> = Vec::new();
        par_blocks_mut(&mut v, |_, _| panic!("must not run"));
    }

    #[test]
    fn worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            let mut v = vec![0u8; 16];
            par_blocks_mut(&mut v, |_, _| panic!("worker failed"));
        });
        let payload = result.expect_err("a worker panicked");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker failed"), "payload replaced");
    }
}
