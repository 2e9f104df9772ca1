//! Matrix-allocation counter for no-alloc regression tests.
//!
//! Every code path in this crate that takes a fresh heap buffer for matrix
//! data calls `record`; hot-path tests reset the counter, run a
//! steady-state window, and assert it stayed at zero. The counter is
//! thread-local, which is exactly right for those tests: the training loop
//! under test runs on one thread, and the kernel pool never allocates.

use std::cell::Cell;

thread_local! {
    static MATRIX_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Resets this thread's matrix-allocation counter to zero.
pub fn reset() {
    MATRIX_ALLOCS.with(|c| c.set(0));
}

/// Number of matrix-data heap allocations on this thread since [`reset`].
pub fn matrix_allocs() -> u64 {
    MATRIX_ALLOCS.with(Cell::get)
}

/// Records one fresh matrix-data allocation of `len` floats; zero-length
/// "allocations" never touch the heap and are not counted (crate-internal).
#[inline]
pub(crate) fn record_len(len: usize) {
    if len > 0 {
        MATRIX_ALLOCS.with(|c| c.set(c.get() + 1));
    }
}

/// Records a fresh numeric-plane allocation made *outside* this crate (the
/// flat parameter/gradient/moment planes in `pitot-nn`, and the tables of
/// inner products `pitot`'s lookup reads fill), so the zero-alloc
/// assertions cover the full optimizer step — forward, backward, and the
/// fused update — and a warm read, not just the matrix products.
/// Zero-length buffers are not counted.
#[inline]
pub fn record_buffer(len: usize) {
    record_len(len);
}

#[cfg(test)]
mod tests {
    use crate::Matrix;

    #[test]
    fn constructors_and_clones_are_counted() {
        super::reset();
        let m = Matrix::zeros(4, 4);
        let _c = m.clone();
        let _e = Matrix::eye(2);
        assert_eq!(super::matrix_allocs(), 3);
        super::reset();
        assert_eq!(super::matrix_allocs(), 0);
    }

    #[test]
    fn in_place_ops_do_not_count() {
        let mut m = Matrix::zeros(8, 8);
        super::reset();
        m.fill(1.5);
        m.scale(2.0);
        m.map_inplace(|v| v + 1.0);
        m.resize(4, 4); // shrink reuses the buffer
        assert_eq!(super::matrix_allocs(), 0);
    }
}
