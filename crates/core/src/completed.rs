//! Where the prediction kernel finds its inner products.
//!
//! Every term of the residual `ŷ = ⟨wᵢ, pⱼ⟩ + Σₜ ⟨wᵢ, vₛ⁽ᵗ⁾⟩ · act(Σₖ ⟨wₖ,
//! v_g⁽ᵗ⁾⟩)` (paper Secs 3.3–3.4) is one workload embedding against one
//! platform embedding: an entry of the completed matrix. The kernel
//! ([`crate::PitotModel`]'s `predict_obs`) reads those entries from a
//! [`Source`]:
//!
//! - [`Computed`] takes one length-r dot product of the tower outputs per
//!   entry. Training, observation scoring and the fleet's reads use it:
//!   their rows spread over every platform.
//! - [`LookedUp`] reads a tower cache's table of the platform and head,
//!   filled on first use with the same `dot` calls on the same slices.
//!   Placement reads use it: a decision's rows fall on a few site
//!   platforms, so one table serves thousands of decisions.
//!
//! The kernel sums the entries in the same order whichever source it reads,
//! so a looked-up prediction is bitwise the computed one.

use pitot_linalg::{dot, Matrix};
use std::cell::Cell;
use std::sync::OnceLock;

/// The entries of one (platform, head): the inner products a row on that
/// platform reads when that head scores it.
pub(crate) trait Entries {
    /// `⟨wᵢ, pⱼ⟩`: workload `i` on the platform.
    fn base(&self, i: usize) -> f32;
    /// `⟨wᵢ, vₛ⁽ᵗ⁾⟩`: workload `i`'s susceptibility to type-`t`
    /// interference on the platform.
    fn susceptibility(&self, i: usize, t: usize) -> f32;
    /// `⟨wₖ, v_g⁽ᵗ⁾⟩`: interferer `k`'s type-`t` magnitude on the platform.
    fn magnitude(&self, k: usize, t: usize) -> f32;
}

/// Where the kernel finds its inner products.
pub(crate) trait Source: Sync {
    /// Rows of the workload tower output: the catalog a workload or an
    /// interferer index must fall in.
    fn workloads(&self) -> usize;
    /// Rows of the platform tower output.
    fn platforms(&self) -> usize;
    /// The entries of platform `j` under head `h`.
    fn entries(&self, j: usize, h: usize) -> impl Entries + '_;
}

/// Inner products computed from the tower outputs, one length-r dot
/// product per entry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Computed<'a> {
    /// Workload tower output, `Nw × r·n_heads`.
    w: &'a Matrix,
    /// Platform tower output, `Np × r·(1+2s)`.
    p_full: &'a Matrix,
    r: usize,
    s: usize,
}

impl<'a> Computed<'a> {
    /// Reads tower outputs of embedding width `r` and `s` interference
    /// types.
    pub(crate) fn new(w: &'a Matrix, p_full: &'a Matrix, r: usize, s: usize) -> Self {
        Self { w, p_full, r, s }
    }

    /// Every workload's entries of platform `j` under head `h`, in catalog
    /// order, [`stride`] per workload: the base term, then the `s`
    /// susceptibilities, then the `s` magnitudes. Counted as a fill on this
    /// thread ([`tables_filled`]) and as a buffer in
    /// [`pitot_linalg::alloc_count`].
    fn table(&self, j: usize, h: usize) -> Box<[f32]> {
        let e = self.entries(j, h);
        let mut table = Vec::with_capacity(self.workloads() * stride(self.s));
        for i in 0..self.workloads() {
            table.push(e.base(i));
            table.extend((0..self.s).map(|t| e.susceptibility(i, t)));
            table.extend((0..self.s).map(|t| e.magnitude(i, t)));
        }
        FILLED.with(|n| n.set(n.get() + 1));
        pitot_linalg::alloc_count::record_buffer(table.len());
        table.into_boxed_slice()
    }
}

impl Source for Computed<'_> {
    fn workloads(&self) -> usize {
        self.w.rows()
    }

    fn platforms(&self) -> usize {
        self.p_full.rows()
    }

    fn entries(&self, j: usize, h: usize) -> impl Entries + '_ {
        ComputedEntries {
            w: self.w,
            p_row: self.p_full.row(j),
            head: h * self.r,
            r: self.r,
            s: self.s,
        }
    }
}

/// [`Computed`] entries of one (platform, head).
struct ComputedEntries<'a> {
    w: &'a Matrix,
    /// The platform's row of the platform tower output.
    p_row: &'a [f32],
    /// First column of the head's block of a workload row.
    head: usize,
    r: usize,
    s: usize,
}

impl ComputedEntries<'_> {
    /// Workload `i`'s embedding under the head.
    fn w(&self, i: usize) -> &[f32] {
        &self.w.row(i)[self.head..self.head + self.r]
    }

    /// Block `b` of the platform row: `pⱼ`, then the `s` blocks of `vₛ`,
    /// then the `s` of `v_g`.
    fn p(&self, b: usize) -> &[f32] {
        &self.p_row[b * self.r..(b + 1) * self.r]
    }
}

impl Entries for ComputedEntries<'_> {
    fn base(&self, i: usize) -> f32 {
        dot(self.w(i), self.p(0))
    }

    fn susceptibility(&self, i: usize, t: usize) -> f32 {
        dot(self.w(i), self.p(1 + t))
    }

    fn magnitude(&self, k: usize, t: usize) -> f32 {
        dot(self.w(k), self.p(1 + self.s + t))
    }
}

/// Floats per workload in a table: the base term and two per interference
/// type.
fn stride(s: usize) -> usize {
    1 + 2 * s
}

/// One (platform, head) table, filled on first use.
type Slot = OnceLock<Box<[f32]>>;

/// A tower cache's memo of the completed matrix: one table per (platform,
/// head), each holding [`stride`] entries per workload (1,260 B at 63
/// workloads and s = 2), filled the first time a lookup read scores a row
/// of that platform with that head. The slots themselves are allocated on
/// the first lookup read, so a cache only the direct kernel reads holds
/// none. Filling is thread-safe: the first reader of a slot fills it, and
/// any other waits for that table.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tables(OnceLock<Box<[Slot]>>);

impl Tables {
    /// A lookup source over the tables of `computed`'s towers, of a model
    /// with `n_heads` heads.
    ///
    /// # Panics
    ///
    /// Panics if the slots were laid out for another head count.
    pub(crate) fn looked_up<'a>(&'a self, computed: Computed<'a>, n_heads: usize) -> LookedUp<'a> {
        let n = computed.platforms() * n_heads;
        let slots = self
            .0
            .get_or_init(|| (0..n).map(|_| OnceLock::new()).collect());
        assert_eq!(
            slots.len(),
            n,
            "tables laid out for another head count than {n_heads}"
        );
        LookedUp {
            computed,
            slots,
            n_heads,
        }
    }
}

/// Inner products looked up in a tower cache's [`Tables`], each table
/// filled on first use by [`Computed`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct LookedUp<'a> {
    computed: Computed<'a>,
    /// `platforms × n_heads` slots, platform-major.
    slots: &'a [Slot],
    n_heads: usize,
}

impl Source for LookedUp<'_> {
    fn workloads(&self) -> usize {
        self.computed.workloads()
    }

    fn platforms(&self) -> usize {
        self.computed.platforms()
    }

    fn entries(&self, j: usize, h: usize) -> impl Entries + '_ {
        // A head past the last would read the next platform's slot.
        assert!(
            h < self.n_heads,
            "head {h} of a {}-head model",
            self.n_heads
        );
        let table = self.slots[j * self.n_heads + h].get_or_init(|| self.computed.table(j, h));
        TableEntries {
            table,
            s: self.computed.s,
        }
    }
}

/// [`LookedUp`] entries of one (platform, head): its table.
struct TableEntries<'a> {
    table: &'a [f32],
    s: usize,
}

impl Entries for TableEntries<'_> {
    fn base(&self, i: usize) -> f32 {
        self.table[i * stride(self.s)]
    }

    fn susceptibility(&self, i: usize, t: usize) -> f32 {
        self.table[i * stride(self.s) + 1 + t]
    }

    fn magnitude(&self, k: usize, t: usize) -> f32 {
        self.table[k * stride(self.s) + 1 + self.s + t]
    }
}

thread_local! {
    static FILLED: Cell<u64> = const { Cell::new(0) };
}

/// Completed-matrix tables filled on this thread so far, over every tower
/// cache: a lookup read ([`crate::TrainedPitot::lookup_log_heads_into`])
/// fills one the first time it scores a row of a platform with a head. A
/// read that computes its inner products fills none. Tests use the count
/// to pin which reads build tables; like
/// [`pitot_linalg::alloc_count`], it is per thread.
pub fn tables_filled() -> u64 {
    FILLED.with(Cell::get)
}
