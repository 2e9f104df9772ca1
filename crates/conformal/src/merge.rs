//! Mergeable calibration-window summaries for multi-replica serving.
//!
//! A fleet of edge sites feeding one conformal predictor cannot ship every
//! observation to a central calibrator — but it does not have to. Under
//! exchangeable splits of the calibration set (the assumption conformalized
//! matrix completion already makes, Gui et al. 2023), the union of
//! per-replica calibration windows is itself a valid calibration set, so a
//! coordinator only needs each replica's *sorted score summary* to fit a
//! fleet-level [`crate::PooledConformal`].
//!
//! [`MergeableWindow`] is that summary: a state-based CRDT of sorted-run
//! segments keyed by replica id. Each segment carries the replica's
//! [`WindowedScores::clock`] — the count of observations ever pushed — and
//! merging keeps, per replica, the segment with the larger clock. Because a
//! window's contents are a pure function of its stream prefix, a newer
//! snapshot *fully supersedes* an older one from the same replica: entries
//! evicted between two snapshots simply do not appear in the newer segment,
//! so eviction needs **no tombstones**. The merge is therefore
//! commutative, associative, and idempotent (property-tested below), and a
//! coordinator can combine summaries in any order, at any cadence, over any
//! gossip topology, and always converge to the same fleet state.
//!
//! # Fitting from the runs
//!
//! A pooled fit needs one order statistic per `(pool, head)`: the
//! `⌈(n+1)(1−ε)⌉`-th score of the union. A merged summary answers that
//! directly — it implements [`CalibrationView`] by rank-selecting across
//! its replica runs, walking them from the nearer end of the union with no
//! copy — so [`crate::PooledConformal::fit_scored`] takes the merged view
//! itself and the fleet fit never materialises the union.
//!
//! # Kept heads
//!
//! A run holds the scores of the heads its window keeps
//! ([`WindowedScores::heads`]), not necessarily every head of the model,
//! and carries their model head ids. A summary's
//! [`MergeableWindow::n_heads`] is the model's head count, and every lookup
//! names a head by its model head id, so a fit reads a kept head's runs
//! exactly as it would read that column of all-heads runs. A run that does
//! not keep a head a fit reads panics naming the head: a receiver screens
//! every run's head list ([`MergeableWindow::replica_heads`]) before a fit
//! meets it.
//!
//! [`MergeableWindow::to_scored`] is the oracle for that shortcut: it
//! lowers the summary to a [`ScoredCalibration`] via linear merges of the
//! pre-sorted segments, **bitwise identical** to a from-scratch
//! `ScoredCalibration::new` on the union of the live replica windows, and
//! the fit from the runs equals the fit on `to_scored()` bit for bit (both
//! property-tested below).
//!
//! Runs are immutable once snapshotted and shared behind [`Arc`]:
//! [`MergeableWindow::absorb`], [`MergeableWindow::merge`], and cloning a
//! summary copy pointers, not scores. The tampering hooks copy a shared
//! run before editing it, so corrupting one summary never touches another.
//!
//! # Summary integrity
//!
//! A summary crossing a trust boundary (replica → coordinator, gossip peer
//! → gossip peer) is *telemetry*, and telemetry can lie: a Byzantine or
//! corrupted replica can ship NaN scores, unsorted runs, or a cardinality
//! that disagrees with its segments. Every run therefore carries a checksum
//! over its full structural content in 32-bit words, fixed at snapshot
//! time: FNV-1a-64 steps, with the layout words on one serial chain and the
//! score words spread over eight independent lanes, so the digest runs at
//! multiply throughput rather than multiply latency. The sender only seals;
//! the checks belong to the receiver. [`MergeableWindow::verify`] checks
//! structure, scans every score run for non-finite scores and descents,
//! and re-derives the digest, naming the offending replica and fault class
//! on the first violation. A receiver that verifies before
//! [`MergeableWindow::absorb`] confines a bogus summary to its sender — the
//! CRDT never sees it. The checksum covers a run's kept head ids but not
//! the replica id it is keyed by, so a receiver also checks who a summary
//! speaks for, and that its runs keep the heads the receiver's fits read.

use crate::scores::{kept_column, CalibrationView, ScoredCalibration, WindowedScores};
use pitot_linalg::quantile_higher_rank;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One replica's live window contents at snapshot time: pre-sorted global
/// and per-pool score runs of the window's kept heads plus the eviction
/// clock that orders snapshots.
#[derive(Debug, Clone, PartialEq)]
struct ReplicaRun {
    /// The replica window's [`WindowedScores::clock`] at snapshot time.
    clock: u64,
    /// Live observations in the snapshot.
    n: usize,
    /// The model head ids the window keeps, ascending: the order of the
    /// per-head runs below.
    heads: Vec<usize>,
    /// Per kept head: the replica's live scores, ascending.
    global: Vec<Vec<f32>>,
    /// Pool key → per-kept-head ascending scores (only pools with live
    /// entries).
    pools: BTreeMap<usize, Vec<Vec<f32>>>,
    /// The lane digest of clock, cardinality, kept head ids, pool layout,
    /// and every score bit, fixed at snapshot time (see
    /// [`ReplicaRun::digest`]).
    checksum: u64,
}

/// The integrity fault classes [`MergeableWindow::verify`] detects, most
/// specific first: structural checks run before the digest comparison, so
/// a fault is named by *what* is wrong, not merely that bits changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SummaryFault {
    /// A run's stated cardinality disagrees with its segments (kept head
    /// ids that are not ascending ids of the model's heads, head counts,
    /// per-head lengths, pool totals, or an empty pool key).
    CardinalityMismatch,
    /// A run contains a NaN or infinite score.
    NonFiniteScore,
    /// A run's scores are not ascending under `total_cmp`.
    UnsortedRun,
    /// The run's content does not reproduce its stored checksum.
    ChecksumMismatch,
}

impl std::fmt::Display for SummaryFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::CardinalityMismatch => "cardinality mismatch",
            Self::NonFiniteScore => "non-finite score",
            Self::UnsortedRun => "unsorted run",
            Self::ChecksumMismatch => "checksum mismatch",
        })
    }
}

/// A failed [`MergeableWindow::verify`]: which replica's run is bad and how
/// — the audit record a coordinator stores when it rejects a summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SummaryError {
    /// The replica whose run failed verification.
    pub replica: u64,
    /// What was wrong with it.
    pub fault: SummaryFault,
}

impl std::fmt::Display for SummaryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "replica {} summary: {}", self.replica, self.fault)
    }
}

/// Deterministic corruption modes for [`MergeableWindow::corrupt_run`] —
/// each lands in a distinct [`SummaryFault`] class when verified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TamperMode {
    /// Overwrite one score with NaN, recomputing the checksum — the finite
    /// scan, not the digest, must catch it.
    NonFinite,
    /// Inflate the run's stated cardinality, recomputing the checksum —
    /// the structural check must catch it.
    Cardinality,
    /// Break a head's sort order by swapping its extreme scores,
    /// recomputing the checksum — the order scan must catch it.
    Unsorted,
    /// Flip bits of the stored checksum, leaving content untouched — pure
    /// bit-rot / in-flight corruption.
    Checksum,
}

/// FNV-1a-64's offset basis, the start state of every digest chain.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a-64's prime. It is odd, so multiplying by it is a bijection of
/// the 64-bit state.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// The independent chains [`ReplicaRun::digest`] spreads score words over,
/// so their multiplies overlap instead of waiting on one another.
const LANES: usize = 8;

/// One FNV-1a step: xor a 32-bit word into the state, then multiply by the
/// prime.
fn fnv_word(h: u64, w: u32) -> u64 {
    (h ^ u64::from(w)).wrapping_mul(FNV_PRIME)
}

/// Two FNV-1a steps over a `u64`, low word first.
fn fnv_wide(h: u64, v: u64) -> u64 {
    fnv_word(fnv_word(h, v as u32), (v >> 32) as u32)
}

/// The fault a received score run shows on its own: a non-finite score
/// first, else a descent under `total_cmp`.
///
/// One branch-free pass checks the order. `total_cmp` puts every
/// non-finite value outside the finite ones (negative NaNs and −∞ first,
/// +∞ and positive NaNs last), so an ascending run is finite exactly when
/// its two ends are. Only a run that descends needs a finiteness pass, to
/// name its fault.
fn run_fault(run: &[f32]) -> Option<SummaryFault> {
    let mut ascending = true;
    let mut prev = i32::MIN;
    for &s in run {
        // The integer key `f32::total_cmp` compares.
        let bits = s.to_bits() as i32;
        let key = bits ^ ((bits >> 31) as u32 >> 1) as i32;
        ascending &= prev <= key;
        prev = key;
    }
    let finite = if ascending {
        [run.first(), run.last()]
            .into_iter()
            .all(|end| end.is_none_or(|s| s.is_finite()))
    } else {
        run.iter().all(|s| s.is_finite())
    };
    match (finite, ascending) {
        (false, _) => Some(SummaryFault::NonFiniteScore),
        (true, false) => Some(SummaryFault::UnsortedRun),
        (true, true) => None,
    }
}

impl ReplicaRun {
    /// Fixes the checksum to the run's current content.
    fn reseal(&mut self) {
        self.checksum = self.digest();
    }

    /// The score runs in digest order: every global head, then each pool's
    /// heads in key order.
    fn score_runs(&self) -> impl Iterator<Item = &[f32]> {
        self.global
            .iter()
            .chain(self.pools.values().flatten())
            .map(Vec::as_slice)
    }

    /// An eight-lane FNV-1a-64 digest of the run's full structural content
    /// in 32-bit words. Each `u64` field is two words, low word first.
    ///
    /// The layout words go through one serial chain, in order: clock,
    /// stated cardinality, the kept head count and each kept head id, each
    /// global head's length, then per pool its key and each head's length. Each score's bits are one word, and
    /// score `j` of a run goes to lane `j mod 8`. The lanes carry over from
    /// run to run, so the multiplies of eight scores run side by side.
    /// Last, the lanes fold into the layout chain in lane order, by the
    /// same xor-then-multiply step.
    ///
    /// Every step is a bijection of the state it updates, and the fold is a
    /// bijection of each lane and of the layout chain, so changing any
    /// single word changes the digest. Each chain is order-sensitive, so
    /// reorders, truncations and cardinality edits change it too.
    fn digest(&self) -> u64 {
        let mut layout = fnv_wide(fnv_wide(FNV_OFFSET, self.clock), self.n as u64);
        layout = fnv_wide(layout, self.heads.len() as u64);
        for &head in &self.heads {
            layout = fnv_wide(layout, head as u64);
        }
        for head in &self.global {
            layout = fnv_wide(layout, head.len() as u64);
        }
        for (&pool, per_head) in &self.pools {
            layout = fnv_wide(layout, pool as u64);
            for head in per_head {
                layout = fnv_wide(layout, head.len() as u64);
            }
        }
        // The lanes live in eight locals, not an array: an array invites
        // the compiler to pack their multiplies into vector registers,
        // where SSE2 can only emulate a 64-bit multiply.
        let [mut l0, mut l1, mut l2, mut l3, mut l4, mut l5, mut l6, mut l7] = [FNV_OFFSET; LANES];
        for run in self.score_runs() {
            let (chunks, rest) = run.as_chunks::<LANES>();
            for &[s0, s1, s2, s3, s4, s5, s6, s7] in chunks {
                l0 = fnv_word(l0, s0.to_bits());
                l1 = fnv_word(l1, s1.to_bits());
                l2 = fnv_word(l2, s2.to_bits());
                l3 = fnv_word(l3, s3.to_bits());
                l4 = fnv_word(l4, s4.to_bits());
                l5 = fnv_word(l5, s5.to_bits());
                l6 = fnv_word(l6, s6.to_bits());
                l7 = fnv_word(l7, s7.to_bits());
            }
            let mut lanes = [l0, l1, l2, l3, l4, l5, l6, l7];
            for (lane, s) in lanes.iter_mut().zip(rest) {
                *lane = fnv_word(*lane, s.to_bits());
            }
            [l0, l1, l2, l3, l4, l5, l6, l7] = lanes;
        }
        [l0, l1, l2, l3, l4, l5, l6, l7]
            .into_iter()
            .fold(layout, |h, lane| (h ^ lane).wrapping_mul(FNV_PRIME))
    }

    /// Verification of a received run against the model's head count;
    /// returns the first fault found, most specific first. Structure comes
    /// first, then the score scans run by run in digest order (a run's
    /// non-finite score before its descent), then the checksum.
    fn validate(&self, n_heads: usize) -> Result<(), SummaryFault> {
        let kept = self.heads.len();
        if kept == 0
            || self.heads.windows(2).any(|p| p[0] >= p[1])
            || self.heads[kept - 1] >= n_heads
            || self.global.len() != kept
            || self.global.iter().any(|h| h.len() != self.n)
        {
            return Err(SummaryFault::CardinalityMismatch);
        }
        let mut pooled = 0usize;
        for per_head in self.pools.values() {
            if per_head.len() != kept
                || per_head[0].is_empty()
                || per_head.iter().any(|h| h.len() != per_head[0].len())
            {
                return Err(SummaryFault::CardinalityMismatch);
            }
            pooled += per_head[0].len();
        }
        if pooled != self.n {
            return Err(SummaryFault::CardinalityMismatch);
        }
        if let Some(fault) = self.score_runs().find_map(run_fault) {
            return Err(fault);
        }
        if self.digest() != self.checksum {
            return Err(SummaryFault::ChecksumMismatch);
        }
        Ok(())
    }
}

/// One reconstructed window entry for crash-recovery replay: the
/// nonconformity scores of a single slot, one per kept head, plus its
/// calibration pool (the element type of
/// [`MergeableWindow::replica_entries`]).
pub type ReplayEntry = (Vec<f32>, usize);

/// A mergeable summary of one or more replica calibration windows
/// (see the module docs for the protocol).
///
/// Each held run keeps the scores of its window's kept heads and carries
/// their model head ids; the summary's [`MergeableWindow::n_heads`] is the
/// model's head count.
///
/// Equality is elementwise over the contained runs, head ids and sorted
/// scores alike, so two summaries compare equal exactly when they would
/// lower to bitwise-identical [`ScoredCalibration`]s *and* carry the same
/// replica clocks.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeableWindow {
    /// The model's head count, kept or not.
    n_heads: usize,
    /// Replica id → that replica's latest known run, shared with every
    /// summary that absorbed it.
    runs: BTreeMap<u64, Arc<ReplicaRun>>,
}

impl MergeableWindow {
    /// The merge identity: a summary that has heard from no replica.
    ///
    /// # Panics
    ///
    /// Panics if `n_heads` is zero.
    pub fn empty(n_heads: usize) -> Self {
        assert!(n_heads > 0, "at least one head required");
        Self {
            n_heads,
            runs: BTreeMap::new(),
        }
    }

    /// Snapshots one replica window under the given replica id.
    ///
    /// The snapshot is a copy of the window's already-sorted score slices
    /// of its kept heads — `O(window · kept heads)` with no comparisons —
    /// plus their head ids, its eviction clock and the run's checksum. Sealing only hashes: the finiteness and order scans
    /// run where the summary is received, in [`MergeableWindow::verify`].
    /// An empty window yields a valid (empty) run that a later snapshot
    /// from the same replica supersedes.
    pub fn snapshot(replica: u64, window: &WindowedScores) -> Self {
        let mut run = ReplicaRun {
            clock: window.clock(),
            n: window.len(),
            heads: window.heads().to_vec(),
            global: window.scored.global_sorted.clone(),
            pools: window.scored.pool_sorted.clone(),
            checksum: 0,
        };
        run.reseal();
        Self {
            n_heads: window.n_heads(),
            runs: BTreeMap::from([(replica, Arc::new(run))]),
        }
    }

    /// Verifies every held run's structure, scores and checksum, returning
    /// the first violation with the offending replica named (iteration is
    /// in replica-id order, so the result is deterministic). Within a run
    /// the faults come in a fixed order: cardinality, then a non-finite
    /// score, then a descent, then the checksum.
    ///
    /// An honest [`MergeableWindow::snapshot`] always verifies; the error
    /// path exists for summaries that crossed a trust boundary. Receivers
    /// should verify an incoming summary *before* absorbing it so a
    /// Byzantine sender degrades only itself.
    pub fn verify(&self) -> Result<(), SummaryError> {
        for (&replica, run) in &self.runs {
            if let Err(fault) = run.validate(self.n_heads) {
                return Err(SummaryError { replica, fault });
            }
        }
        Ok(())
    }

    /// Deterministically corrupts the run held for `replica` — the fault
    /// injection hook behind the chaos/poison harnesses in `pitot-serve`
    /// and `pitot-experiments`, public because those live in other crates.
    /// `salt` varies which score/bits are hit so repeated tampering does
    /// not collapse onto one spot; equal inputs corrupt identically, which
    /// is what keeps fault replays bitwise-deterministic.
    ///
    /// Degenerate runs that cannot express the requested fault (an empty
    /// run asked for [`TamperMode::NonFinite`], a constant-score head asked
    /// for [`TamperMode::Unsorted`]) fall back to a checksum flip, so a
    /// tampered summary is *always* rejected by [`MergeableWindow::verify`].
    ///
    /// Only this summary's copy of the run changes: a run shared with
    /// other summaries is copied first.
    ///
    /// Returns `false` (and changes nothing) if no run is held for
    /// `replica`.
    pub fn corrupt_run(&mut self, replica: u64, mode: TamperMode, salt: u64) -> bool {
        let Some(run) = self.runs.get_mut(&replica) else {
            return false;
        };
        let run = Arc::make_mut(run);
        let flip = |run: &mut ReplicaRun| run.checksum ^= salt | 1;
        match mode {
            TamperMode::Checksum => flip(run),
            TamperMode::Cardinality => {
                run.n += 1 + (salt as usize % 3);
                run.reseal();
            }
            TamperMode::NonFinite if run.n > 0 => {
                let h = (salt as usize) % run.global.len();
                let i = (salt as usize >> 3) % run.global[h].len();
                run.global[h][i] = f32::NAN;
                run.reseal();
            }
            TamperMode::Unsorted
                if run.n > 1 && {
                    let head = &run.global[(salt as usize) % run.global.len()];
                    head[0].to_bits() != head[head.len() - 1].to_bits()
                } =>
            {
                let h = (salt as usize) % run.global.len();
                let head = &mut run.global[h];
                let last = head.len() - 1;
                head.swap(0, last);
                run.reseal();
            }
            // Degenerate content for the requested mode: fall back to the
            // always-detectable checksum flip.
            TamperMode::NonFinite | TamperMode::Unsorted => flip(run),
        }
        true
    }

    /// Jumps the clock of the run held for `replica` forward by `jump`,
    /// recomputing its checksum so the summary still passes
    /// [`MergeableWindow::verify`] — the clock-skew injection hook. Skew is
    /// *not* an integrity fault (the run's data is genuine); it is caught
    /// by the receiver's clock-plausibility screen instead, which is why
    /// this hook keeps the checksum honest. Like
    /// [`MergeableWindow::corrupt_run`], it edits only this summary's copy.
    /// Returns `false` (and changes nothing) if no run is held for
    /// `replica`.
    pub fn skew_run_clock(&mut self, replica: u64, jump: u64) -> bool {
        let Some(run) = self.runs.get_mut(&replica) else {
            return false;
        };
        let run = Arc::make_mut(run);
        run.clock += jump;
        run.reseal();
        true
    }

    /// Number of heads of the model the runs were scored by (kept or not).
    pub fn n_heads(&self) -> usize {
        self.n_heads
    }

    /// The model head ids the run held for `replica` keeps, ascending, if
    /// any run is held: what a receiver compares against the head list its
    /// fits read before it absorbs the run. The run's checksum covers them.
    pub fn replica_heads(&self, replica: u64) -> Option<&[usize]> {
        self.runs.get(&replica).map(|r| r.heads.as_slice())
    }

    /// Total live observations across every known replica.
    pub fn len(&self) -> usize {
        self.runs.values().map(|r| r.n).sum()
    }

    /// Whether no live observation is known (no replicas, or all empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Replica ids this summary has heard from, with their clocks.
    pub fn replicas(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.runs.iter().map(|(&id, r)| (id, r.clock))
    }

    /// The clock of the run held for `replica`, if any — lets a
    /// coordinator skip snapshotting replicas whose windows have not
    /// advanced since the last merge.
    pub fn replica_clock(&self, replica: u64) -> Option<u64> {
        self.runs.get(&replica).map(|r| r.clock)
    }

    /// CRDT join: keeps, per replica id, the run with the larger eviction
    /// clock (ties keep either — a clock determines the window contents, so
    /// equal clocks carry equal runs). Commutative, associative, and
    /// idempotent; [`MergeableWindow::empty`] is the identity.
    ///
    /// # Panics
    ///
    /// Panics if the operands disagree on head count.
    pub fn merge(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.absorb(other);
        out
    }

    /// In-place [`MergeableWindow::merge`]: upserts only `other`'s
    /// newer-clocked runs — the form a coordinator accumulating one
    /// snapshot per replica per round wants. Runs are shared, not copied,
    /// so a call costs `O(replicas in other)` pointer copies.
    ///
    /// # Panics
    ///
    /// Panics if the operands disagree on head count.
    pub fn absorb(&mut self, other: &Self) {
        assert_eq!(
            self.n_heads, other.n_heads,
            "cannot merge summaries with different head counts"
        );
        for (&id, run) in &other.runs {
            match self.runs.get(&id) {
                Some(existing) if existing.clock >= run.clock => {}
                _ => {
                    self.runs.insert(id, Arc::clone(run));
                }
            }
        }
    }

    /// Reconstructs the `(per-kept-head scores, pool)` entries of one
    /// replica's held run, with the run's clock — the replay message a
    /// coordinator
    /// hands a crash-recovering replica so it can rejoin *warm* instead of
    /// serving off an empty window (see `PitotServer::restore_window` in
    /// `pitot-serve`).
    ///
    /// Entries keep the run's heads ([`MergeableWindow::replica_heads`]), so
    /// they rebuild a window keeping the same heads. They are regrouped
    /// positionally: within each pool, the rank-`j` scores of every kept
    /// head form one entry. That pairing is generally not
    /// the original per-observation grouping (the summary keeps per-head
    /// sorted runs, not observations), but it preserves the per-pool
    /// per-head score *multisets* exactly — so a window rebuilt by pushing
    /// these entries lowers to sorted views bitwise identical to the run it
    /// was reconstructed from. Arrival order within the rebuilt window is
    /// synthetic (pool-major), so post-restore evictions may retire
    /// different entries than the pre-crash window would have; calibration
    /// validity is unaffected (any window subset is an exchangeable split).
    ///
    /// Returns `None` if this summary holds no run for `replica`.
    pub fn replica_entries(&self, replica: u64) -> Option<(u64, Vec<ReplayEntry>)> {
        let run = self.runs.get(&replica)?;
        let mut entries = Vec::with_capacity(run.n);
        for (&pool, per_head) in &run.pools {
            let m = per_head[0].len();
            for j in 0..m {
                entries.push((per_head.iter().map(|h| h[j]).collect::<Vec<f32>>(), pool));
            }
        }
        debug_assert_eq!(entries.len(), run.n);
        Some((run.clock, entries))
    }

    /// Lowers the summary to a [`ScoredCalibration`] over the union of
    /// every known replica's live window — linear merges of the pre-sorted
    /// segments, bitwise identical to `ScoredCalibration::new` on the same
    /// union (property-tested).
    ///
    /// A fit does not need this copy: [`crate::PooledConformal::fit_scored`]
    /// takes the summary itself (see the module docs) and equals the fit on
    /// this lowering bit for bit. The lowering stays as that fit's oracle
    /// and for callers that want the whole sorted union.
    ///
    /// The lowering keeps the heads the runs keep, so every run must keep
    /// the same heads (a receiver's head screen guarantees it).
    ///
    /// # Panics
    ///
    /// Panics if the summary holds no live observations (an empty
    /// calibration set has no quantiles), or if its runs keep different
    /// heads.
    pub fn to_scored(&self) -> ScoredCalibration {
        assert!(
            !self.is_empty(),
            "cannot calibrate on an empty fleet summary"
        );
        let heads = &self.runs.values().next().expect("a live run is held").heads;
        let mut global_sorted = vec![Vec::new(); heads.len()];
        let mut pool_sorted: BTreeMap<usize, Vec<Vec<f32>>> = BTreeMap::new();
        for (&replica, run) in &self.runs {
            assert_eq!(
                &run.heads, heads,
                "replica {replica}'s run keeps heads {:?}, not {heads:?}: cannot lower runs \
                 keeping different heads",
                run.heads
            );
            for (h, head) in run.global.iter().enumerate() {
                global_sorted[h] = merge_sorted(&global_sorted[h], head);
            }
            for (&pool, per_head) in &run.pools {
                let acc = pool_sorted
                    .entry(pool)
                    .or_insert_with(|| vec![Vec::new(); heads.len()]);
                for (h, head) in per_head.iter().enumerate() {
                    acc[h] = merge_sorted(&acc[h], head);
                }
            }
        }
        ScoredCalibration {
            n_heads: self.n_heads,
            heads: heads.clone(),
            global_sorted,
            pool_sorted,
            n: self.len(),
        }
    }
}

/// The held runs answer a pooled fit directly: each order statistic is a
/// rank-select across the replica runs, with no union materialised.
///
/// The answers are those of the runs as held, so fit only a summary that
/// passed [`MergeableWindow::verify`].
impl CalibrationView for MergeableWindow {
    fn n_heads(&self) -> usize {
        self.n_heads
    }

    /// Pool sizes summed over every held run.
    fn pool_sizes(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let mut sizes = BTreeMap::new();
        for run in self.runs.values() {
            for (&pool, per_head) in &run.pools {
                *sizes.entry(pool).or_insert(0) += per_head[0].len();
            }
        }
        sizes.into_iter()
    }

    /// Gathers the held runs of `(pool, head)` once, then selects across
    /// them, walking them from the nearer end of the union.
    fn gamma(&self, pool: Option<usize>, head: usize, eps: f32) -> f32 {
        assert!(eps > 0.0 && eps < 1.0, "miscoverage {eps} outside (0,1)");
        let mut runs = Vec::with_capacity(self.runs.len());
        for run in self.runs.values() {
            let column = kept_column(&run.heads, head);
            let per_head = match pool {
                None => &run.global,
                Some(key) => match run.pools.get(&key) {
                    Some(per_head) => per_head,
                    None => continue,
                },
            };
            runs.push(per_head[column].as_slice());
        }
        let n = runs.iter().map(|run| run.len()).sum();
        select_kth(runs, quantile_higher_rank(n, 1.0 - eps))
    }
}

/// The `k`-th smallest (1-indexed) score across ascending runs under
/// `total_cmp`: the entry at index `k − 1` of their sorted union, without
/// building it.
///
/// Walks the union from its nearer end: when `k ≤ n − k + 1` it takes the
/// smallest remaining run head `k` times, otherwise the largest remaining
/// run tail `n − k + 1` times, and the last score taken is the answer.
/// Scores equal under `total_cmp` have equal bits, so whichever run a tie
/// is taken from, the answer is bitwise determined. Costs `O(m · min(k, n −
/// k + 1))` comparisons for `m` runs holding `n` scores: at `ε = 0.1` the
/// rank sits near the top, about `n / 10` steps down.
///
/// # Panics
///
/// Panics if `k` is not a rank of the union (`1 ≤ k ≤ n`).
fn select_kth(mut runs: Vec<&[f32]>, k: usize) -> f32 {
    runs.retain(|run| !run.is_empty());
    let n: usize = runs.iter().map(|run| run.len()).sum();
    assert!(
        (1..=n).contains(&k),
        "rank {k} lies outside a union of {n} scores"
    );
    let from_top = k > n - k + 1;
    let mut steps = if from_top { n - k + 1 } else { k };
    // The score a run offers the walk, and whether `a` is taken before `b`.
    let end = |run: &[f32]| if from_top { run[run.len() - 1] } else { run[0] };
    let before = |a: f32, b: f32| {
        let ord = a.total_cmp(&b);
        if from_top {
            ord.is_gt()
        } else {
            ord.is_lt()
        }
    };
    loop {
        let mut at = 0;
        for (i, run) in runs.iter().enumerate().skip(1) {
            if before(end(run), end(runs[at])) {
                at = i;
            }
        }
        let score = end(runs[at]);
        steps -= 1;
        if steps == 0 {
            return score;
        }
        let run = runs[at];
        runs[at] = if from_top {
            &run[..run.len() - 1]
        } else {
            &run[1..]
        };
        if runs[at].is_empty() {
            runs.swap_remove(at);
        }
    }
}

/// Merges two ascending (under `total_cmp`) runs into one, taking from the
/// left run on ties so equal float bits stay contiguous. The result is the
/// sorted multiset union — identical to sorting the concatenation.
fn merge_sorted(a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if b[j].total_cmp(&a[i]).is_lt() {
            out.push(b[j]);
            j += 1;
        } else {
            out.push(a[i]);
            i += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pooled::{HeadSelection, PooledConformal, PredictionSet};
    use rand::{Rng, RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// One synthetic replica stream: `(per-head preds, target, pool)`
    /// entries. Quantized values force duplicate scores across replicas —
    /// the shards of one fleet observe the same catalog, so identical
    /// scores on different replicas are the common case, not a corner.
    fn stream(seed: u64, n: usize, n_heads: usize) -> Vec<(Vec<f32>, f32, usize)> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0xA5A5).wrapping_add(1));
        (0..n)
            .map(|i| {
                let preds: Vec<f32> = (0..n_heads)
                    .map(|_| (rng.gen_range(-8i32..8) as f32) * 0.25)
                    .collect();
                let target = (rng.gen_range(-8i32..8) as f32) * 0.25;
                let pool = i % 3;
                (preds, target, pool)
            })
            .collect()
    }

    /// Feeds a stream through a fresh window of the given capacity.
    fn window_of(entries: &[(Vec<f32>, f32, usize)], cap: usize, n_heads: usize) -> WindowedScores {
        let mut w = WindowedScores::new(cap, n_heads);
        for (p, t, k) in entries {
            w.push(p, *t, *k);
        }
        w
    }

    /// From-scratch [`ScoredCalibration`] on the union of the replicas'
    /// *live* (post-eviction) window tails.
    fn scratch_union(replicas: &[&WindowedScores], n_heads: usize) -> ScoredCalibration {
        let mut preds: Vec<Vec<f32>> = vec![Vec::new(); n_heads];
        let mut targets = Vec::new();
        let mut pools = Vec::new();
        for w in replicas {
            for (scores, pool) in w.entries() {
                // Reconstruct a (pred, target) pair with exactly these
                // score bits: s = 0.0 − (−s).
                for (h, &s) in scores.iter().enumerate() {
                    preds[h].push(-s);
                }
                targets.push(0.0);
                pools.push(pool);
            }
        }
        ScoredCalibration::new(&PredictionSet {
            predictions: &preds,
            targets_log: &targets,
            pools: &pools,
        })
    }

    proptest::proptest! {
        /// The headline identity: merging any number of replica snapshots
        /// (different stream lengths, window capacities smaller than the
        /// streams, duplicate score values across shards) lowers to a
        /// [`ScoredCalibration`] bitwise identical to a from-scratch fit on
        /// the union of the live windows.
        #[test]
        fn merged_summary_is_bitwise_identical_to_scratch_union(
            seed in 0u64..30,
            n_replicas in 1usize..5,
            cap in 1usize..40,
        ) {
            let n_heads = 1 + (seed as usize % 3);
            let windows: Vec<WindowedScores> = (0..n_replicas)
                .map(|r| {
                    // Lengths straddle the capacity so some replicas have
                    // evicted and others have not (or are still empty).
                    let n = (seed as usize + r * 13) % (2 * cap + 1);
                    window_of(&stream(seed * 31 + r as u64, n, n_heads), cap, n_heads)
                })
                .collect();
            let mut merged = MergeableWindow::empty(n_heads);
            for (r, w) in windows.iter().enumerate() {
                merged.absorb(&MergeableWindow::snapshot(r as u64, w));
            }
            let live: usize = windows.iter().map(|w| w.len()).sum();
            proptest::prop_assert_eq!(merged.len(), live);
            if live > 0 {
                let refs: Vec<&WindowedScores> = windows.iter().collect();
                let scratch = scratch_union(&refs, n_heads);
                proptest::prop_assert_eq!(&merged.to_scored(), &scratch);
            }
        }

        /// Merge is commutative and associative over snapshots of
        /// *different ages of the same replicas* — the out-of-order,
        /// duplicated delivery a real coordinator sees.
        #[test]
        fn merge_is_commutative_and_associative(
            seed in 0u64..30,
            cap in 1usize..24,
        ) {
            let n_heads = 1 + (seed as usize % 2);
            // Three summaries drawn from two replicas at different clocks:
            // a and c are older/newer snapshots of replica 0.
            let s0 = stream(seed, 2 * cap + 3, n_heads);
            let mut w0 = WindowedScores::new(cap, n_heads);
            for (p, t, k) in &s0[..cap.min(s0.len())] {
                w0.push(p, *t, *k);
            }
            let a = MergeableWindow::snapshot(0, &w0);
            for (p, t, k) in &s0[cap.min(s0.len())..] {
                w0.push(p, *t, *k);
            }
            let c = MergeableWindow::snapshot(0, &w0);
            let w1 = window_of(&stream(seed + 77, cap + 2, n_heads), cap, n_heads);
            let b = MergeableWindow::snapshot(1, &w1);

            proptest::prop_assert_eq!(a.merge(&b), b.merge(&a));
            proptest::prop_assert_eq!(a.merge(&c), c.merge(&a));
            proptest::prop_assert_eq!(
                a.merge(&b).merge(&c),
                a.merge(&b.merge(&c))
            );
            // Idempotence, and identity of the empty summary.
            let ab = a.merge(&b);
            proptest::prop_assert_eq!(ab.merge(&ab.clone()), ab.clone());
            proptest::prop_assert_eq!(
                ab.merge(&MergeableWindow::empty(n_heads)),
                ab
            );
        }
    }

    #[test]
    fn single_replica_summary_is_the_window_itself() {
        let n_heads = 2;
        let w = window_of(&stream(5, 40, n_heads), 16, n_heads);
        let merged = MergeableWindow::snapshot(9, &w);
        assert_eq!(&merged.to_scored(), w.scored());
    }

    #[test]
    fn empty_replicas_merge_as_identity() {
        let n_heads = 2;
        let w = window_of(&stream(6, 20, n_heads), 8, n_heads);
        let full = MergeableWindow::snapshot(0, &w);
        let empty_win = WindowedScores::new(8, n_heads);
        let empty = MergeableWindow::snapshot(1, &empty_win);
        let merged = full.merge(&empty);
        assert_eq!(merged.len(), w.len());
        assert_eq!(&merged.to_scored(), w.scored());
        // Either way around.
        assert_eq!(&empty.merge(&full).to_scored(), w.scored());
    }

    #[test]
    fn newer_snapshot_supersedes_after_eviction() {
        // Snapshot a replica, let it evict every original entry, snapshot
        // again: the merge of both must equal the newer snapshot alone —
        // evicted entries leave no tombstones and no residue.
        let n_heads = 2;
        let s = stream(7, 30, n_heads);
        let mut w = WindowedScores::new(8, n_heads);
        for (p, t, k) in &s[..10] {
            w.push(p, *t, *k);
        }
        let old = MergeableWindow::snapshot(3, &w);
        for (p, t, k) in &s[10..] {
            w.push(p, *t, *k);
        }
        let new = MergeableWindow::snapshot(3, &w);
        let merged = old.merge(&new);
        assert_eq!(merged, new);
        assert_eq!(&merged.to_scored(), w.scored());
        // Stale delivery after the fact changes nothing.
        assert_eq!(merged.merge(&old), new);
    }

    #[test]
    fn duplicate_scores_across_shards_merge_cleanly() {
        // Two shards observing identical quantized values: every score in
        // shard A also appears in shard B. The union must keep both copies.
        let n_heads = 1;
        let entries: Vec<(Vec<f32>, f32, usize)> = (0..12)
            .map(|i| (vec![(i % 3) as f32 * 0.5], 1.0, i % 2))
            .collect();
        let wa = window_of(&entries, 16, n_heads);
        let wb = window_of(&entries, 16, n_heads);
        let merged = MergeableWindow::snapshot(0, &wa).merge(&MergeableWindow::snapshot(1, &wb));
        assert_eq!(merged.len(), 24);
        let scored = merged.to_scored();
        assert_eq!(scored.len(), 24);
        assert_eq!(&scored, &scratch_union(&[&wa, &wb], n_heads));
    }

    proptest::proptest! {
        /// Crash-recovery replay: a window rebuilt by pushing
        /// [`MergeableWindow::replica_entries`] lowers to sorted views
        /// bitwise identical to the run it was reconstructed from, and
        /// carries enough clock to supersede stale snapshots once advanced.
        #[test]
        fn replica_entries_rebuild_bitwise_identical_window(
            seed in 0u64..25,
            cap in 1usize..32,
            n in 1usize..70,
        ) {
            let n_heads = 1 + (seed as usize % 3);
            let w = window_of(&stream(seed * 7 + 3, n, n_heads), cap, n_heads);
            let summary = MergeableWindow::snapshot(4, &w);
            let (clock, entries) = summary.replica_entries(4).expect("run held");
            proptest::prop_assert_eq!(clock, w.clock());
            proptest::prop_assert_eq!(entries.len(), w.len());
            let mut rebuilt = WindowedScores::new(cap, n_heads);
            for (scores, pool) in entries {
                rebuilt.push_scores(scores, pool);
            }
            if !w.is_empty() {
                proptest::prop_assert_eq!(rebuilt.scored(), w.scored());
            }
            proptest::prop_assert!(rebuilt.clock() <= clock);
            proptest::prop_assert_eq!(summary.replica_entries(9), None);
        }
    }

    proptest::proptest! {
        /// Honest snapshots — empty, partial, evicting, multi-replica,
        /// merged in any order — always verify, and every tamper mode is
        /// rejected with the offending replica named and the fault class
        /// the mode targets (or the checksum fallback on degenerate runs).
        #[test]
        fn verify_accepts_honest_and_names_tampered(
            seed in 0u64..30,
            cap in 1usize..24,
            salt in 0u64..1000,
        ) {
            let n_heads = 1 + (seed as usize % 3);
            let wa = window_of(&stream(seed, (seed as usize * 5) % (2 * cap), n_heads), cap, n_heads);
            let wb = window_of(&stream(seed + 50, cap + 1, n_heads), cap, n_heads);
            let honest = || {
                let mut s = MergeableWindow::snapshot(0, &wa);
                s.absorb(&MergeableWindow::snapshot(7, &wb));
                s
            };
            let merged = honest();
            proptest::prop_assert_eq!(merged.verify(), Ok(()));
            // Copy-on-write: tampering a clone leaves the original's shared
            // runs alone, and the untouched run stays shared.
            let untouched = |t: &MergeableWindow| {
                merged.verify() == Ok(())
                    && merged == honest()
                    && Arc::ptr_eq(&t.runs[&0], &merged.runs[&0])
            };

            for (mode, want) in [
                (TamperMode::Checksum, SummaryFault::ChecksumMismatch),
                (TamperMode::Cardinality, SummaryFault::CardinalityMismatch),
                (TamperMode::NonFinite, SummaryFault::NonFiniteScore),
                (TamperMode::Unsorted, SummaryFault::UnsortedRun),
            ] {
                let mut t = merged.clone();
                proptest::prop_assert!(t.corrupt_run(7, mode, salt));
                let err = t.verify().expect_err("tampered run must fail");
                proptest::prop_assert_eq!(err.replica, 7);
                // Degenerate runs fall back to a checksum flip; either way
                // the summary is rejected.
                proptest::prop_assert!(
                    err.fault == want || err.fault == SummaryFault::ChecksumMismatch
                );
                // Tampering never silently equals the honest summary.
                proptest::prop_assert!(t != merged.clone());
                proptest::prop_assert!(untouched(&t), "{:?} leaked into the original", mode);
            }
            let mut t = merged.clone();
            proptest::prop_assert!(t.skew_run_clock(7, 1 + salt));
            proptest::prop_assert_eq!(t.verify(), Ok(()));
            proptest::prop_assert_eq!(t.replica_clock(7), Some(wb.clock() + 1 + salt));
            proptest::prop_assert!(untouched(&t), "clock skew leaked into the original");
            // No run held → no-op.
            let mut t = merged.clone();
            proptest::prop_assert!(!t.corrupt_run(99, TamperMode::Checksum, salt));
            proptest::prop_assert_eq!(t, merged);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 256, ..Default::default() })]
        /// Joining two views that verify yields a view that verifies: the
        /// property that lets a gossip round verify each view once, at its
        /// join. The views share replicas at different clocks; one operand
        /// is sometimes tampered, making the premise false, and then the
        /// join fails exactly when it keeps the tampered run.
        #[test]
        fn joins_of_verified_views_verify(
            seed in 0u64..1_000_000,
            cap in 1usize..24,
            tamper in 0usize..3,
            mode in 0usize..4,
            salt in 0u64..1000,
        ) {
            let n_heads = 1 + (seed as usize % 3);
            // View `v` holds replicas `v..v + 3`, each a prefix of that
            // replica's one stream, so views agree on any run of equal clock.
            let view = |v: u64| {
                let mut out = MergeableWindow::empty(n_heads);
                for id in v..v + 3 {
                    let len = (seed as usize >> (3 * id as usize + v as usize)) % (2 * cap + 1);
                    let w = window_of(&stream(seed ^ (id << 20), len, n_heads), cap, n_heads);
                    out.absorb(&MergeableWindow::snapshot(id, &w));
                }
                out
            };
            let mut views = [view(0), view(1)];
            let target = (tamper > 0).then(|| {
                let v = tamper - 1;
                let id = v as u64 + salt % 3;
                let mode = [
                    TamperMode::Checksum,
                    TamperMode::Cardinality,
                    TamperMode::NonFinite,
                    TamperMode::Unsorted,
                ][mode];
                assert!(views[v].corrupt_run(id, mode, salt));
                (id, Arc::clone(&views[v].runs[&id]))
            });
            let [x, y] = &views;
            let premise = x.verify().is_ok() && y.verify().is_ok();
            proptest::prop_assert_eq!(premise, target.is_none());
            for (p, q) in [(x, y), (y, x)] {
                let joined = p.merge(q);
                match &target {
                    None => proptest::prop_assert_eq!(joined.verify(), Ok(())),
                    Some((id, run)) => {
                        let kept = Arc::ptr_eq(&joined.runs[id], run);
                        proptest::prop_assert_eq!(joined.verify().is_err(), kept);
                    }
                }
            }
        }
    }

    #[test]
    fn tamper_modes_land_in_their_fault_class_on_rich_runs() {
        // A window with plenty of distinct scores exercises every mode's
        // primary path (no degenerate fallback).
        let n_heads = 2;
        let w = window_of(&stream(21, 40, n_heads), 16, n_heads);
        for (mode, want) in [
            (TamperMode::Checksum, SummaryFault::ChecksumMismatch),
            (TamperMode::Cardinality, SummaryFault::CardinalityMismatch),
            (TamperMode::NonFinite, SummaryFault::NonFiniteScore),
        ] {
            let mut s = MergeableWindow::snapshot(3, &w);
            assert!(s.corrupt_run(3, mode, 5));
            assert_eq!(
                s.verify(),
                Err(SummaryError {
                    replica: 3,
                    fault: want
                }),
                "mode {mode:?}"
            );
        }
        // Unsorted needs a head whose extremes differ bitwise; find a salt
        // selecting one (head choice is salt % n_heads).
        let mut s = MergeableWindow::snapshot(3, &w);
        assert!(s.corrupt_run(3, TamperMode::Unsorted, 0));
        let err = s.verify().expect_err("unsorted run must fail");
        assert_eq!(err.replica, 3);
        assert!(matches!(
            err.fault,
            SummaryFault::UnsortedRun | SummaryFault::ChecksumMismatch
        ));
        // Error display names the replica for audit logs.
        assert!(err.to_string().contains("replica 3"));
    }

    /// Scores from a small grid of every class the scan tells apart: both
    /// zeros, finite values, both infinities, and NaNs of either sign.
    const SPECIALS: [f32; 9] = [
        -1.5,
        -0.0,
        0.0,
        0.25,
        2.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 512, ..Default::default() })]
        /// The one-pass run scan names the fault the two plain scans name:
        /// any non-finite score first, else any descent under `total_cmp`.
        /// Sorted runs that start or end in a non-finite value are the case
        /// the end check must catch.
        #[test]
        fn run_scan_equals_the_plain_scans(seed in 0u64..1_000_000) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let len = rng.gen_range(0usize..=12);
            let mut run: Vec<f32> = (0..len)
                .map(|_| SPECIALS[rng.gen_range(0..SPECIALS.len())])
                .collect();
            if rng.gen_bool(0.5) {
                run.sort_by(f32::total_cmp);
            }
            let want = if run.iter().any(|s| !s.is_finite()) {
                Some(SummaryFault::NonFiniteScore)
            } else if run.windows(2).any(|w| w[0].total_cmp(&w[1]).is_gt()) {
                Some(SummaryFault::UnsortedRun)
            } else {
                None
            };
            proptest::prop_assert_eq!(run_fault(&run), want, "{:?}", run);
        }
    }

    /// The scalar oracle of [`ReplicaRun::digest`]: it spells out the word
    /// lists and feeds every word one at a time, score `j` of each run to
    /// lane `j mod 8`, with no chunking.
    fn reference_digest(run: &ReplicaRun) -> u64 {
        let step = |h: u64, w: u32| (h ^ u64::from(w)).wrapping_mul(0x0000_0100_0000_01b3);
        let wide = |words: &mut Vec<u32>, v: u64| words.extend([v as u32, (v >> 32) as u32]);
        let mut layout = Vec::new();
        let mut lanes = [0xcbf2_9ce4_8422_2325u64; 8];
        let mut scores = |layout: &mut Vec<u32>, run: &[f32]| {
            for (j, s) in run.iter().enumerate() {
                lanes[j % 8] = step(lanes[j % 8], s.to_bits());
            }
            wide(layout, run.len() as u64);
        };
        wide(&mut layout, run.clock);
        wide(&mut layout, run.n as u64);
        wide(&mut layout, run.heads.len() as u64);
        for &head in &run.heads {
            wide(&mut layout, head as u64);
        }
        for head in &run.global {
            scores(&mut layout, head);
        }
        for (&pool, per_head) in &run.pools {
            wide(&mut layout, pool as u64);
            for head in per_head {
                scores(&mut layout, head);
            }
        }
        let h = layout
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &w| step(h, w));
        lanes
            .iter()
            .fold(h, |h, &lane| (h ^ lane).wrapping_mul(0x0000_0100_0000_01b3))
    }

    /// `len` arbitrary score words, NaN and infinite bit patterns included:
    /// the digest hashes bits and never reads them as numbers.
    fn random_scores(rng: &mut ChaCha8Rng, len: usize) -> Vec<f32> {
        (0..len).map(|_| f32::from_bits(rng.next_u32())).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 256, ..Default::default() })]
        /// The lane digest equals its scalar oracle on random runs. Head
        /// lengths of 0..=40 put runs on the full-chunk path, the remainder
        /// path, both, and neither; 1–4 pools and kept head ids up to 8
        /// vary the layout chain.
        #[test]
        fn lane_digest_equals_the_scalar_reference(seed in 0u64..1_000_000) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let kept: Vec<usize> = (0..8).filter(|_| rng.gen_bool(0.4)).collect();
            let n_heads = kept.len().max(1);
            let heads = |rng: &mut ChaCha8Rng| -> Vec<Vec<f32>> {
                (0..n_heads)
                    .map(|_| {
                        let len = rng.gen_range(0usize..=40);
                        random_scores(rng, len)
                    })
                    .collect()
            };
            let global = heads(&mut rng);
            let pools = (0..rng.gen_range(1usize..=4))
                .map(|k| (3 * k + rng.gen_range(0usize..3), heads(&mut rng)))
                .collect();
            let run = ReplicaRun {
                clock: rng.next_u64(),
                n: rng.gen_range(0usize..200),
                heads: kept,
                global,
                pools,
                checksum: 0,
            };
            proptest::prop_assert_eq!(run.digest(), reference_digest(&run));
        }
    }

    #[test]
    fn word_digest_catches_every_single_bit_flip() {
        // Two heads, three pools: every field class the digest covers. The
        // 37-score global runs fill four lane chunks and end in a remainder
        // of five; the 12- and 13-score pool runs fill one chunk each and
        // end in remainders too.
        let n_heads = 2;
        let w = window_of(&stream(31, 37, n_heads), 64, n_heads);
        let honest = MergeableWindow::snapshot(5, &w);
        let run = honest.runs[&5].clone();
        assert_eq!(run.pools.len(), 3);
        assert_eq!(run.n, 37);
        assert!(run
            .score_runs()
            .all(|r| r.len() > LANES && r.len() % LANES != 0));
        // Edits a copy of the run under its stored checksum: the summary
        // must be refused with its replica named, and the digest alone
        // must see the edit too (structure checks may name it first).
        let check = |what: &str, edit: &dyn Fn(&mut ReplicaRun)| {
            let mut t = honest.clone();
            edit(Arc::make_mut(t.runs.get_mut(&5).expect("run held")));
            assert_eq!(t.verify().map_err(|e| e.replica), Err(5), "{what}");
            assert_ne!(
                t.runs[&5].digest(),
                run.checksum,
                "{what}: digest blind to the edit"
            );
        };
        let flip = |s: &mut f32, bit: u32| *s = f32::from_bits(s.to_bits() ^ (1 << bit));
        // A length's bit flips that fit in memory: truncate, or extend with
        // copies of the last score (sortedness holds).
        let relength = |v: &mut Vec<f32>, bit: u32| {
            let last = *v.last().expect("non-empty run");
            v.resize(v.len() ^ (1 << bit), last);
        };
        for bit in 0..64 {
            check(&format!("clock bit {bit}"), &|r| r.clock ^= 1 << bit);
            check(&format!("n bit {bit}"), &|r| r.n ^= 1 << bit);
            for c in 0..n_heads {
                check(&format!("head id {c} bit {bit}"), &|r| {
                    r.heads[c] ^= 1 << bit
                });
            }
        }
        for h in 0..n_heads {
            for i in 0..run.n {
                for bit in 0..32 {
                    check(&format!("global[{h}][{i}] bit {bit}"), &|r| {
                        flip(&mut r.global[h][i], bit)
                    });
                }
            }
            for bit in 0..8 {
                check(&format!("global[{h}] length bit {bit}"), &|r| {
                    relength(&mut r.global[h], bit)
                });
            }
        }
        for (&key, per_head) in &run.pools {
            for bit in 0..64 {
                check(&format!("pool {key} key bit {bit}"), &|r| {
                    let moved = r.pools.remove(&key).expect("pool held");
                    r.pools.insert(key ^ (1 << bit), moved);
                });
            }
            for h in 0..n_heads {
                for i in 0..per_head[h].len() {
                    for bit in 0..32 {
                        check(&format!("pool {key}[{h}][{i}] bit {bit}"), &|r| {
                            flip(&mut r.pools.get_mut(&key).expect("pool held")[h][i], bit)
                        });
                    }
                }
                for bit in 0..8 {
                    check(&format!("pool {key}[{h}] length bit {bit}"), &|r| {
                        relength(&mut r.pools.get_mut(&key).expect("pool held")[h], bit)
                    });
                }
            }
        }
        // Every edit went to a copy.
        assert_eq!(honest.verify(), Ok(()));
    }

    /// Scores on a coarse grid with `-0.0` beside `+0.0`: duplicates across
    /// shards are the common fleet case, and the two zeros differ only under
    /// `total_cmp`.
    const GRID: [f32; 8] = [-0.5, -0.25, -0.0, 0.0, 0.25, 0.5, 0.75, 1.0];

    /// A replica window fed `len` grid-score entries, pools drawn 6:3:1 so
    /// merged pools land on both sides of [`PooledConformal::MIN_POOL`].
    fn grid_window(seed: u64, len: usize, cap: usize, n_heads: usize) -> WindowedScores {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut w = WindowedScores::new(cap, n_heads);
        for _ in 0..len {
            let scores = (0..n_heads)
                .map(|_| GRID[rng.gen_range(0..GRID.len())])
                .collect();
            let pool = match rng.gen_range(0..10) {
                0..=5 => 0,
                6..=8 => 1,
                _ => 2,
            };
            w.push_scores(scores, pool);
        }
        w
    }

    /// A fit's fallback and per-pool calibrations as `(pool, head, γ bits)`.
    fn fit_bits(c: &PooledConformal) -> Vec<(Option<usize>, usize, u32)> {
        std::iter::once((None, c.calibration_for(usize::MAX)))
            .chain(c.pool_calibrations().iter().map(|(&k, &p)| (Some(k), p)))
            .map(|(k, p)| (k, p.head, p.gamma.to_bits()))
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 256, ..Default::default() })]
        /// The bitwise pin of the fleet fit: rank-selecting from the runs
        /// gives the same head and the same γ bits as fitting on the
        /// materialised union (`to_scored`), for the fallback and every
        /// pool, under every head selection and ε, on coordinator views and
        /// on part-way gossip views.
        #[test]
        fn fit_from_runs_is_bitwise_the_fit_on_the_union(
            seed in 0u64..1000,
            n_replicas in 1usize..7,
            cap in 1usize..80,
        ) {
            let n_heads = 1 + (seed as usize % 3);
            let xis = &[0.5f32, 0.9, 0.99][..n_heads];
            let windows: Vec<WindowedScores> = (0..n_replicas)
                .map(|r| {
                    // Lengths straddle the capacity: empty, partial, and
                    // evicted windows.
                    let len = (seed as usize * 7 + r * 23) % (2 * cap + 1);
                    grid_window(seed * 53 + r as u64, len, cap, n_heads)
                })
                .collect();
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xF17);
            let val_preds: Vec<Vec<f32>> = (0..n_heads)
                .map(|_| (0..30).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
                .collect();
            let val_targets: Vec<f32> = (0..30).map(|_| rng.gen_range(-1.0f32..1.5)).collect();
            let val_pools: Vec<usize> = (0..30).map(|i| i % 3).collect();
            let validation = PredictionSet {
                predictions: &val_preds,
                targets_log: &val_targets,
                pools: &val_pools,
            };

            let mut views: Vec<MergeableWindow> = windows
                .iter()
                .enumerate()
                .map(|(r, w)| MergeableWindow::snapshot(r as u64, w))
                .collect();
            let mut coordinator = MergeableWindow::empty(n_heads);
            for v in &views {
                coordinator.absorb(v);
            }
            // One-sided gossip joins along a seeded tree leave each view
            // holding a different subset of the replicas.
            for i in 1..n_replicas {
                let joined = views[i].merge(&views[rng.gen_range(0..i)]);
                views[i] = joined;
            }
            views.push(coordinator);
            for view in views.iter().filter(|v| !v.is_empty()) {
                // Honest runs with `-0.0` before `+0.0` pass the order scan.
                proptest::prop_assert_eq!(view.verify(), Ok(()));
                let union = view.to_scored();
                let pools: Vec<(usize, usize)> = union.pool_sizes().collect();
                proptest::prop_assert_eq!(view.pool_sizes().collect::<Vec<_>>(), pools.clone());
                for eps in [0.01f32, 0.05, 0.1, 0.3, 0.5, 0.9, 0.99] {
                    for h in 0..n_heads {
                        for pool in std::iter::once(None).chain(pools.iter().map(|&(k, _)| Some(k))) {
                            proptest::prop_assert_eq!(
                                view.gamma(pool, h, eps).to_bits(),
                                union.gamma(pool, h, eps).to_bits(),
                                "pool {:?} head {} eps {}", pool, h, eps
                            );
                        }
                    }
                    for selection in [
                        HeadSelection::SingleHead,
                        HeadSelection::NaiveXi,
                        HeadSelection::TightestOnValidation,
                    ] {
                        let from_runs =
                            PooledConformal::fit_scored(view, &validation, xis, selection, eps);
                        let from_union =
                            PooledConformal::fit_scored(&union, &validation, xis, selection, eps);
                        proptest::prop_assert_eq!(
                            fit_bits(&from_runs),
                            fit_bits(&from_union),
                            "{:?} eps {}", selection, eps
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty fleet summary")]
    fn empty_summary_refuses_to_calibrate() {
        let _ = MergeableWindow::empty(1).to_scored();
    }

    #[test]
    #[should_panic(expected = "different head counts")]
    fn mismatched_head_counts_refuse_to_merge() {
        let _ = MergeableWindow::empty(1).merge(&MergeableWindow::empty(2));
    }

    #[test]
    fn fleet_gammas_match_centralized_window() {
        // End-to-end: γ from the merged fleet summary equals γ from a
        // from-scratch calibration on the union — the bound a coordinator
        // serves is exactly the centralized one.
        let n_heads = 3;
        let wa = window_of(&stream(11, 90, n_heads), 64, n_heads);
        let wb = window_of(&stream(12, 50, n_heads), 64, n_heads);
        let merged = MergeableWindow::snapshot(0, &wa)
            .merge(&MergeableWindow::snapshot(1, &wb))
            .to_scored();
        let scratch = scratch_union(&[&wa, &wb], n_heads);
        for eps in [0.05f32, 0.1, 0.3] {
            for h in 0..n_heads {
                assert_eq!(merged.gamma(None, h, eps), scratch.gamma(None, h, eps));
                for pool in 0..3 {
                    assert_eq!(
                        merged.gamma(Some(pool), h, eps),
                        scratch.gamma(Some(pool), h, eps)
                    );
                }
            }
        }
    }

    /// Feeds a stream through a fresh window keeping `heads`: the kept
    /// columns of [`window_of`] on the same stream.
    fn kept_window_of(
        entries: &[(Vec<f32>, f32, usize)],
        cap: usize,
        n_heads: usize,
        heads: &[usize],
    ) -> WindowedScores {
        let mut w = WindowedScores::with_heads(cap, n_heads, heads);
        for (p, t, k) in entries {
            let kept: Vec<f32> = heads.iter().map(|&h| p[h]).collect();
            w.push(&kept, *t, *k);
        }
        w
    }

    /// A sorted view's head ids and scores as text: `Debug` prints every
    /// finite float exactly (`-0.0` apart from `0.0`), so equal text is
    /// equal bits.
    fn bits(scored: &ScoredCalibration) -> String {
        format!("{scored:?}")
    }

    /// The columns `heads` of an all-heads view.
    fn columns(all: &ScoredCalibration, heads: &[usize]) -> ScoredCalibration {
        let pick = |runs: &Vec<Vec<f32>>| heads.iter().map(|&h| runs[h].clone()).collect();
        ScoredCalibration {
            n_heads: all.n_heads,
            heads: heads.to_vec(),
            global_sorted: pick(&all.global_sorted),
            pool_sorted: all.pool_sorted.iter().map(|(&k, v)| (k, pick(v))).collect(),
            n: all.n,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 128, ..Default::default() })]
        /// Runs of windows keeping some heads merge and round-trip like the
        /// matching columns of all-heads runs: they verify and name their
        /// heads; the merge is commutative, associative and idempotent,
        /// with the empty summary as identity; replayed entries rebuild
        /// each replica's kept window; the lowering is those columns of the
        /// all-heads lowering, bit for bit; and every γ and every
        /// `NaiveXi` and `SingleHead` fit from the runs equals the one on
        /// the lowering and the all-heads one.
        #[test]
        fn kept_head_runs_merge_and_round_trip_like_their_columns(
            seed in 0u64..1_000_000,
            n_replicas in 1usize..5,
            cap in 1usize..40,
        ) {
            let n_heads = 8;
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let heads: Vec<usize> = std::iter::once(0)
                .chain((1..n_heads).filter(|_| rng.gen_bool(0.25)))
                .collect();
            let xis: Vec<f32> = (0..n_heads).map(|h| 0.5 + 0.07 * h as f32).collect();
            let streams: Vec<_> = (0..n_replicas)
                .map(|r| stream(seed ^ ((r as u64) << 32), rng.gen_range(0..2 * cap + 1), n_heads))
                .collect();
            let all: Vec<WindowedScores> = streams.iter().map(|s| window_of(s, cap, n_heads)).collect();
            let kept: Vec<WindowedScores> = streams
                .iter()
                .map(|s| kept_window_of(s, cap, n_heads, &heads))
                .collect();
            let snap = |w: &WindowedScores, r: usize| MergeableWindow::snapshot(r as u64, w);
            let (mut merged_all, mut merged) =
                (MergeableWindow::empty(n_heads), MergeableWindow::empty(n_heads));
            for r in 0..n_replicas {
                merged_all.absorb(&snap(&all[r], r));
                let s = snap(&kept[r], r);
                proptest::prop_assert_eq!(s.verify(), Ok(()));
                proptest::prop_assert_eq!(s.replica_heads(r as u64), Some(heads.as_slice()));
                merged.absorb(&s);
            }

            let (a, b, c) = (snap(&kept[0], 0), merged.clone(), snap(&kept[n_replicas - 1], 9));
            proptest::prop_assert_eq!(a.merge(&b), b.merge(&a));
            proptest::prop_assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
            proptest::prop_assert_eq!(b.merge(&b), b.clone());
            proptest::prop_assert_eq!(b.merge(&MergeableWindow::empty(n_heads)), b.clone());

            for (r, w) in kept.iter().enumerate() {
                let (clock, entries) = merged.replica_entries(r as u64).expect("run held");
                proptest::prop_assert_eq!(clock, w.clock());
                let mut rebuilt = WindowedScores::with_heads(cap, n_heads, &heads);
                for (scores, pool) in entries {
                    rebuilt.push_scores(scores, pool);
                }
                if !w.is_empty() {
                    proptest::prop_assert_eq!(bits(rebuilt.scored()), bits(w.scored()));
                }
            }

            if !merged.is_empty() {
                let lowered = merged.to_scored();
                proptest::prop_assert_eq!(bits(&lowered), bits(&columns(&merged_all.to_scored(), &heads)));
                let pools: Vec<Option<usize>> = std::iter::once(None)
                    .chain(lowered.pool_sizes().map(|(k, _)| Some(k)))
                    .collect();
                let no_selection = PredictionSet { predictions: &[], targets_log: &[], pools: &[] };
                for eps in [0.01f32, 0.1, 0.3, 0.5, 0.9] {
                    for &h in &heads {
                        for &pool in &pools {
                            let want = merged_all.gamma(pool, h, eps).to_bits();
                            proptest::prop_assert_eq!(merged.gamma(pool, h, eps).to_bits(), want);
                            proptest::prop_assert_eq!(lowered.gamma(pool, h, eps).to_bits(), want);
                        }
                    }
                    for selection in [HeadSelection::NaiveXi, HeadSelection::SingleHead] {
                        if !heads.contains(&selection.fixed_head(&xis, eps).expect("fixed")) {
                            continue;
                        }
                        let fit = |view: &dyn Fn(&PredictionSet) -> PooledConformal| {
                            fit_bits(&view(&no_selection))
                        };
                        let want = fit(&|v| PooledConformal::fit_scored(&merged_all, v, &xis, selection, eps));
                        proptest::prop_assert_eq!(
                            fit(&|v| PooledConformal::fit_scored(&merged, v, &xis, selection, eps)),
                            want.clone()
                        );
                        proptest::prop_assert_eq!(
                            fit(&|v| PooledConformal::fit_scored(&lowered, v, &xis, selection, eps)),
                            want
                        );
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 512, ..Default::default() })]
        /// The walk from the nearer end selects the `k`-th score of the
        /// sorted union, bitwise, at every rank from `k = 1` to `k = n`:
        /// scores tie within and across runs (`-0.0` beside `0.0` among
        /// them), and some runs are empty.
        #[test]
        fn select_kth_is_the_kth_score_of_the_sorted_union(seed in 0u64..1_000_000) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let runs: Vec<Vec<f32>> = (0..rng.gen_range(1usize..=6))
                .map(|_| {
                    let len = rng.gen_range(0usize..=12);
                    let mut run: Vec<f32> = (0..len).map(|_| GRID[rng.gen_range(0..GRID.len())]).collect();
                    run.sort_by(f32::total_cmp);
                    run
                })
                .collect();
            let mut union = runs.concat();
            union.sort_by(f32::total_cmp);
            for k in 1..=union.len() {
                let got = select_kth(runs.iter().map(Vec::as_slice).collect(), k);
                proptest::prop_assert_eq!(got.to_bits(), union[k - 1].to_bits(), "k {} of {}", k, union.len());
            }
        }
    }

    #[test]
    #[should_panic(expected = "rank 4 lies outside a union of 3 scores")]
    fn select_kth_refuses_a_rank_past_the_union() {
        let _ = select_kth(vec![&[0.5, 1.0][..], &[], &[0.25]], 4);
    }

    #[test]
    #[should_panic(expected = "head 5 is not kept (kept heads: [0, 4])")]
    fn merged_gamma_of_an_unkept_head_panics_naming_it() {
        let w = kept_window_of(&stream(3, 20, 8), 16, 8, &[0, 4]);
        let _ = MergeableWindow::snapshot(0, &w).gamma(None, 5, 0.1);
    }

    #[test]
    #[should_panic(expected = "cannot lower runs keeping different heads")]
    fn runs_keeping_different_heads_refuse_to_lower() {
        let s = stream(4, 20, 8);
        let a = MergeableWindow::snapshot(0, &kept_window_of(&s, 16, 8, &[0, 4]));
        let b = MergeableWindow::snapshot(1, &kept_window_of(&s, 16, 8, &[0, 3]));
        let _ = a.merge(&b).to_scored();
    }

    #[test]
    fn verify_rejects_head_ids_edited_without_resealing() {
        let w = kept_window_of(&stream(9, 30, 8), 16, 8, &[0, 4]);
        let honest = MergeableWindow::snapshot(2, &w);
        assert_eq!(honest.verify(), Ok(()));
        assert_eq!(honest.replica_heads(2), Some(&[0, 4][..]));
        // A list that still names ascending heads of the model passes the
        // structure checks and only the checksum sees the edit; any other
        // list is a structural lie.
        for (heads, fault) in [
            (vec![0, 5], SummaryFault::ChecksumMismatch),
            (vec![1, 4], SummaryFault::ChecksumMismatch),
            (vec![4, 0], SummaryFault::CardinalityMismatch),
            (vec![0, 8], SummaryFault::CardinalityMismatch),
            (vec![0], SummaryFault::CardinalityMismatch),
        ] {
            let mut t = honest.clone();
            Arc::make_mut(t.runs.get_mut(&2).expect("run held")).heads = heads.clone();
            assert_eq!(
                t.verify(),
                Err(SummaryError { replica: 2, fault }),
                "heads {heads:?}"
            );
        }
        assert_eq!(honest.verify(), Ok(()));
    }
}
