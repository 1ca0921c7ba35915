//! The decision diagram package: arenas, unique tables and operator builders.
//!
//! A [`DdPackage`] owns every node of the diagrams it creates. Nodes are
//! hash-consed through unique tables so that structurally identical
//! sub-diagrams are stored exactly once — this sharing is what makes the
//! representation compact for structured states such as GHZ or QFT outputs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::complex::Complex;
use crate::complex_table::{ComplexId, ComplexTable};
use crate::concurrent::{ChunkedArena, StripedMap};
use crate::fxhash::FxHashMap;
use crate::intra::IntraPool;
use crate::matrix2::Matrix2;
use crate::node::{MatEdge, MatNode, MatNodeId, VecEdge, VecNode, VecNodeId};

/// Default number of entries after which the operation caches are cleared.
pub const DEFAULT_CACHE_LIMIT: usize = 1 << 21;

/// Statistics about the current contents of a [`DdPackage`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PackageStats {
    /// Number of distinct vector nodes ever created.
    pub vec_nodes: usize,
    /// Number of distinct matrix nodes ever created.
    pub mat_nodes: usize,
    /// Number of interned complex values.
    pub complex_values: usize,
    /// Current number of matrix-vector multiplication cache entries.
    pub mat_vec_cache: usize,
    /// Current number of vector addition cache entries.
    pub vec_add_cache: usize,
}

/// Lifetime hit/miss counters of a package's unique and compute tables.
///
/// Maintained unconditionally — each counter is one unconditional `u64`
/// increment on a field the table lookup just touched, which is
/// unmeasurable next to the hash probe it annotates. The counters track
/// the *owning package's* whole lifetime: rewinds ([`DdPackage::
/// reset_transient`]) and re-seats (`clone_from`) do not reset them, so a
/// long-lived worker context accumulates its true table effectiveness.
/// Read them with [`DdPackage::table_stats`], difference snapshots for
/// per-job rates, or reset with [`DdPackage::reset_table_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Vector unique-table lookups that found an existing node.
    pub vec_unique_hits: u64,
    /// Vector unique-table lookups that created a new node.
    pub vec_unique_misses: u64,
    /// Matrix unique-table lookups that found an existing node.
    pub mat_unique_hits: u64,
    /// Matrix unique-table lookups that created a new node.
    pub mat_unique_misses: u64,
    /// Compute-table lookups (all operation caches) that hit.
    pub compute_hits: u64,
    /// Compute-table lookups that missed and computed.
    pub compute_misses: u64,
    /// Stripe-lock acquisitions (unique tables, striped compute tables and
    /// the complex table) that found the stripe held by another thread.
    /// Always zero while `intra_threads == 1`.
    pub stripe_contention: u64,
}

impl TableStats {
    /// Counter-wise `self - earlier`, for per-job deltas over a reused
    /// package (saturating: a fresh snapshot against an older package is
    /// never negative).
    pub fn since(&self, earlier: &TableStats) -> TableStats {
        TableStats {
            vec_unique_hits: self.vec_unique_hits.saturating_sub(earlier.vec_unique_hits),
            vec_unique_misses: self
                .vec_unique_misses
                .saturating_sub(earlier.vec_unique_misses),
            mat_unique_hits: self.mat_unique_hits.saturating_sub(earlier.mat_unique_hits),
            mat_unique_misses: self
                .mat_unique_misses
                .saturating_sub(earlier.mat_unique_misses),
            compute_hits: self.compute_hits.saturating_sub(earlier.compute_hits),
            compute_misses: self.compute_misses.saturating_sub(earlier.compute_misses),
            stripe_contention: self
                .stripe_contention
                .saturating_sub(earlier.stripe_contention),
        }
    }
}

impl std::ops::Add for TableStats {
    type Output = TableStats;

    /// Counter-wise sum, for totals over several packages.
    fn add(self, other: TableStats) -> TableStats {
        TableStats {
            vec_unique_hits: self.vec_unique_hits + other.vec_unique_hits,
            vec_unique_misses: self.vec_unique_misses + other.vec_unique_misses,
            mat_unique_hits: self.mat_unique_hits + other.mat_unique_hits,
            mat_unique_misses: self.mat_unique_misses + other.mat_unique_misses,
            compute_hits: self.compute_hits + other.compute_hits,
            compute_misses: self.compute_misses + other.compute_misses,
            stripe_contention: self.stripe_contention + other.stripe_contention,
        }
    }
}

/// Interior-mutable backing store for the hit/miss counters of
/// [`TableStats`], so the hot lookup paths can count through `&self` while
/// several fork-join workers traverse one package.
///
/// All increments and loads are `Relaxed`: the counters are diagnostics,
/// and their exact values under intra-shot parallelism depend on thread
/// interleaving (they are deliberately excluded from the determinism
/// contract).
#[derive(Debug, Default)]
pub(crate) struct TableCounters {
    pub(crate) vec_unique_hits: AtomicU64,
    pub(crate) vec_unique_misses: AtomicU64,
    pub(crate) mat_unique_hits: AtomicU64,
    pub(crate) mat_unique_misses: AtomicU64,
    pub(crate) compute_hits: AtomicU64,
    pub(crate) compute_misses: AtomicU64,
}

impl TableCounters {
    #[inline]
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> [u64; 6] {
        [
            self.vec_unique_hits.load(Ordering::Relaxed),
            self.vec_unique_misses.load(Ordering::Relaxed),
            self.mat_unique_hits.load(Ordering::Relaxed),
            self.mat_unique_misses.load(Ordering::Relaxed),
            self.compute_hits.load(Ordering::Relaxed),
            self.compute_misses.load(Ordering::Relaxed),
        ]
    }

    fn from_snapshot(values: [u64; 6]) -> Self {
        TableCounters {
            vec_unique_hits: AtomicU64::new(values[0]),
            vec_unique_misses: AtomicU64::new(values[1]),
            mat_unique_hits: AtomicU64::new(values[2]),
            mat_unique_misses: AtomicU64::new(values[3]),
            compute_hits: AtomicU64::new(values[4]),
            compute_misses: AtomicU64::new(values[5]),
        }
    }

    fn store(&mut self, values: [u64; 6]) {
        *self.vec_unique_hits.get_mut() = values[0];
        *self.vec_unique_misses.get_mut() = values[1];
        *self.mat_unique_hits.get_mut() = values[2];
        *self.mat_unique_misses.get_mut() = values[3];
        *self.compute_hits.get_mut() = values[4];
        *self.compute_misses.get_mut() = values[5];
    }
}

/// Table lengths captured at the start of a speculative parallel operation
/// (see [`DdPackage::begin_speculation`]).
#[derive(Debug)]
pub(crate) struct SpecMark {
    ctable_len: usize,
    vec_len: usize,
}

/// A self-contained decision diagram manager.
///
/// All diagrams handed out by a package (as [`VecEdge`] / [`MatEdge`]) are
/// only valid together with that package. Each worker of the stochastic
/// simulator owns one package, which keeps memory bounded and makes
/// concurrent runs trivially data-race free.
///
/// # Persistent and transient regions
///
/// A package can be split into a **persistent region** (precompiled operator
/// diagrams, their interned weights) and a **transient region** (everything
/// created afterwards — per-shot states, scratch values):
/// [`DdPackage::mark_persistent`] freezes the current contents as the
/// persistent region, and [`DdPackage::reset_transient`] cheaply rolls the
/// package back to exactly that frozen state — a watermark truncation that
/// neither frees nor re-hashes the persistent diagrams. This is what lets
/// the simulator compile a circuit's operators once and then run thousands
/// of shots against the same package without rebuilding them.
///
/// # Examples
///
/// ```
/// use qsdd_dd::{DdPackage, Matrix2};
///
/// let mut dd = DdPackage::new();
/// let state = dd.zero_state(2);
/// let h = dd.single_qubit_op(2, 0, Matrix2::hadamard());
/// let cx = dd.controlled_op(2, 1, &[0], Matrix2::pauli_x());
/// let state = dd.mat_vec_mul(h, state);
/// let bell = dd.mat_vec_mul(cx, state);
/// let amps = dd.to_statevector(bell, 2);
/// assert!((amps[0].re - 1.0 / 2f64.sqrt()).abs() < 1e-12);
/// assert!((amps[3].re - 1.0 / 2f64.sqrt()).abs() < 1e-12);
/// ```
#[derive(Debug)]
pub struct DdPackage {
    pub(crate) ctable: ComplexTable,
    pub(crate) vec_nodes: ChunkedArena<VecNode>,
    pub(crate) mat_nodes: ChunkedArena<MatNode>,
    pub(crate) vec_unique: StripedMap<VecNode, VecNodeId>,
    pub(crate) mat_unique: StripedMap<MatNode, MatNodeId>,
    pub(crate) ct_mat_vec: StripedMap<(MatNodeId, VecNodeId), VecEdge>,
    pub(crate) ct_vec_add: StripedMap<(VecEdge, VecEdge), VecEdge>,
    pub(crate) ct_mat_add: FxHashMap<(MatEdge, MatEdge), MatEdge>,
    pub(crate) ct_mat_mat: FxHashMap<(MatNodeId, MatNodeId), MatEdge>,
    pub(crate) ct_inner: FxHashMap<(VecNodeId, VecNodeId), Complex>,
    pub(crate) ct_prob_one: FxHashMap<(VecNodeId, u16), f64>,
    pub(crate) ct_collapse: FxHashMap<(VecNodeId, u16, bool), VecEdge>,
    pub(crate) norm_cache: FxHashMap<VecNodeId, f64>,
    pub(crate) cache_limit: usize,
    pub(crate) caching_enabled: bool,
    /// Vector nodes below this index belong to the persistent region.
    pub(crate) vec_watermark: usize,
    /// Matrix nodes below this index belong to the persistent region.
    pub(crate) mat_watermark: usize,
    /// Complex values below this index belong to the persistent region
    /// (the canonical 0 and 1 always do).
    pub(crate) complex_watermark: usize,
    /// Scratch for the stamp-based reachable-node counter.
    pub(crate) visit_marks: Vec<u32>,
    pub(crate) visit_stamp: u32,
    pub(crate) visit_stack: Vec<VecNodeId>,
    /// Lifetime table hit/miss counters (diagnostics; see [`TableStats`]).
    pub(crate) counters: TableCounters,
    /// Worker pool for intra-shot fork-join traversal; `None` (and thus
    /// fully serial recursion) unless installed via
    /// [`DdPackage::set_intra_pool`].
    pub(crate) intra: Option<Arc<IntraPool>>,
    /// Remaining operations to run serially after a speculation rollback
    /// (creation-heavy phases would otherwise pay for a doomed parallel
    /// attempt on every operation).
    pub(crate) spec_cooldown: u32,
}

impl Clone for DdPackage {
    fn clone(&self) -> Self {
        DdPackage {
            ctable: self.ctable.clone(),
            vec_nodes: self.vec_nodes.clone(),
            mat_nodes: self.mat_nodes.clone(),
            vec_unique: self.vec_unique.clone(),
            mat_unique: self.mat_unique.clone(),
            ct_mat_vec: self.ct_mat_vec.clone(),
            ct_vec_add: self.ct_vec_add.clone(),
            ct_mat_add: self.ct_mat_add.clone(),
            ct_mat_mat: self.ct_mat_mat.clone(),
            ct_inner: self.ct_inner.clone(),
            ct_prob_one: self.ct_prob_one.clone(),
            ct_collapse: self.ct_collapse.clone(),
            norm_cache: self.norm_cache.clone(),
            cache_limit: self.cache_limit,
            caching_enabled: self.caching_enabled,
            vec_watermark: self.vec_watermark,
            mat_watermark: self.mat_watermark,
            complex_watermark: self.complex_watermark,
            visit_marks: Vec::new(),
            visit_stamp: 0,
            visit_stack: Vec::new(),
            counters: TableCounters::from_snapshot(self.counters.snapshot()),
            // A pool is a property of the execution context, not of the
            // diagram contents; clones start serial until one is installed.
            intra: None,
            spec_cooldown: 0,
        }
    }

    // Hand-rolled so re-seating a worker's package onto another program's
    // template reuses the arena and table allocations already sized by
    // earlier work instead of reallocating from scratch.
    fn clone_from(&mut self, source: &Self) {
        self.ctable.clone_from(&source.ctable);
        self.vec_nodes.clone_from(&source.vec_nodes);
        self.mat_nodes.clone_from(&source.mat_nodes);
        self.vec_unique.clone_from(&source.vec_unique);
        self.mat_unique.clone_from(&source.mat_unique);
        self.ct_mat_vec.clone_from(&source.ct_mat_vec);
        self.ct_vec_add.clone_from(&source.ct_vec_add);
        self.ct_mat_add.clone_from(&source.ct_mat_add);
        self.ct_mat_mat.clone_from(&source.ct_mat_mat);
        self.ct_inner.clone_from(&source.ct_inner);
        self.ct_prob_one.clone_from(&source.ct_prob_one);
        self.ct_collapse.clone_from(&source.ct_collapse);
        self.norm_cache.clone_from(&source.norm_cache);
        self.cache_limit = source.cache_limit;
        self.caching_enabled = source.caching_enabled;
        self.vec_watermark = source.vec_watermark;
        self.mat_watermark = source.mat_watermark;
        self.complex_watermark = source.complex_watermark;
        self.visit_marks.clear();
        self.visit_stamp = 0;
        self.visit_stack.clear();
        // Deliberately NOT copied from `source`: the counters describe the
        // destination package's lifetime of table traffic, and a re-seat
        // onto another program's template must not erase what this package
        // has already counted (the template's counters describe compile
        // time, not this worker). Simulation state is unaffected — the
        // counters are pure diagnostics. The same goes for `intra`: the
        // destination keeps whatever pool its execution context installed.
    }
}

impl DdPackage {
    /// Creates an empty package with default settings.
    pub fn new() -> Self {
        let ctable = ComplexTable::new();
        let complex_watermark = ctable.len();
        DdPackage {
            ctable,
            vec_nodes: ChunkedArena::new(),
            mat_nodes: ChunkedArena::new(),
            vec_unique: StripedMap::new(),
            mat_unique: StripedMap::new(),
            ct_mat_vec: StripedMap::new(),
            ct_vec_add: StripedMap::new(),
            ct_mat_add: FxHashMap::default(),
            ct_mat_mat: FxHashMap::default(),
            ct_inner: FxHashMap::default(),
            ct_prob_one: FxHashMap::default(),
            ct_collapse: FxHashMap::default(),
            norm_cache: FxHashMap::default(),
            cache_limit: DEFAULT_CACHE_LIMIT,
            caching_enabled: true,
            vec_watermark: 0,
            mat_watermark: 0,
            complex_watermark,
            visit_marks: Vec::new(),
            visit_stamp: 0,
            visit_stack: Vec::new(),
            counters: TableCounters::default(),
            intra: None,
            spec_cooldown: 0,
        }
    }

    /// Creates a package with a custom complex-equality tolerance.
    pub fn with_tolerance(tolerance: f64) -> Self {
        let mut p = DdPackage::new();
        p.ctable = ComplexTable::with_tolerance(tolerance);
        p
    }

    /// Enables or disables the operation caches (compute tables).
    ///
    /// Disabling is only useful for ablation experiments; normal users should
    /// leave caching on.
    pub fn set_caching(&mut self, enabled: bool) {
        self.caching_enabled = enabled;
        if !enabled {
            self.clear_caches();
        }
    }

    /// Overrides the per-table memoisation cache limit (entries).
    ///
    /// Each compute table (and the node norm cache) is cleared individually
    /// once it exceeds the limit; see [`DEFAULT_CACHE_LIMIT`].
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero.
    pub fn set_cache_limit(&mut self, limit: usize) {
        assert!(limit > 0, "cache limit must be positive");
        self.cache_limit = limit;
    }

    /// Installs (or removes, with `None`) the fork-join pool used for
    /// intra-shot parallel traversal. Without a pool every operation runs
    /// the plain serial recursion; with one, `mat_vec_mul`/`vec_add` fork
    /// their cofactor sub-calls above the pool's level budget. Results are
    /// byte-identical either way: parallel attempts run speculatively and
    /// any attempt that created a table entry is rolled back and re-run
    /// serially, so entry creation — the only order-sensitive event —
    /// always happens in serial order.
    pub fn set_intra_pool(&mut self, pool: Option<Arc<IntraPool>>) {
        self.intra = pool;
    }

    /// The currently installed fork-join pool, if any.
    pub fn intra_pool(&self) -> Option<&Arc<IntraPool>> {
        self.intra.as_ref()
    }

    /// Marks the table state before a speculative parallel operation and
    /// starts journaling compute-cache insertions.
    ///
    /// A parallel attempt that creates **no** new complex-table entry and
    /// **no** new vector node only ever performs lookups that are pure
    /// functions of the pre-operation state, so its result (and every side
    /// effect that survives, i.e. the journaled cache insertions) is
    /// byte-identical to a serial run. If anything *was* created, the
    /// attempt must be rolled back with
    /// [`rollback_speculation`](Self::rollback_speculation) and re-run
    /// serially — creation order under a parallel schedule is not
    /// reproducible, and the complex table's first-comer representatives
    /// depend on it.
    pub(crate) fn begin_speculation(&self) -> SpecMark {
        self.ct_mat_vec.begin_journal();
        self.ct_vec_add.begin_journal();
        SpecMark {
            ctable_len: self.ctable.len(),
            vec_len: self.vec_nodes.len(),
        }
    }

    /// Returns `true` when the attempt since `mark` created nothing and can
    /// be committed as-is.
    pub(crate) fn speculation_clean(&self, mark: &SpecMark) -> bool {
        self.ctable.len() == mark.ctable_len && self.vec_nodes.len() == mark.vec_len
    }

    /// Keeps the side effects of a clean speculative attempt.
    pub(crate) fn commit_speculation(&mut self) {
        self.ct_mat_vec.commit_journal();
        self.ct_vec_add.commit_journal();
    }

    /// Undoes every side effect of a speculative attempt: journaled
    /// compute-cache insertions, vector nodes created since the mark (and
    /// their unique-table entries), and complex-table entries since the
    /// mark. Relaxed diagnostic counters are deliberately not restored.
    pub(crate) fn rollback_speculation(&mut self, mark: SpecMark) {
        self.ct_mat_vec.rollback_journal();
        self.ct_vec_add.rollback_journal();
        for idx in mark.vec_len..self.vec_nodes.len() {
            let node = self.vec_nodes[idx];
            self.vec_unique.remove(&node);
        }
        self.vec_nodes.truncate(mark.vec_len);
        if self.visit_marks.len() > mark.vec_len {
            self.visit_marks.truncate(mark.vec_len);
        }
        self.ctable.truncate(mark.ctable_len);
    }

    /// Returns a read-only view of the complex table.
    pub fn complex_table(&self) -> &ComplexTable {
        &self.ctable
    }

    /// Interns a complex value and returns its id.
    pub fn lookup_complex(&mut self, value: Complex) -> ComplexId {
        self.ctable.lookup(value)
    }

    /// Returns the complex value behind an interned id.
    pub fn complex_value(&self, id: ComplexId) -> Complex {
        self.ctable.value(id)
    }

    /// Returns the node data behind a non-terminal vector node id.
    ///
    /// # Panics
    ///
    /// Panics when `id` is the terminal node or not from this package.
    pub fn vec_node(&self, id: VecNodeId) -> VecNode {
        self.vec_nodes[id.index()]
    }

    /// Returns the node data behind a non-terminal matrix node id.
    ///
    /// # Panics
    ///
    /// Panics when `id` is the terminal node or not from this package.
    pub fn mat_node(&self, id: MatNodeId) -> MatNode {
        self.mat_nodes[id.index()]
    }

    /// Current package statistics.
    pub fn stats(&self) -> PackageStats {
        PackageStats {
            vec_nodes: self.vec_nodes.len(),
            mat_nodes: self.mat_nodes.len(),
            complex_values: self.ctable.len(),
            mat_vec_cache: self.ct_mat_vec.len(),
            vec_add_cache: self.ct_vec_add.len(),
        }
    }

    /// Lifetime unique/compute-table hit and miss counters (see
    /// [`TableStats`]).
    pub fn table_stats(&self) -> TableStats {
        let [vu_h, vu_m, mu_h, mu_m, c_h, c_m] = self.counters.snapshot();
        TableStats {
            vec_unique_hits: vu_h,
            vec_unique_misses: vu_m,
            mat_unique_hits: mu_h,
            mat_unique_misses: mu_m,
            compute_hits: c_h,
            compute_misses: c_m,
            stripe_contention: self.stripe_contention(),
        }
    }

    /// Total stripe-lock acquisitions that had to wait, across all striped
    /// tables of this package.
    pub fn stripe_contention(&self) -> u64 {
        self.vec_unique.contention()
            + self.mat_unique.contention()
            + self.ct_mat_vec.contention()
            + self.ct_vec_add.contention()
            + self.ctable.contention()
    }

    /// Entries per lock stripe for each striped table, as
    /// `(table name, occupancy per stripe)` pairs in a fixed order.
    pub fn stripe_occupancy(&self) -> Vec<(&'static str, Vec<usize>)> {
        vec![
            ("vec_unique", self.vec_unique.stripe_lens().to_vec()),
            ("mat_unique", self.mat_unique.stripe_lens().to_vec()),
            ("mat_vec_cache", self.ct_mat_vec.stripe_lens().to_vec()),
            ("vec_add_cache", self.ct_vec_add.stripe_lens().to_vec()),
            ("complex_table", self.ctable.stripe_lens().to_vec()),
        ]
    }

    /// Resets the table hit/miss counters (and stripe contention) to zero.
    pub fn reset_table_stats(&mut self) {
        self.counters.store([0; 6]);
        self.vec_unique.set_contention(0);
        self.mat_unique.set_contention(0);
        self.ct_mat_vec.set_contention(0);
        self.ct_vec_add.set_contention(0);
        self.ctable.reset_contention();
    }

    /// Clears all operation caches (not the unique tables).
    pub fn clear_caches(&mut self) {
        self.ct_mat_vec.clear();
        self.ct_vec_add.clear();
        self.ct_mat_add.clear();
        self.ct_mat_mat.clear();
        self.ct_inner.clear();
        self.ct_prob_one.clear();
        self.ct_collapse.clear();
        self.norm_cache.clear();
    }

    /// Bounds every memoisation table individually: only a table that grew
    /// beyond the limit is cleared, so a runaway addition cache cannot wipe
    /// a perfectly sized multiplication cache (and vice versa). The node
    /// norm cache is bounded by the same limit.
    pub(crate) fn maybe_trim_caches(&mut self) {
        if self.ct_mat_vec.len_mut() > self.cache_limit {
            self.ct_mat_vec.clear();
        }
        if self.ct_vec_add.len_mut() > self.cache_limit {
            self.ct_vec_add.clear();
        }
        if self.ct_mat_add.len() > self.cache_limit {
            self.ct_mat_add.clear();
        }
        if self.ct_mat_mat.len() > self.cache_limit {
            self.ct_mat_mat.clear();
        }
        if self.ct_inner.len() > self.cache_limit {
            self.ct_inner.clear();
        }
        if self.ct_prob_one.len() > self.cache_limit {
            self.ct_prob_one.clear();
        }
        if self.ct_collapse.len() > self.cache_limit {
            self.ct_collapse.clear();
        }
        if self.norm_cache.len() > self.cache_limit {
            self.norm_cache.clear();
        }
    }

    // ------------------------------------------------------------------
    // Persistent / transient region management
    // ------------------------------------------------------------------

    /// Freezes the current package contents as the **persistent region**.
    ///
    /// Everything created so far — nodes, interned complex values — survives
    /// every subsequent [`reset_transient`](Self::reset_transient) call.
    /// The memoisation caches are cleared so that the frozen state is
    /// exactly reproducible: a fresh clone of the package and a package
    /// rolled back by `reset_transient` are indistinguishable.
    ///
    /// The compile phase of the simulator calls this once, after building
    /// all operator diagrams of a circuit.
    pub fn mark_persistent(&mut self) {
        self.clear_caches();
        self.vec_watermark = self.vec_nodes.len();
        self.mat_watermark = self.mat_nodes.len();
        self.complex_watermark = self.ctable.len();
    }

    /// Rolls the package back to the state frozen by
    /// [`mark_persistent`](Self::mark_persistent).
    ///
    /// All nodes and complex values created after the mark are forgotten
    /// (their ids become dangling — any [`VecEdge`] / [`MatEdge`] obtained
    /// after the mark must not be used again), the memoisation caches are
    /// cleared, and the persistent diagrams stay untouched: no hashing, no
    /// reconstruction, no freeing of their storage. Table and arena
    /// capacities are retained, so a shot loop that resets between shots
    /// stops allocating once it has warmed up.
    ///
    /// On a package without a mark this simply wipes everything back to the
    /// empty state.
    pub fn reset_transient(&mut self) {
        for idx in self.vec_watermark..self.vec_nodes.len() {
            let node = self.vec_nodes[idx];
            self.vec_unique.remove(&node);
        }
        self.vec_nodes.truncate(self.vec_watermark);
        for idx in self.mat_watermark..self.mat_nodes.len() {
            let node = self.mat_nodes[idx];
            self.mat_unique.remove(&node);
        }
        self.mat_nodes.truncate(self.mat_watermark);
        self.ctable.truncate(self.complex_watermark);
        self.visit_marks.truncate(self.vec_watermark);
        self.ct_mat_vec.clear();
        self.ct_vec_add.clear();
        self.ct_mat_add.clear();
        self.ct_mat_mat.clear();
        self.ct_inner.clear();
        self.ct_prob_one.clear();
        self.ct_collapse.clear();
        self.norm_cache.clear();
    }

    /// Number of vector nodes in the transient region (created since the
    /// last [`mark_persistent`](Self::mark_persistent)).
    pub fn transient_vec_nodes(&self) -> usize {
        self.vec_nodes.len() - self.vec_watermark
    }

    /// `true` when no node or complex value has been created since the last
    /// [`mark_persistent`](Self::mark_persistent) — i.e. the package's
    /// diagram contents equal the frozen template exactly (memoisation
    /// caches may still hold entries; they never change computed values).
    pub fn transient_is_empty(&self) -> bool {
        self.vec_nodes.len() == self.vec_watermark
            && self.mat_nodes.len() == self.mat_watermark
            && self.ctable.len() == self.complex_watermark
    }

    // ------------------------------------------------------------------
    // Node construction with normalisation
    // ------------------------------------------------------------------

    /// Creates (or finds) a normalised vector node and returns the edge
    /// pointing to it.
    ///
    /// Normalisation divides both successor weights by the weight of largest
    /// magnitude (ties resolved towards edge 0) and returns that factor as
    /// the weight of the produced edge, which keeps the representation
    /// canonical. An all-zero pair of successors collapses to the zero edge.
    ///
    /// Takes `&self`: node construction is safe from several fork-join
    /// workers at once. The unique-table stripe lock is held across the
    /// lookup-miss-insert sequence, so racing constructions of the same
    /// node always agree on one id.
    pub fn make_vec_node(&self, var: u16, edges: [VecEdge; 2]) -> VecEdge {
        let mut edges = edges;
        for e in &mut edges {
            if e.weight.is_zero() {
                *e = VecEdge::zero();
            }
        }
        if edges[0].is_zero() && edges[1].is_zero() {
            return VecEdge::zero();
        }
        // Pick the normalisation weight: larger magnitude, ties -> edge 0.
        let mag0 = self.ctable.norm_sqr(edges[0].weight);
        let mag1 = self.ctable.norm_sqr(edges[1].weight);
        let norm_idx = if mag0 >= mag1 { 0 } else { 1 };
        let norm_weight = edges[norm_idx].weight;
        debug_assert!(!norm_weight.is_zero());
        let new_edges = [
            VecEdge {
                node: edges[0].node,
                weight: self.ctable.div(edges[0].weight, norm_weight),
            },
            VecEdge {
                node: edges[1].node,
                weight: self.ctable.div(edges[1].weight, norm_weight),
            },
        ];
        let node = VecNode {
            var,
            edges: new_edges,
        };
        let mut stripe = self.vec_unique.lock_stripe(&node);
        let id = match stripe.get(&node) {
            Some(&id) => {
                TableCounters::bump(&self.counters.vec_unique_hits);
                id
            }
            None => {
                TableCounters::bump(&self.counters.vec_unique_misses);
                let id = VecNodeId(self.vec_nodes.push(node) as u32);
                stripe.insert(node, id);
                id
            }
        };
        VecEdge {
            node: id,
            weight: norm_weight,
        }
    }

    /// Creates (or finds) a normalised matrix node and returns the edge
    /// pointing to it.
    ///
    /// The normalisation rule mirrors [`DdPackage::make_vec_node`] over the
    /// four quadrant edges (and shares its `&self` concurrency contract).
    pub fn make_mat_node(&self, var: u16, edges: [MatEdge; 4]) -> MatEdge {
        let mut edges = edges;
        for e in &mut edges {
            if e.weight.is_zero() {
                *e = MatEdge::zero();
            }
        }
        if edges.iter().all(|e| e.is_zero()) {
            return MatEdge::zero();
        }
        let mut norm_idx = 0;
        let mut best = -1.0f64;
        for (i, e) in edges.iter().enumerate() {
            let mag = self.ctable.norm_sqr(e.weight);
            if mag > best {
                best = mag;
                norm_idx = i;
            }
        }
        let norm_weight = edges[norm_idx].weight;
        debug_assert!(!norm_weight.is_zero());
        let mut new_edges = [MatEdge::zero(); 4];
        for i in 0..4 {
            new_edges[i] = MatEdge {
                node: edges[i].node,
                weight: self.ctable.div(edges[i].weight, norm_weight),
            };
        }
        let node = MatNode {
            var,
            edges: new_edges,
        };
        let mut stripe = self.mat_unique.lock_stripe(&node);
        let id = match stripe.get(&node) {
            Some(&id) => {
                TableCounters::bump(&self.counters.mat_unique_hits);
                id
            }
            None => {
                TableCounters::bump(&self.counters.mat_unique_misses);
                let id = MatNodeId(self.mat_nodes.push(node) as u32);
                stripe.insert(node, id);
                id
            }
        };
        MatEdge {
            node: id,
            weight: norm_weight,
        }
    }

    // ------------------------------------------------------------------
    // State constructors
    // ------------------------------------------------------------------

    /// The `n`-qubit all-zero computational basis state `|0...0>`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or larger than `u16::MAX`.
    pub fn zero_state(&mut self, n: usize) -> VecEdge {
        self.basis_state_from_fn(n, |_| false)
    }

    /// The computational basis state selected by `bits`, where `bits[q]` is
    /// the value of qubit `q` (qubit 0 is the most significant).
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != n` or `n == 0`.
    pub fn basis_state(&mut self, n: usize, bits: &[bool]) -> VecEdge {
        assert_eq!(bits.len(), n, "bits length must equal qubit count");
        self.basis_state_from_fn(n, |q| bits[q])
    }

    /// The computational basis state with index `index` (qubit 0 = most
    /// significant bit of the index, as in the paper's state-vector layout).
    pub fn basis_state_from_index(&mut self, n: usize, index: u64) -> VecEdge {
        assert!((1..=64).contains(&n), "qubit count must be within 1..=64");
        self.basis_state_from_fn(n, |q| (index >> (n - 1 - q)) & 1 == 1)
    }

    fn basis_state_from_fn(&mut self, n: usize, bit: impl Fn(usize) -> bool) -> VecEdge {
        assert!(n >= 1, "state must contain at least one qubit");
        assert!(n <= u16::MAX as usize, "qubit count exceeds u16 range");
        let mut edge = VecEdge::one();
        for var in (0..n).rev() {
            let mut children = [VecEdge::zero(); 2];
            children[usize::from(bit(var))] = edge;
            edge = self.make_vec_node(var as u16, children);
        }
        edge
    }

    // ------------------------------------------------------------------
    // Operator constructors
    // ------------------------------------------------------------------

    /// The identity operator on `n` qubits.
    pub fn identity_op(&mut self, n: usize) -> MatEdge {
        self.kron_operator(n, &[])
    }

    /// A single-qubit operator `m` acting on `target`, identity elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if `target >= n`.
    pub fn single_qubit_op(&mut self, n: usize, target: usize, m: Matrix2) -> MatEdge {
        assert!(target < n, "target qubit out of range");
        self.kron_operator(n, &[(target, m)])
    }

    /// A Kronecker-product operator: `m_q` on each qubit `q` listed in
    /// `assignments`, identity on every other qubit.
    ///
    /// # Panics
    ///
    /// Panics if an assigned qubit index is out of range or repeated.
    pub fn kron_operator(&mut self, n: usize, assignments: &[(usize, Matrix2)]) -> MatEdge {
        assert!(n >= 1, "operator must act on at least one qubit");
        assert!(n <= u16::MAX as usize, "qubit count exceeds u16 range");
        for (i, (q, _)) in assignments.iter().enumerate() {
            assert!(*q < n, "assigned qubit {q} out of range for {n} qubits");
            assert!(
                assignments[i + 1..].iter().all(|(other, _)| other != q),
                "qubit {q} assigned twice"
            );
        }
        let mut edge = MatEdge::one();
        for var in (0..n).rev() {
            let m = assignments
                .iter()
                .find(|(q, _)| *q == var)
                .map(|(_, m)| *m)
                .unwrap_or_else(Matrix2::identity);
            edge = self.stack_mat_level(var as u16, &m, edge);
        }
        edge
    }

    /// A (multi-)controlled single-qubit operator: `m` is applied to `target`
    /// when all `controls` are `|1>`, otherwise the state is unchanged.
    ///
    /// Uses the decomposition `U = I + P1(controls) ⊗ (m - I)(target)`, which
    /// keeps the construction cost linear in the number of qubits.
    ///
    /// # Panics
    ///
    /// Panics if `target` or any control is out of range, or if `target`
    /// appears in `controls`.
    pub fn controlled_op(
        &mut self,
        n: usize,
        target: usize,
        controls: &[usize],
        m: Matrix2,
    ) -> MatEdge {
        assert!(target < n, "target qubit out of range");
        assert!(
            !controls.contains(&target),
            "target qubit cannot also be a control"
        );
        if controls.is_empty() {
            return self.single_qubit_op(n, target, m);
        }
        let mut assignments = Vec::with_capacity(controls.len() + 1);
        assignments.push((target, m.sub(&Matrix2::identity())));
        for &c in controls {
            assert!(c < n, "control qubit out of range");
            assignments.push((c, Matrix2::projector_one()));
        }
        let difference = self.kron_operator(n, &assignments);
        let identity = self.identity_op(n);
        self.mat_add(identity, difference)
    }

    /// A SWAP operator between qubits `a` and `b`.
    ///
    /// Built as the sum of the four transfer terms
    /// `|00><00| + |01><10| + |10><01| + |11><11|`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either index is out of range.
    pub fn swap_op(&mut self, n: usize, a: usize, b: usize) -> MatEdge {
        assert_ne!(a, b, "swap requires two distinct qubits");
        assert!(a < n && b < n, "swap qubit out of range");
        let p0 = Matrix2::projector_zero();
        let p1 = Matrix2::projector_one();
        let raise = Matrix2::from_real(0.0, 1.0, 0.0, 0.0); // |0><1|
        let lower = Matrix2::from_real(0.0, 0.0, 1.0, 0.0); // |1><0|
        let t00 = self.kron_operator(n, &[(a, p0), (b, p0)]);
        let t01 = self.kron_operator(n, &[(a, raise), (b, lower)]);
        let t10 = self.kron_operator(n, &[(a, lower), (b, raise)]);
        let t11 = self.kron_operator(n, &[(a, p1), (b, p1)]);
        let s = self.mat_add(t00, t01);
        let s = self.mat_add(s, t10);
        self.mat_add(s, t11)
    }

    fn stack_mat_level(&mut self, var: u16, m: &Matrix2, below: MatEdge) -> MatEdge {
        let mut edges = [MatEdge::zero(); 4];
        for r in 0..2 {
            for c in 0..2 {
                let entry = m.entry(r, c);
                if entry.is_zero() || below.is_zero() {
                    continue;
                }
                let w = self.ctable.lookup(entry);
                let weight = self.ctable.mul(w, below.weight);
                edges[2 * r + c] = MatEdge {
                    node: below.node,
                    weight,
                };
            }
        }
        self.make_mat_node(var, edges)
    }
}

impl Default for DdPackage {
    fn default() -> Self {
        DdPackage::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_state_amplitudes() {
        let mut dd = DdPackage::new();
        let s = dd.zero_state(3);
        let v = dd.to_statevector(s, 3);
        assert!((v[0].re - 1.0).abs() < 1e-12);
        assert!(v[1..].iter().all(|a| a.abs() < 1e-12));
    }

    #[test]
    fn basis_state_round_trip() {
        let mut dd = DdPackage::new();
        for idx in 0..8u64 {
            let s = dd.basis_state_from_index(3, idx);
            let v = dd.to_statevector(s, 3);
            for (i, amp) in v.iter().enumerate() {
                let expected = if i as u64 == idx { 1.0 } else { 0.0 };
                assert!((amp.re - expected).abs() < 1e-12, "index {idx} entry {i}");
                assert!(amp.im.abs() < 1e-12);
            }
        }
    }

    #[test]
    fn basis_state_bits_and_index_agree() {
        let mut dd = DdPackage::new();
        let a = dd.basis_state(3, &[true, false, true]); // |101> -> index 5
        let b = dd.basis_state_from_index(3, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn equal_states_share_nodes() {
        let mut dd = DdPackage::new();
        let a = dd.zero_state(4);
        let b = dd.zero_state(4);
        assert_eq!(a, b);
        // Only four nodes for four qubits: maximal sharing.
        assert_eq!(dd.stats().vec_nodes, 4);
    }

    #[test]
    fn make_vec_node_normalises_to_unit_max_weight() {
        let mut dd = DdPackage::new();
        let half = dd.lookup_complex(Complex::real(0.5));
        let quarter = dd.lookup_complex(Complex::real(0.25));
        let e = dd.make_vec_node(0, [VecEdge::terminal(half), VecEdge::terminal(quarter)]);
        // The larger weight (0.5) is pulled out.
        assert!(dd
            .complex_value(e.weight)
            .approx_eq(Complex::real(0.5), 1e-12));
        let node = dd.vec_node(e.node);
        assert!(node.edges[0].weight.is_one());
        assert!(dd
            .complex_value(node.edges[1].weight)
            .approx_eq(Complex::real(0.5), 1e-12));
    }

    #[test]
    fn make_vec_node_all_zero_collapses() {
        let dd = DdPackage::new();
        let e = dd.make_vec_node(0, [VecEdge::zero(), VecEdge::zero()]);
        assert!(e.is_zero());
    }

    #[test]
    fn identity_operator_preserves_states() {
        let mut dd = DdPackage::new();
        let id = dd.identity_op(3);
        let s = dd.basis_state_from_index(3, 6);
        let t = dd.mat_vec_mul(id, s);
        assert_eq!(s, t);
    }

    #[test]
    fn single_qubit_x_flips_the_right_qubit() {
        let mut dd = DdPackage::new();
        let s = dd.zero_state(3);
        let x1 = dd.single_qubit_op(3, 1, Matrix2::pauli_x());
        let t = dd.mat_vec_mul(x1, s);
        // Flipping qubit 1 (middle) of |000> gives |010> = index 2.
        let v = dd.to_statevector(t, 3);
        assert!((v[2].re - 1.0).abs() < 1e-12);
    }

    #[test]
    fn controlled_x_only_fires_when_control_set() {
        let mut dd = DdPackage::new();
        let cx = dd.controlled_op(2, 1, &[0], Matrix2::pauli_x());
        let s00 = dd.zero_state(2);
        let t = dd.mat_vec_mul(cx, s00);
        assert_eq!(t, s00, "CX must not act when control is |0>");
        let s10 = dd.basis_state_from_index(2, 2);
        let t = dd.mat_vec_mul(cx, s10);
        let expected = dd.basis_state_from_index(2, 3);
        assert_eq!(t, expected, "CX must flip target when control is |1>");
    }

    #[test]
    fn toffoli_matches_truth_table() {
        let mut dd = DdPackage::new();
        let ccx = dd.controlled_op(3, 2, &[0, 1], Matrix2::pauli_x());
        for idx in 0..8u64 {
            let s = dd.basis_state_from_index(3, idx);
            let t = dd.mat_vec_mul(ccx, s);
            let expected_idx = if idx >> 1 == 3 { idx ^ 1 } else { idx };
            let expected = dd.basis_state_from_index(3, expected_idx);
            assert_eq!(t, expected, "input index {idx}");
        }
    }

    #[test]
    fn swap_operator_exchanges_qubits() {
        let mut dd = DdPackage::new();
        let swap = dd.swap_op(3, 0, 2);
        for idx in 0..8u64 {
            let s = dd.basis_state_from_index(3, idx);
            let t = dd.mat_vec_mul(swap, s);
            let b0 = (idx >> 2) & 1;
            let b2 = idx & 1;
            let swapped = (idx & 0b010) | (b2 << 2) | b0;
            let expected = dd.basis_state_from_index(3, swapped);
            assert_eq!(t, expected, "input index {idx}");
        }
    }

    #[test]
    #[should_panic(expected = "target qubit out of range")]
    fn out_of_range_target_panics() {
        let mut dd = DdPackage::new();
        let _ = dd.single_qubit_op(2, 2, Matrix2::pauli_x());
    }

    #[test]
    #[should_panic(expected = "qubit 1 assigned twice")]
    fn duplicate_assignment_panics() {
        let mut dd = DdPackage::new();
        let _ = dd.kron_operator(3, &[(1, Matrix2::pauli_x()), (1, Matrix2::pauli_z())]);
    }

    /// Runs a small "shot": H on qubit 0, CX 0->1, returns the final edge.
    fn evolve_bell(dd: &mut DdPackage, h: MatEdge, cx: MatEdge) -> VecEdge {
        let s = dd.zero_state(2);
        let s = dd.mat_vec_mul(h, s);
        dd.mat_vec_mul(cx, s)
    }

    #[test]
    fn reset_transient_restores_the_marked_state_exactly() {
        let mut dd = DdPackage::new();
        let h = dd.single_qubit_op(2, 0, Matrix2::hadamard());
        let cx = dd.controlled_op(2, 1, &[0], Matrix2::pauli_x());
        dd.mark_persistent();
        let marked = dd.stats();
        let marked_complex = dd.complex_table().len();

        // A pristine clone is the reference for what a "fresh" package with
        // the same compiled operators computes.
        let mut fresh = dd.clone();
        let reference = evolve_bell(&mut fresh, h, cx);

        let first = evolve_bell(&mut dd, h, cx);
        assert_eq!(first, reference);
        assert!(dd.transient_vec_nodes() > 0);

        dd.reset_transient();
        assert_eq!(dd.stats().vec_nodes, marked.vec_nodes);
        assert_eq!(dd.stats().mat_nodes, marked.mat_nodes);
        assert_eq!(dd.complex_table().len(), marked_complex);
        assert_eq!(dd.transient_vec_nodes(), 0);
        assert_eq!(dd.stats().mat_vec_cache, 0);

        // Replaying the same shot after the rollback reproduces the exact
        // same edges (ids and weights), i.e. reuse is unobservable.
        let replay = evolve_bell(&mut dd, h, cx);
        assert_eq!(replay, reference);
    }

    #[test]
    fn reset_transient_without_a_mark_wipes_everything() {
        let mut dd = DdPackage::new();
        let _ = dd.zero_state(3);
        let _ = dd.single_qubit_op(3, 1, Matrix2::hadamard());
        dd.reset_transient();
        assert_eq!(dd.stats().vec_nodes, 0);
        assert_eq!(dd.stats().mat_nodes, 0);
        // Only the canonical 0 and 1 survive in the complex table.
        assert_eq!(dd.complex_table().len(), 2);
    }

    #[test]
    fn transient_nodes_identical_to_persistent_ones_are_reunified() {
        let mut dd = DdPackage::new();
        let persistent = dd.zero_state(4);
        dd.mark_persistent();
        // Recreating the same state after the mark must find the persistent
        // nodes, not duplicate them ...
        let again = dd.zero_state(4);
        assert_eq!(again, persistent);
        assert_eq!(dd.transient_vec_nodes(), 0);
        // ... and resetting must keep them valid.
        dd.reset_transient();
        let after_reset = dd.zero_state(4);
        assert_eq!(after_reset, persistent);
    }

    #[test]
    fn trim_clears_only_the_oversized_table() {
        let mut dd = DdPackage::new();
        // Grow the mat-vec cache while the add cache stays small: multiply
        // distinct single-qubit ops onto distinct states. The limit is
        // lowered only afterwards so the loop itself never trims.
        let mut states = Vec::new();
        for idx in 0..6u64 {
            let s = dd.basis_state_from_index(3, idx);
            let op = dd.single_qubit_op(3, (idx % 3) as usize, Matrix2::hadamard());
            states.push(dd.mat_vec_mul(op, s));
        }
        assert!(
            dd.stats().mat_vec_cache > 4,
            "test setup must overflow the mat-vec cache, got {}",
            dd.stats().mat_vec_cache
        );
        dd.set_cache_limit(4);
        let add_entries = dd.stats().vec_add_cache;
        // The next cached operation triggers the trim: the oversized mat-vec
        // table is cleared, the small add table survives.
        let a = states[0];
        let b = states[1];
        let _ = dd.vec_add(a, b);
        assert_eq!(dd.stats().mat_vec_cache, 0);
        assert!(dd.stats().vec_add_cache >= add_entries);
    }

    #[test]
    fn norm_cache_is_bounded_by_the_cache_limit() {
        let mut dd = DdPackage::new();
        dd.set_cache_limit(2);
        // Computing norms of several distinct states fills the norm cache
        // beyond the limit; the next trimmed operation must clear it.
        for idx in 0..4u64 {
            let s = dd.basis_state_from_index(3, idx);
            let _ = dd.norm_sqr(s);
        }
        assert!(dd.norm_cache.len() > 2);
        let s = dd.zero_state(3);
        let id = dd.identity_op(3);
        let _ = dd.mat_vec_mul(id, s);
        assert!(dd.norm_cache.len() <= 2, "norm cache was not trimmed");
    }

    #[test]
    fn table_stats_count_unique_and_compute_traffic() {
        let mut dd = DdPackage::new();
        let s = dd.zero_state(4);
        let h = dd.single_qubit_op(4, 0, Matrix2::hadamard());
        let stats = dd.table_stats();
        assert!(stats.vec_unique_misses >= 4, "zero_state builds 4 nodes");
        assert!(stats.mat_unique_misses > 0);
        // Applying the same operator twice: the second pass replays cached
        // results, so compute hits must appear.
        let t = dd.mat_vec_mul(h, s);
        let _ = dd.mat_vec_mul(h, t);
        let _ = dd.mat_vec_mul(h, s);
        let after = dd.table_stats();
        assert!(after.compute_misses > stats.compute_misses);
        assert!(after.compute_hits > 0, "repeated ops must hit the cache");

        // Deltas subtract counter-wise and saturate.
        let delta = after.since(&stats);
        assert_eq!(
            delta.compute_misses,
            after.compute_misses - stats.compute_misses
        );
        assert_eq!(stats.since(&after).compute_misses, 0);

        // Counters describe the package lifetime: a rewind keeps them, a
        // reset clears them, clone copies them, and clone_from preserves
        // the destination's own history.
        dd.mark_persistent();
        dd.reset_transient();
        assert_eq!(dd.table_stats(), after);
        let cloned = dd.clone();
        assert_eq!(cloned.table_stats(), after);
        let mut other = DdPackage::new();
        let probe = other.zero_state(2);
        let _ = probe;
        let own = other.table_stats();
        other.clone_from(&dd);
        assert_eq!(other.table_stats(), own, "re-seat must keep own counters");
        dd.reset_table_stats();
        assert_eq!(dd.table_stats(), TableStats::default());
    }
}
