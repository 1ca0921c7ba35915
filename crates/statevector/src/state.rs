//! A dense state-vector representation of a pure quantum state.
//!
//! This is the array-based representation used by the baseline simulators
//! the paper compares against (Qiskit's statevector simulator and the Atos
//! QLM LinAlg simulator): all `2^n` amplitudes are stored explicitly and
//! every gate touches half (or a quarter) of them.
//!
//! The gate kernels are written as *flat pair-stride loops*: a pair index
//! `p` expands to the amplitude pair `(i, i | mask)` by inserting a zero
//! bit at the target qubit's position, so the inner loop has no branch on
//! the bit test and autovectorizes. The same pair space is partitioned
//! into fixed [`CHUNK`]-sized chunks, which an optional [`IntraPool`]
//! splits across threads; because the chunk boundaries do not depend on
//! the thread count and reductions merge per-chunk partial sums in chunk
//! order, every result is byte-identical to the serial path.

use std::sync::Arc;

use qsdd_dd::{Complex, IntraPool, Matrix2};
use rand::Rng;

/// Fixed width (in pair or amplitude indices) of one kernel chunk. Both
/// the serial and pooled paths partition work on these boundaries, so
/// floating-point reductions see the same association regardless of
/// `intra_threads`.
const CHUNK: usize = 1 << 14;

/// A raw pointer the fork-join closures may share across threads.
///
/// Safety is established at each use site: chunks address disjoint
/// amplitude pairs (or disjoint partial-sum slots), so no two threads
/// touch the same element.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    // A method (rather than direct field access) so closures capture the
    // Sync wrapper, not the raw pointer, under disjoint field capture.
    fn get(&self) -> *mut T {
        self.0
    }
}

unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

/// Applies `m` to every amplitude pair whose pair index lies in `lo..hi`.
///
/// Pair index `p` expands to `i` by shifting the bits above the target
/// position left by one (inserting a zero at `mask`); `j = i | mask` is
/// the partner amplitude.
///
/// # Safety
///
/// Every pair index in `lo..hi` must expand to in-bounds amplitudes, and
/// no other thread may access those pairs concurrently.
unsafe fn single_qubit_pairs(amps: *mut Complex, mask: usize, m: &Matrix2, lo: usize, hi: usize) {
    let (m00, m01) = (m.entry(0, 0), m.entry(0, 1));
    let (m10, m11) = (m.entry(1, 0), m.entry(1, 1));
    let low = mask - 1;
    for p in lo..hi {
        let i = ((p & !low) << 1) | (p & low);
        let j = i | mask;
        let a0 = *amps.add(i);
        let a1 = *amps.add(j);
        *amps.add(i) = m00 * a0 + m01 * a1;
        *amps.add(j) = m10 * a0 + m11 * a1;
    }
}

/// Like [`single_qubit_pairs`], but only touches pairs whose index has
/// every bit of `control_mask` set.
///
/// # Safety
///
/// Same contract as [`single_qubit_pairs`].
unsafe fn controlled_pairs(
    amps: *mut Complex,
    mask: usize,
    control_mask: usize,
    m: &Matrix2,
    lo: usize,
    hi: usize,
) {
    let (m00, m01) = (m.entry(0, 0), m.entry(0, 1));
    let (m10, m11) = (m.entry(1, 0), m.entry(1, 1));
    let low = mask - 1;
    for p in lo..hi {
        let i = ((p & !low) << 1) | (p & low);
        if i & control_mask == control_mask {
            let j = i | mask;
            let a0 = *amps.add(i);
            let a1 = *amps.add(j);
            *amps.add(i) = m00 * a0 + m01 * a1;
            *amps.add(j) = m10 * a0 + m11 * a1;
        }
    }
}

/// Exchanges the amplitudes of `|..a=1,b=0..>` and `|..a=0,b=1..>` for
/// every pair index in `lo..hi` (the pair space of qubit mask `ma`).
///
/// # Safety
///
/// Same contract as [`single_qubit_pairs`]: sources (`ma` set) and
/// destinations (`mb` set, `ma` clear) are disjoint across pair indices.
unsafe fn swap_pairs(amps: *mut Complex, ma: usize, mb: usize, lo: usize, hi: usize) {
    let low = ma - 1;
    for p in lo..hi {
        let i = ((p & !low) << 1) | (p & low) | ma;
        if i & mb == 0 {
            let j = (i & !ma) | mb;
            let tmp = *amps.add(i);
            *amps.add(i) = *amps.add(j);
            *amps.add(j) = tmp;
        }
    }
}

/// A dense `2^n` amplitude vector.
///
/// Qubit 0 is the most significant bit of the basis-state index, matching
/// the convention of the decision diagram package.
///
/// # Examples
///
/// ```
/// use qsdd_dd::Matrix2;
/// use qsdd_statevector::StateVector;
///
/// let mut state = StateVector::new(2);
/// state.apply_single(0, &Matrix2::hadamard());
/// state.apply_controlled(&[0], 1, &Matrix2::pauli_x());
/// assert!((state.probability_of_index(0b00) - 0.5).abs() < 1e-12);
/// assert!((state.probability_of_index(0b11) - 0.5).abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct StateVector {
    num_qubits: usize,
    amplitudes: Vec<Complex>,
    pool: Option<Arc<IntraPool>>,
}

impl PartialEq for StateVector {
    // The pool is an execution detail, not part of the state's value.
    fn eq(&self, other: &Self) -> bool {
        self.num_qubits == other.num_qubits && self.amplitudes == other.amplitudes
    }
}

impl StateVector {
    /// Creates the all-zero basis state `|0...0>` over `n` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 30` (the dense representation would not
    /// fit in memory).
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "state must contain at least one qubit");
        assert!(
            n <= 30,
            "dense state vectors above 30 qubits are not supported"
        );
        let mut amplitudes = vec![Complex::ZERO; 1usize << n];
        amplitudes[0] = Complex::ONE;
        StateVector {
            num_qubits: n,
            amplitudes,
            pool: None,
        }
    }

    /// Creates a state from explicit amplitudes (length must be `2^n`).
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two of at least 2.
    pub fn from_amplitudes(amplitudes: Vec<Complex>) -> Self {
        assert!(
            amplitudes.len() >= 2 && amplitudes.len().is_power_of_two(),
            "amplitude count must be a power of two"
        );
        StateVector {
            num_qubits: amplitudes.len().trailing_zeros() as usize,
            amplitudes,
            pool: None,
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Installs (or clears) the fork-join pool used by the gate kernels
    /// and reductions. A pool with one thread is equivalent to `None`.
    ///
    /// Results are byte-identical with and without a pool: the chunk
    /// partition is fixed and partial sums merge in chunk order.
    pub fn set_intra_pool(&mut self, pool: Option<Arc<IntraPool>>) {
        self.pool = pool;
    }

    /// The pool that will actually run work in parallel, if any.
    fn active_pool(&self) -> Option<Arc<IntraPool>> {
        self.pool.clone().filter(|p| p.threads() > 1)
    }

    /// Rewinds the state to `|0...0>` in place, without reallocating.
    ///
    /// This is the dense back-end's per-shot reset: a reused execution
    /// context calls it between shots instead of building a new vector.
    pub fn reset_to_zero(&mut self) {
        self.amplitudes.fill(Complex::ZERO);
        self.amplitudes[0] = Complex::ONE;
    }

    /// The raw amplitudes in basis order.
    pub fn amplitudes(&self) -> &[Complex] {
        &self.amplitudes
    }

    /// The amplitude of basis state `index`.
    pub fn amplitude(&self, index: u64) -> Complex {
        self.amplitudes[index as usize]
    }

    /// The probability of observing basis state `index`.
    pub fn probability_of_index(&self, index: u64) -> f64 {
        self.amplitudes[index as usize].norm_sqr()
    }

    fn bit_mask(&self, qubit: usize) -> usize {
        assert!(qubit < self.num_qubits, "qubit index out of range");
        1usize << (self.num_qubits - 1 - qubit)
    }

    /// Runs `kernel` over the pair-index range `0..pairs`, split into
    /// fixed chunks across the pool when one is installed.
    ///
    /// # Safety contract (internal)
    ///
    /// `kernel(lo, hi)` must only touch amplitudes reachable from pair
    /// indices in `lo..hi`, and distinct pair indices must address
    /// disjoint amplitudes.
    fn run_pair_kernel(
        &mut self,
        pairs: usize,
        kernel: impl Fn(*mut Complex, usize, usize) + Sync,
    ) {
        let pool = self.active_pool();
        let base = SendPtr(self.amplitudes.as_mut_ptr());
        match pool {
            Some(pool) => {
                let chunks = pairs.div_ceil(CHUNK);
                pool.for_each_chunk(chunks, &|c| {
                    let lo = c * CHUNK;
                    kernel(base.get(), lo, (lo + CHUNK).min(pairs));
                });
            }
            None => kernel(base.get(), 0, pairs),
        }
    }

    /// Applies a single-qubit unitary (or Kraus operator) to `target`.
    pub fn apply_single(&mut self, target: usize, m: &Matrix2) {
        let mask = self.bit_mask(target);
        let pairs = self.amplitudes.len() >> 1;
        // SAFETY: every pair index below `pairs` expands to two in-bounds
        // amplitudes, and distinct pair indices never share an amplitude.
        self.run_pair_kernel(pairs, |amps, lo, hi| unsafe {
            single_qubit_pairs(amps, mask, m, lo, hi)
        });
    }

    /// Applies a single-qubit operator to `target`, conditioned on every
    /// qubit in `controls` being `|1>`.
    ///
    /// # Panics
    ///
    /// Panics if a control equals the target or an index is out of range.
    pub fn apply_controlled(&mut self, controls: &[usize], target: usize, m: &Matrix2) {
        if controls.is_empty() {
            return self.apply_single(target, m);
        }
        assert!(
            !controls.contains(&target),
            "control qubit equals the target"
        );
        let mask = self.bit_mask(target);
        let control_mask: usize = controls.iter().map(|&c| self.bit_mask(c)).sum();
        let pairs = self.amplitudes.len() >> 1;
        // SAFETY: as in `apply_single`; the control test only skips pairs.
        self.run_pair_kernel(pairs, |amps, lo, hi| unsafe {
            controlled_pairs(amps, mask, control_mask, m, lo, hi)
        });
    }

    /// Exchanges two qubits.
    pub fn apply_swap(&mut self, a: usize, b: usize) {
        assert_ne!(a, b, "swap requires two distinct qubits");
        let ma = self.bit_mask(a);
        let mb = self.bit_mask(b);
        let pairs = self.amplitudes.len() >> 1;
        // SAFETY: sources have `ma` set and destinations have `ma` clear,
        // so the index sets are disjoint across the whole pair space.
        self.run_pair_kernel(pairs, |amps, lo, hi| unsafe {
            swap_pairs(amps, ma, mb, lo, hi)
        });
    }

    /// Reduces the index range `0..len` by fixed [`CHUNK`]-wide chunks:
    /// `chunk(lo, hi)` computes one partial, and the partials merge in
    /// chunk order with `merge`. Serial and pooled paths produce
    /// bit-identical results because the chunk boundaries and both
    /// summation orders are independent of the pool.
    fn chunked_reduce<T: Copy + Default + Send>(
        &self,
        len: usize,
        chunk: impl Fn(usize, usize) -> T + Sync,
        merge: impl Fn(T, T) -> T,
    ) -> T {
        let chunks = len.div_ceil(CHUNK);
        let mut partials = vec![T::default(); chunks];
        let reduce_chunk = |c: usize| {
            let lo = c * CHUNK;
            chunk(lo, (lo + CHUNK).min(len))
        };
        match self.active_pool() {
            Some(pool) => {
                let out = SendPtr(partials.as_mut_ptr());
                pool.for_each_chunk(chunks, &|c| {
                    // SAFETY: each chunk index writes only its own slot.
                    unsafe { *out.get().add(c) = reduce_chunk(c) };
                });
            }
            None => {
                for (c, slot) in partials.iter_mut().enumerate() {
                    *slot = reduce_chunk(c);
                }
            }
        }
        partials.into_iter().fold(T::default(), merge)
    }

    /// Squared Euclidean norm of the state.
    pub fn norm_sqr(&self) -> f64 {
        let amps = &self.amplitudes;
        self.chunked_reduce(
            amps.len(),
            |lo, hi| amps[lo..hi].iter().fold(0.0, |acc, a| acc + a.norm_sqr()),
            |a, b| a + b,
        )
    }

    /// The squared weights `(s0, s1)` of the `qubit = 0` and `qubit = 1`
    /// halves of the state, in one pass over the amplitude pairs. Their
    /// sum is the squared norm.
    pub fn qubit_weights(&self, qubit: usize) -> (f64, f64) {
        let mask = self.bit_mask(qubit);
        let low = mask - 1;
        let amps = &self.amplitudes;
        self.chunked_reduce(
            amps.len() >> 1,
            |lo, hi| {
                let (mut s0, mut s1) = (0.0, 0.0);
                for p in lo..hi {
                    let i = ((p & !low) << 1) | (p & low);
                    s0 += amps[i].norm_sqr();
                    s1 += amps[i | mask].norm_sqr();
                }
                (s0, s1)
            },
            |a, b| (a.0 + b.0, a.1 + b.1),
        )
    }

    /// Probability of observing `|1>` on `qubit` (relative to the norm).
    pub fn probability_one(&self, qubit: usize) -> f64 {
        let (s0, s1) = self.qubit_weights(qubit);
        let total = s0 + s1;
        if total <= 0.0 {
            0.0
        } else {
            (s1 / total).clamp(0.0, 1.0)
        }
    }

    /// Draws one complete measurement outcome without collapsing the state.
    pub fn sample_measurement<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let total = self.norm_sqr();
        let mut threshold = rng.gen::<f64>() * total;
        for (i, a) in self.amplitudes.iter().enumerate() {
            threshold -= a.norm_sqr();
            if threshold <= 0.0 {
                return i as u64;
            }
        }
        (self.amplitudes.len() - 1) as u64
    }

    /// Measures one qubit, collapsing the state, and returns the outcome.
    ///
    /// One weights pass picks the outcome; one pass applies the projector
    /// pre-scaled by its renormalisation.
    pub fn measure_qubit<R: Rng + ?Sized>(&mut self, qubit: usize, rng: &mut R) -> bool {
        self.collapse(qubit, rng, false)
    }

    /// Resets a qubit to `|0>`: measures it and, on outcome 1, moves the
    /// `|1>` half onto `|0>` in the same pass as the projection.
    pub fn reset_qubit<R: Rng + ?Sized>(&mut self, qubit: usize, rng: &mut R) {
        self.collapse(qubit, rng, true);
    }

    /// Measures `qubit` and renormalises in one pass; with `reset`, the
    /// outcome-1 projector is followed by X (`X·Π1 = |0><1|`).
    fn collapse<R: Rng + ?Sized>(&mut self, qubit: usize, rng: &mut R, reset: bool) -> bool {
        let (s0, s1) = self.qubit_weights(qubit);
        let outcome = rng.gen::<f64>() < s1 / (s0 + s1);
        let matrix = match (outcome, reset) {
            (false, _) => Matrix2::from_real(1.0 / s0.sqrt(), 0.0, 0.0, 0.0),
            (true, false) => Matrix2::from_real(0.0, 0.0, 0.0, 1.0 / s1.sqrt()),
            (true, true) => Matrix2::from_real(0.0, 1.0 / s1.sqrt(), 0.0, 0.0),
        };
        self.apply_single(qubit, &matrix);
        outcome
    }

    /// Resolves one amplitude-damping exposure of strength `gamma` on
    /// `qubit` and returns `(p_decay, decayed)`.
    ///
    /// The decay branch `A0 = sqrt(gamma)|0><1|` has squared norm
    /// `gamma * s1`, so its probability is read off the qubit's `|1>`
    /// weight instead of being built: one [`qubit_weights`] pass, then one
    /// pass applying only the chosen Kraus operator, pre-scaled by its
    /// renormalisation. The decay branch fires when `draw < p_decay`
    /// (`draw` uniform in `[0, 1)`). `p_decay` is taken relative to the
    /// state's norm, so a certain decay (`gamma = 1`, `s0 = 0`) is exactly
    /// 1 and the chosen branch never has zero norm.
    ///
    /// [`qubit_weights`]: Self::qubit_weights
    pub fn apply_amplitude_damping(&mut self, qubit: usize, gamma: f64, draw: f64) -> (f64, bool) {
        let (s0, s1) = self.qubit_weights(qubit);
        let p_decay = gamma * s1 / (s0 + s1);
        let decayed = draw < p_decay;
        let branch = if decayed {
            Matrix2::amplitude_damping_a0(gamma).scale(Complex::real(1.0 / (gamma * s1).sqrt()))
        } else {
            Matrix2::amplitude_damping_a1(gamma)
                .scale(Complex::real(1.0 / (s0 + (1.0 - gamma) * s1).sqrt()))
        };
        self.apply_single(qubit, &branch);
        (p_decay, decayed)
    }

    /// Re-expresses the state under a qubit relabeling.
    ///
    /// `layout[q] = j` means: qubit `q` of the *returned* state takes the
    /// amplitude role of qubit `j` of `self`. Formally, for every basis
    /// index `b` of the result, `result[b] = self[b']` where bit `q` of `b`
    /// equals bit `layout[q]` of `b'`.
    ///
    /// This is how the transpiler's elided trailing SWAP gates are undone:
    /// running the optimized circuit and permuting with the recorded output
    /// layout reproduces the original circuit's state exactly.
    ///
    /// # Panics
    ///
    /// Panics if `layout` is not a permutation of `0..num_qubits`.
    pub fn permute_qubits(&self, layout: &[usize]) -> StateVector {
        let n = self.num_qubits;
        assert_eq!(layout.len(), n, "layout length must match the qubit count");
        let mut seen = vec![false; n];
        for &j in layout {
            assert!(j < n && !seen[j], "layout is not a permutation");
            seen[j] = true;
        }
        let mut amplitudes = vec![Complex::ZERO; self.amplitudes.len()];
        for (b, amp) in amplitudes.iter_mut().enumerate() {
            let mut source = 0usize;
            for (q, &j) in layout.iter().enumerate() {
                if b >> (n - 1 - q) & 1 == 1 {
                    source |= 1 << (n - 1 - j);
                }
            }
            *amp = self.amplitudes[source];
        }
        StateVector {
            num_qubits: n,
            amplitudes,
            pool: self.pool.clone(),
        }
    }

    /// Inner product `<self|other>`.
    ///
    /// # Panics
    ///
    /// Panics if the qubit counts differ.
    pub fn inner_product(&self, other: &StateVector) -> Complex {
        assert_eq!(
            self.num_qubits, other.num_qubits,
            "states have different sizes"
        );
        self.amplitudes
            .iter()
            .zip(&other.amplitudes)
            .fold(Complex::ZERO, |acc, (a, b)| acc + a.conj() * *b)
    }

    /// Fidelity `|<self|other>|^2`.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        self.inner_product(other).norm_sqr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn new_state_is_all_zero_basis_state() {
        let s = StateVector::new(3);
        assert_eq!(s.amplitudes().len(), 8);
        assert!((s.probability_of_index(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn x_flips_the_most_significant_qubit() {
        let mut s = StateVector::new(3);
        s.apply_single(0, &Matrix2::pauli_x());
        assert!((s.probability_of_index(0b100) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hadamard_then_cx_creates_bell_state() {
        let mut s = StateVector::new(2);
        s.apply_single(0, &Matrix2::hadamard());
        s.apply_controlled(&[0], 1, &Matrix2::pauli_x());
        assert!((s.probability_of_index(0) - 0.5).abs() < 1e-12);
        assert!((s.probability_of_index(3) - 0.5).abs() < 1e-12);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn controlled_gate_does_nothing_without_control() {
        let mut s = StateVector::new(2);
        s.apply_controlled(&[0], 1, &Matrix2::pauli_x());
        assert!((s.probability_of_index(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn swap_exchanges_amplitudes() {
        let mut s = StateVector::new(2);
        s.apply_single(1, &Matrix2::pauli_x()); // |01>
        s.apply_swap(0, 1); // -> |10>
        assert!((s.probability_of_index(0b10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn measurement_statistics_match_probabilities() {
        let mut s = StateVector::new(1);
        s.apply_single(0, &Matrix2::ry(2.0 * (0.3f64).sqrt().asin()));
        // Probability of |1> is 0.3 by construction.
        assert!((s.probability_one(0) - 0.3).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(5);
        let ones: usize = (0..20_000)
            .map(|_| usize::from(s.sample_measurement(&mut rng) == 1))
            .sum();
        let rate = ones as f64 / 20_000.0;
        assert!((rate - 0.3).abs() < 0.02, "observed rate {rate}");
    }

    #[test]
    fn measuring_collapses_the_state() {
        let mut s = StateVector::new(2);
        s.apply_single(0, &Matrix2::hadamard());
        s.apply_controlled(&[0], 1, &Matrix2::pauli_x());
        let mut rng = StdRng::seed_from_u64(11);
        let outcome = s.measure_qubit(0, &mut rng);
        let p1 = s.probability_one(1);
        if outcome {
            assert!((p1 - 1.0).abs() < 1e-10);
        } else {
            assert!(p1.abs() < 1e-10);
        }
    }

    #[test]
    fn reset_returns_qubit_to_zero() {
        let mut s = StateVector::new(1);
        s.apply_single(0, &Matrix2::hadamard());
        let mut rng = StdRng::seed_from_u64(3);
        s.reset_qubit(0, &mut rng);
        assert!(s.probability_one(0).abs() < 1e-12);
    }

    #[test]
    fn permute_qubits_matches_an_explicit_swap() {
        // Prepare |01> then compare swap-as-gate against swap-as-relabeling.
        let mut swapped = StateVector::new(2);
        swapped.apply_single(1, &Matrix2::pauli_x());
        let relabeled = swapped.permute_qubits(&[1, 0]);
        swapped.apply_swap(0, 1);
        assert!((swapped.fidelity(&relabeled) - 1.0).abs() < 1e-12);
        assert!((relabeled.probability_of_index(0b10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn identity_layout_is_a_no_op() {
        let mut s = StateVector::new(3);
        s.apply_single(0, &Matrix2::hadamard());
        s.apply_controlled(&[0], 2, &Matrix2::pauli_x());
        let p = s.permute_qubits(&[0, 1, 2]);
        assert_eq!(s, p);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn invalid_layout_panics() {
        let s = StateVector::new(2);
        s.permute_qubits(&[0, 0]);
    }

    #[test]
    fn fidelity_of_identical_states_is_one() {
        let mut a = StateVector::new(2);
        a.apply_single(0, &Matrix2::hadamard());
        let b = a.clone();
        assert!((a.fidelity(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "qubit index out of range")]
    fn out_of_range_qubit_panics() {
        let mut s = StateVector::new(2);
        s.apply_single(5, &Matrix2::pauli_x());
    }

    /// Runs the same non-trivial circuit with and without a pool on a
    /// state large enough to span several kernel chunks (17 qubits =
    /// 2^17 amplitudes = 8 chunks), then compares every amplitude and
    /// every reduction bit for bit — the core determinism contract of
    /// the intra-shot parallel kernels. The circuit ends in damping
    /// steps (both branches) and a reset, so the fused weights-plus-
    /// scaled-projection paths are covered too.
    #[test]
    fn pooled_kernels_are_bit_identical_to_serial() {
        fn build(pool: Option<Arc<IntraPool>>) -> StateVector {
            let n = 17;
            let mut s = StateVector::new(n);
            s.set_intra_pool(pool);
            for q in 0..n {
                s.apply_single(q, &Matrix2::hadamard());
            }
            for q in 0..n - 1 {
                s.apply_controlled(&[q], q + 1, &Matrix2::phase(0.37 * (q as f64 + 1.0)));
            }
            s.apply_controlled(&[0, 8], 16, &Matrix2::ry(0.81));
            s.apply_swap(0, n - 1);
            s.apply_single(3, &Matrix2::u3(0.4, 1.1, -0.6));
            assert!(s.apply_amplitude_damping(7, 0.3, 0.0).1);
            assert!(!s.apply_amplitude_damping(2, 0.3, 0.99).1);
            s.reset_qubit(11, &mut StdRng::seed_from_u64(7));
            s
        }
        let serial = build(None);
        for threads in [2, 4] {
            let pooled = build(Some(Arc::new(IntraPool::new(threads))));
            for (a, b) in serial.amplitudes().iter().zip(pooled.amplitudes()) {
                assert_eq!(a.re.to_bits(), b.re.to_bits());
                assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
            assert_eq!(serial.norm_sqr().to_bits(), pooled.norm_sqr().to_bits());
            assert_eq!(
                serial.probability_one(5).to_bits(),
                pooled.probability_one(5).to_bits()
            );
            for q in [0, 9, 16] {
                let (a0, a1) = serial.qubit_weights(q);
                let (b0, b1) = pooled.qubit_weights(q);
                assert_eq!((a0.to_bits(), a1.to_bits()), (b0.to_bits(), b1.to_bits()));
            }
        }
    }

    #[test]
    fn qubit_weights_split_the_norm() {
        let mut s = StateVector::new(3);
        s.apply_single(1, &Matrix2::ry(2.0 * (0.3f64).sqrt().asin()));
        s.apply_single(2, &Matrix2::hadamard());
        let (s0, s1) = s.qubit_weights(1);
        assert!((s0 - 0.7).abs() < 1e-12 && (s1 - 0.3).abs() < 1e-12);
        let (s0, s1) = s.qubit_weights(0);
        assert!((s0 - 1.0).abs() < 1e-12 && s1 == 0.0);
    }

    /// A 1-thread pool must behave exactly like no pool at all.
    #[test]
    fn one_thread_pool_is_a_no_op() {
        let mut s = StateVector::new(4);
        s.set_intra_pool(Some(Arc::new(IntraPool::new(1))));
        s.apply_single(0, &Matrix2::hadamard());
        s.apply_controlled(&[0], 3, &Matrix2::pauli_x());
        assert!((s.probability_of_index(0b0000) - 0.5).abs() < 1e-12);
        assert!((s.probability_of_index(0b1001) - 0.5).abs() < 1e-12);
    }
}
