//! Measurement, sampling and collapse operations on vector decision
//! diagrams.
//!
//! Sampling a complete computational-basis measurement only requires a walk
//! from the root to the terminal: at each node the branch is chosen with
//! probability proportional to the squared norm of the corresponding
//! sub-diagram (which is cached per node). This is what makes drawing
//! measurement outcomes from a decision diagram cheap even for many qubits.

use rand::Rng;

use crate::node::VecEdge;
use crate::package::DdPackage;

/// Slot marker for an absent (terminal or zero-edge) successor.
const TERMINAL_SLOT: u32 = u32::MAX;

/// One flattened node of a [`SamplePlan`]: the branch probabilities and
/// successor slots [`DdPackage::sample_measurement`] would evaluate at this
/// node, with deterministic single-branch chains below each successor
/// collapsed into precomputed bits.
#[derive(Clone, Copy, Debug, Default)]
struct PlanNode {
    probabilities: [f64; 2],
    /// Landing slot per branch: the next node with a genuine branch
    /// decision (deterministic chains are skipped over).
    next: [u32; 2],
    /// Outcome bits contributed by taking a branch: the branch bit itself
    /// followed by its deterministic chain's bits.
    bits: [u64; 2],
    /// Levels consumed per branch (`1 +` chain length). The chain's levels
    /// still burn one generator draw each — their comparisons are
    /// predetermined, their stream consumption is not.
    levels: [u8; 2],
}

/// A precomputed walk table for drawing measurement outcomes from one
/// decision-diagram state (see [`DdPackage::sample_plan`]).
///
/// The plan borrows nothing: it stays valid for repeated draws as long as
/// the state it was built from is the intended one (it snapshots the
/// probabilities, so later package mutations do not affect it).
#[derive(Clone, Debug)]
pub struct SamplePlan {
    nodes: Vec<PlanNode>,
    root: u32,
    num_qubits: usize,
}

impl SamplePlan {
    /// Number of qubits an outcome covers.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Draws one complete measurement outcome.
    ///
    /// Bit-identical to [`DdPackage::sample_measurement`] on the plan's
    /// state for every generator state: the same branch probabilities feed
    /// the same comparisons, and the generator is advanced identically —
    /// one draw per decided level (including the deterministic chain levels
    /// the walk collapses, whose draws are burned without a comparison
    /// because their outcome is predetermined), none past a terminal and
    /// none for zero-probability levels.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let mut index: u64 = 0;
        let mut level = 0;
        let mut slot = self.root;
        while level < self.num_qubits {
            if slot == TERMINAL_SLOT {
                // Remaining qubits are unreachable; keep their bits zero,
                // exactly like the package walk. A full-width pad (64
                // remaining levels) only occurs with `index == 0`, which a
                // plain shift cannot express.
                let remaining = self.num_qubits - level;
                index = if remaining >= 64 {
                    0
                } else {
                    index << remaining
                };
                break;
            }
            let node = &self.nodes[slot as usize];
            let [p0, p1] = node.probabilities;
            let total = p0 + p1;
            let bit = if total <= 0.0 {
                0
            } else {
                usize::from(rng.gen::<f64>() * total >= p0)
            };
            let taken = node.levels[bit] as usize;
            for _ in 1..taken {
                // Deterministic chain level: the package walk draws and
                // compares against a foregone conclusion; only the draw is
                // observable.
                let _ = rng.gen::<f64>();
            }
            // A 64-level step (the root deciding a full-width register in
            // one chain) replaces the whole index; a plain shift by 64
            // would overflow.
            index = if taken >= 64 {
                node.bits[bit]
            } else {
                (index << taken) | node.bits[bit]
            };
            level += taken;
            slot = node.next[bit];
        }
        index
    }
}

impl DdPackage {
    /// Probability of observing `|1>` on `qubit` when measuring the state
    /// `v` over `n` qubits.
    ///
    /// The state does not need to be normalised; the probability is relative
    /// to the state's norm.
    pub fn probability_one(&mut self, v: VecEdge, qubit: usize) -> f64 {
        let total = self.norm_sqr(v);
        if total <= 0.0 {
            return 0.0;
        }
        let p1 = self.prob_one_rec(v, qubit as u16);
        (p1 / total).clamp(0.0, 1.0)
    }

    fn prob_one_rec(&mut self, edge: VecEdge, target: u16) -> f64 {
        if edge.is_zero() {
            return 0.0;
        }
        let wsq = self.ctable.norm_sqr(edge.weight);
        if edge.node.is_terminal() {
            // The target qubit does not exist below the terminal.
            return 0.0;
        }
        let node = self.vec_nodes[edge.node.index()];
        if node.var == target {
            let e1 = node.edges[1];
            if e1.is_zero() {
                return 0.0;
            }
            let sub = self.ctable.norm_sqr(e1.weight) * self.node_norm(e1.node);
            return wsq * sub;
        }
        if let Some(&cached) = self.ct_prob_one.get(&(edge.node, target)) {
            return wsq * cached;
        }
        let p = self.prob_one_rec(node.edges[0], target) + self.prob_one_rec(node.edges[1], target);
        // Cache the probability of the node with unit incoming weight.
        if self.caching_enabled {
            self.ct_prob_one.insert((edge.node, target), p);
        }
        wsq * p
    }

    /// Draws one complete computational-basis measurement outcome from the
    /// state without collapsing it.
    ///
    /// The result is the basis-state index with qubit 0 as the most
    /// significant bit, matching [`DdPackage::basis_state_from_index`].
    ///
    /// # Panics
    ///
    /// Panics if the state is the zero vector.
    pub fn sample_measurement<R: Rng + ?Sized>(
        &mut self,
        v: VecEdge,
        n: usize,
        rng: &mut R,
    ) -> u64 {
        assert!(!v.is_zero(), "cannot sample from the zero vector");
        assert!(n <= 64, "sampling supports at most 64 qubits");
        let mut index: u64 = 0;
        let mut edge = v;
        for level in 0..n {
            if edge.node.is_terminal() {
                // Remaining qubits are unreachable (zero amplitude elsewhere);
                // this only happens for malformed states, keep bits at zero.
                index <<= (n - level) as u32;
                break;
            }
            let node = self.vec_nodes[edge.node.index()];
            debug_assert_eq!(node.var as usize, level);
            let p0 = if node.edges[0].is_zero() {
                0.0
            } else {
                self.ctable.norm_sqr(node.edges[0].weight) * self.node_norm(node.edges[0].node)
            };
            let p1 = if node.edges[1].is_zero() {
                0.0
            } else {
                self.ctable.norm_sqr(node.edges[1].weight) * self.node_norm(node.edges[1].node)
            };
            let total = p0 + p1;
            let bit = if total <= 0.0 {
                0
            } else {
                usize::from(rng.gen::<f64>() * total >= p0)
            };
            index = (index << 1) | bit as u64;
            edge = node.edges[bit];
        }
        index
    }

    /// Precomputes a [`SamplePlan`] for repeatedly drawing measurement
    /// outcomes from the state `v` over `n` qubits.
    ///
    /// The plan flattens every reachable node's branch probabilities — the
    /// exact values [`DdPackage::sample_measurement`] computes — into an
    /// array, so each subsequent draw costs `n` array steps instead of
    /// `O(n)` hash lookups and norm recursions. [`SamplePlan::sample`] is
    /// bit-identical to `sample_measurement` for every generator state:
    /// same probabilities, same comparisons, same stream consumption. Use
    /// it when many outcomes are drawn from one state (trajectory
    /// deduplication fans a whole shot group out of a single final state).
    ///
    /// # Panics
    ///
    /// Panics if the state is the zero vector or `n > 64`.
    pub fn sample_plan(&mut self, v: VecEdge, n: usize) -> SamplePlan {
        assert!(!v.is_zero(), "cannot sample from the zero vector");
        assert!(n <= 64, "sampling supports at most 64 qubits");
        let mut plan = SamplePlan {
            nodes: Vec::new(),
            root: TERMINAL_SLOT,
            num_qubits: n,
        };
        if v.node.is_terminal() {
            return plan;
        }
        // Depth-first flattening; slots are assigned on first visit.
        let mut slots: crate::fxhash::FxHashMap<crate::node::VecNodeId, u32> =
            crate::fxhash::FxHashMap::default();
        let mut stack = vec![v.node];
        plan.root = 0;
        slots.insert(v.node, 0);
        plan.nodes.push(PlanNode::default());
        while let Some(id) = stack.pop() {
            let node = self.vec_nodes[id.index()];
            let slot = slots[&id] as usize;
            let mut entry = PlanNode {
                probabilities: [0.0; 2],
                next: [TERMINAL_SLOT; 2],
                bits: [0, 1],
                levels: [1, 1],
            };
            for bit in 0..2 {
                let edge = node.edges[bit];
                if edge.is_zero() {
                    continue;
                }
                // The same product `sample_measurement` evaluates per
                // branch, so the comparisons below reproduce its draws bit
                // for bit.
                entry.probabilities[bit] =
                    self.ctable.norm_sqr(edge.weight) * self.node_norm(edge.node);
                if !edge.node.is_terminal() {
                    entry.next[bit] = *slots.entry(edge.node).or_insert_with(|| {
                        plan.nodes.push(PlanNode::default());
                        stack.push(edge.node);
                        (plan.nodes.len() - 1) as u32
                    });
                }
            }
            plan.nodes[slot] = entry;
        }

        // Collapse deterministic chains: below a taken branch, every node
        // whose comparison is a foregone conclusion (exactly one branch
        // with positive probability) contributes a fixed bit, so the walk
        // can precompute the bits and only burn the draws. The chain walk
        // uses the raw successor graph; results are written back per
        // branch.
        let raw = plan.nodes.clone();
        for entry in &mut plan.nodes {
            for bit in 0..2 {
                if entry.probabilities[bit] <= 0.0 {
                    // Only reachable through the zero-total fallback, which
                    // draws nothing: keep the uncompressed single step.
                    continue;
                }
                let mut bits = bit as u64;
                let mut levels = 1u8;
                let mut cursor = entry.next[bit];
                while cursor != TERMINAL_SLOT {
                    let [p0, p1] = raw[cursor as usize].probabilities;
                    let chained = if p0 <= 0.0 && p1 > 0.0 {
                        1
                    } else if p1 <= 0.0 && p0 > 0.0 {
                        0
                    } else {
                        // A genuine branch decision (or a zero-total pad,
                        // which consumes no draw): the chain ends here.
                        break;
                    };
                    bits = (bits << 1) | chained as u64;
                    levels += 1;
                    cursor = raw[cursor as usize].next[chained];
                }
                entry.bits[bit] = bits;
                entry.levels[bit] = levels;
                entry.next[bit] = cursor;
            }
        }
        plan
    }

    /// Projects the state onto `qubit = outcome` *without* renormalising.
    ///
    /// The squared norm of the returned state equals the probability of the
    /// outcome. Use [`DdPackage::normalize`] afterwards to obtain the
    /// post-measurement state.
    pub fn project(&mut self, v: VecEdge, qubit: usize, outcome: bool) -> VecEdge {
        self.project_rec(v, qubit as u16, outcome)
    }

    fn project_rec(&mut self, edge: VecEdge, target: u16, outcome: bool) -> VecEdge {
        if edge.is_zero() {
            return edge;
        }
        if edge.node.is_terminal() {
            return edge;
        }
        if let Some(&cached) = self.ct_collapse.get(&(edge.node, target, outcome)) {
            return VecEdge {
                node: cached.node,
                weight: self.ctable.mul(edge.weight, cached.weight),
            };
        }
        let node = self.vec_nodes[edge.node.index()];
        let result = if node.var == target {
            let mut children = [VecEdge::zero(); 2];
            children[usize::from(outcome)] = node.edges[usize::from(outcome)];
            self.make_vec_node(node.var, children)
        } else {
            let c0 = self.project_rec(node.edges[0], target, outcome);
            let c1 = self.project_rec(node.edges[1], target, outcome);
            self.make_vec_node(node.var, [c0, c1])
        };
        if self.caching_enabled {
            self.ct_collapse
                .insert((edge.node, target, outcome), result);
        }
        VecEdge {
            node: result.node,
            weight: self.ctable.mul(edge.weight, result.weight),
        }
    }

    /// Measures a single qubit, collapses the state accordingly, and returns
    /// the observed outcome together with the renormalised post-measurement
    /// state.
    ///
    /// # Panics
    ///
    /// Panics if the state is the zero vector.
    pub fn measure_qubit<R: Rng + ?Sized>(
        &mut self,
        v: VecEdge,
        qubit: usize,
        rng: &mut R,
    ) -> (bool, VecEdge) {
        assert!(!v.is_zero(), "cannot measure the zero vector");
        let p1 = self.probability_one(v, qubit);
        let outcome = rng.gen::<f64>() < p1;
        let projected = self.project(v, qubit, outcome);
        let collapsed = self.normalize(projected);
        (outcome, collapsed)
    }

    /// Applies a (possibly non-unitary) operator `m`, renormalises the
    /// result, and returns the acceptance probability (the squared norm
    /// before renormalisation) together with the new state.
    ///
    /// This is the primitive used for amplitude-damping Kraus branches
    /// (Example 6 of the paper): apply `A0` or `A1`, read off the branch
    /// probability, and keep the renormalised survivor.
    pub fn apply_kraus(&mut self, m: crate::node::MatEdge, v: VecEdge) -> (f64, VecEdge) {
        let unnormalised = self.mat_vec_mul(m, v);
        let p = self.norm_sqr(unnormalised);
        if p <= 0.0 {
            return (0.0, VecEdge::zero());
        }
        let normalised = self.normalize(unnormalised);
        (p, normalised)
    }

    /// Probability that amplitude damping of strength `gamma` decays
    /// `qubit`: `‖A0 v‖² = gamma · P(qubit = 1)` for a normalised `v`.
    ///
    /// This reads the decay branch's probability off the qubit's `|1>`
    /// weight (the cached norm traversal of [`probability_one`]) instead of
    /// building `A0 v`, so an exposure only builds the branch that fires.
    ///
    /// [`probability_one`]: Self::probability_one
    pub fn decay_probability(&mut self, v: VecEdge, qubit: usize, gamma: f64) -> f64 {
        gamma * self.probability_one(v, qubit)
    }

    /// Allocation-free twin of [`vec_node_count`](Self::vec_node_count) for
    /// hot loops: marks visited nodes with a generation stamp in a reusable
    /// scratch buffer instead of a fresh hash set.
    ///
    /// The shot executor calls this after every applied operation to track
    /// the per-shot peak diagram size, so it must not dominate the cost of
    /// the operation itself.
    pub fn vec_node_count_fast(&mut self, v: VecEdge) -> usize {
        if v.is_zero() || v.node.is_terminal() {
            return 0;
        }
        if self.visit_marks.len() < self.vec_nodes.len() {
            self.visit_marks.resize(self.vec_nodes.len(), 0);
        }
        self.visit_stamp = self.visit_stamp.wrapping_add(1);
        if self.visit_stamp == 0 {
            // Stamp wrapped: invalidate every stale mark once.
            self.visit_marks.fill(0);
            self.visit_stamp = 1;
        }
        let stamp = self.visit_stamp;
        let mut stack = std::mem::take(&mut self.visit_stack);
        stack.clear();
        stack.push(v.node);
        let mut count = 0usize;
        while let Some(node) = stack.pop() {
            if node.is_terminal() {
                continue;
            }
            let mark = &mut self.visit_marks[node.index()];
            if *mark == stamp {
                continue;
            }
            *mark = stamp;
            count += 1;
            for e in self.vec_nodes[node.index()].edges {
                if !e.is_zero() {
                    stack.push(e.node);
                }
            }
        }
        self.visit_stack = stack;
        count
    }

    /// Counts the distinct nodes reachable from `v` (the usual decision
    /// diagram size metric; the terminal is not counted).
    pub fn vec_node_count(&self, v: VecEdge) -> usize {
        let mut seen = crate::fxhash::FxHashSet::default();
        let mut stack = vec![v.node];
        while let Some(node) = stack.pop() {
            if node.is_terminal() || !seen.insert(node) {
                continue;
            }
            let data = self.vec_nodes[node.index()];
            for e in data.edges {
                if !e.is_zero() {
                    stack.push(e.node);
                }
            }
        }
        seen.len()
    }

    /// Counts the distinct nodes reachable from the matrix diagram `m`.
    pub fn mat_node_count(&self, m: crate::node::MatEdge) -> usize {
        let mut seen = crate::fxhash::FxHashSet::default();
        let mut stack = vec![m.node];
        while let Some(node) = stack.pop() {
            if node.is_terminal() || !seen.insert(node) {
                continue;
            }
            let data = self.mat_nodes[node.index()];
            for e in data.edges {
                if !e.is_zero() {
                    stack.push(e.node);
                }
            }
        }
        seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix2::Matrix2;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bell_state(dd: &mut DdPackage) -> VecEdge {
        let s = dd.zero_state(2);
        let h = dd.single_qubit_op(2, 0, Matrix2::hadamard());
        let cx = dd.controlled_op(2, 1, &[0], Matrix2::pauli_x());
        let s = dd.mat_vec_mul(h, s);
        dd.mat_vec_mul(cx, s)
    }

    #[test]
    fn probability_of_basis_states_is_deterministic() {
        let mut dd = DdPackage::new();
        let s = dd.basis_state_from_index(3, 0b101);
        assert!((dd.probability_one(s, 0) - 1.0).abs() < 1e-12);
        assert!(dd.probability_one(s, 1).abs() < 1e-12);
        assert!((dd.probability_one(s, 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bell_state_has_half_probability_on_each_qubit() {
        let mut dd = DdPackage::new();
        let bell = bell_state(&mut dd);
        assert!((dd.probability_one(bell, 0) - 0.5).abs() < 1e-12);
        assert!((dd.probability_one(bell, 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sampling_bell_state_only_yields_correlated_outcomes() {
        let mut dd = DdPackage::new();
        let bell = bell_state(&mut dd);
        let mut rng = StdRng::seed_from_u64(42);
        let mut seen00 = 0;
        let mut seen11 = 0;
        for _ in 0..2000 {
            match dd.sample_measurement(bell, 2, &mut rng) {
                0 => seen00 += 1,
                3 => seen11 += 1,
                other => panic!("impossible outcome {other} sampled from a Bell state"),
            }
        }
        // Both outcomes occur with roughly equal frequency.
        assert!(seen00 > 800 && seen11 > 800);
    }

    #[test]
    fn measuring_collapses_entangled_partner() {
        let mut dd = DdPackage::new();
        let bell = bell_state(&mut dd);
        let mut rng = StdRng::seed_from_u64(7);
        let (outcome, collapsed) = dd.measure_qubit(bell, 0, &mut rng);
        // After measuring qubit 0, qubit 1 is deterministic and equal.
        let p1 = dd.probability_one(collapsed, 1);
        if outcome {
            assert!((p1 - 1.0).abs() < 1e-10);
        } else {
            assert!(p1.abs() < 1e-10);
        }
        assert!((dd.norm_sqr(collapsed) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn projection_norm_equals_probability() {
        let mut dd = DdPackage::new();
        let bell = bell_state(&mut dd);
        let projected = dd.project(bell, 0, true);
        assert!((dd.norm_sqr(projected) - 0.5).abs() < 1e-12);
        let projected = dd.project(bell, 0, false);
        assert!((dd.norm_sqr(projected) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn amplitude_damping_kraus_branches_follow_example_6() {
        // |psi'> = (|00> + |11>)/sqrt(2); damping qubit 0 with probability p
        // yields branch probabilities p/2 and 1 - p/2 (Example 6).
        let p = 0.3;
        let mut dd = DdPackage::new();
        let bell = bell_state(&mut dd);
        let a0 = dd.single_qubit_op(2, 0, Matrix2::amplitude_damping_a0(p));
        let a1 = dd.single_qubit_op(2, 0, Matrix2::amplitude_damping_a1(p));
        let (p0, s0) = dd.apply_kraus(a0, bell);
        let (p1, s1) = dd.apply_kraus(a1, bell);
        assert!((p0 - p / 2.0).abs() < 1e-12);
        assert!((p1 - (1.0 - p / 2.0)).abs() < 1e-12);
        assert!((p0 + p1 - 1.0).abs() < 1e-12);
        assert!((dd.decay_probability(bell, 0, p) - p0).abs() < 1e-12);
        // Branch 0 collapses to |01>.
        let v0 = dd.to_statevector(s0, 2);
        assert!((v0[1].abs() - 1.0).abs() < 1e-12);
        // Branch 1 keeps both components with reweighted amplitudes.
        let v1 = dd.to_statevector(s1, 2);
        assert!((v1[0].norm_sqr() - 1.0 / (2.0 - p)).abs() < 1e-12);
        assert!((v1[3].norm_sqr() - (1.0 - p) / (2.0 - p)).abs() < 1e-12);
    }

    #[test]
    fn fast_node_count_matches_the_hash_set_walk() {
        let mut dd = DdPackage::new();
        let bell = bell_state(&mut dd);
        assert_eq!(dd.vec_node_count_fast(bell), dd.vec_node_count(bell));
        let zero = dd.zero_state(5);
        assert_eq!(dd.vec_node_count_fast(zero), dd.vec_node_count(zero));
        // Repeated calls (new stamp generations) stay correct.
        assert_eq!(dd.vec_node_count_fast(bell), dd.vec_node_count(bell));
        assert_eq!(dd.vec_node_count_fast(crate::node::VecEdge::zero()), 0);
        // Counting still works after a transient rollback.
        dd.mark_persistent();
        let s = dd.basis_state_from_index(4, 9);
        let n = dd.vec_node_count_fast(s);
        assert_eq!(n, dd.vec_node_count(s));
        dd.reset_transient();
        let t = dd.zero_state(4);
        assert_eq!(dd.vec_node_count_fast(t), 4);
    }

    #[test]
    fn sample_plan_reproduces_sample_measurement_bit_for_bit() {
        let mut dd = DdPackage::new();
        // A structured state (Bell pair padded with an excited qubit) plus
        // a plain basis state: both must sample identically via the plan.
        let bell = bell_state(&mut dd);
        let x1 = dd.single_qubit_op(2, 1, Matrix2::pauli_x());
        let skewed = dd.mat_vec_mul(x1, bell);
        for state in [bell, skewed] {
            let plan = dd.sample_plan(state, 2);
            assert_eq!(plan.num_qubits(), 2);
            for seed in 0..200u64 {
                let mut rng_a = StdRng::seed_from_u64(seed);
                let mut rng_b = StdRng::seed_from_u64(seed);
                assert_eq!(
                    plan.sample(&mut rng_a),
                    dd.sample_measurement(state, 2, &mut rng_b),
                    "plan diverged for seed {seed}"
                );
                // Both paths must consume the identical amount of
                // randomness: the next draws agree.
                assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
            }
        }
    }

    #[test]
    fn sample_plan_handles_full_width_registers() {
        // 64 qubits: a deterministic chain can cover the whole register in
        // one step, which must not overflow the index shift.
        let mut dd = DdPackage::new();
        let wide = dd.basis_state_from_index(64, 1);
        let plan = dd.sample_plan(wide, 64);
        let mut rng_a = StdRng::seed_from_u64(5);
        let mut rng_b = StdRng::seed_from_u64(5);
        for _ in 0..32 {
            assert_eq!(
                plan.sample(&mut rng_a),
                dd.sample_measurement(wide, 64, &mut rng_b)
            );
        }
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
    }

    #[test]
    fn sample_plan_handles_basis_states_without_draws() {
        let mut dd = DdPackage::new();
        let s = dd.basis_state_from_index(4, 0b1010);
        let plan = dd.sample_plan(s, 4);
        let mut rng = StdRng::seed_from_u64(1);
        let before = rng.gen::<u64>();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(plan.sample(&mut rng), 0b1010);
        // Deterministic branches (p = 0 or 1 on one side still draw; only
        // zero-total levels skip). Cross-check stream position against the
        // package walk.
        let mut rng_ref = StdRng::seed_from_u64(1);
        let _ = dd.sample_measurement(s, 4, &mut rng_ref);
        assert_eq!(rng.gen::<u64>(), rng_ref.gen::<u64>());
        let _ = before;
    }

    #[test]
    fn ghz_node_count_is_linear() {
        let mut dd = DdPackage::new();
        let n = 16;
        let mut state = dd.zero_state(n);
        let h = dd.single_qubit_op(n, 0, Matrix2::hadamard());
        state = dd.mat_vec_mul(h, state);
        for t in 1..n {
            let cx = dd.controlled_op(n, t, &[0], Matrix2::pauli_x());
            state = dd.mat_vec_mul(cx, state);
        }
        let count = dd.vec_node_count(state);
        // GHZ decision diagrams grow linearly with the number of qubits.
        assert!(count <= 2 * n, "GHZ DD has {count} nodes for {n} qubits");
    }
}
