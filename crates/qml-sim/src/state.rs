//! Dense state vector and gate-application kernels.
//!
//! The state of `n` qubits is a vector of 2ⁿ complex amplitudes. Basis index
//! bit `q` is the state of qubit `q` (little-endian, matching the middle
//! layer's `LSB_0` convention).
//!
//! # Kernels
//!
//! A gate on qubit `q` pairs amplitudes `2^q` apart; a gate on two qubits
//! splits every block of the higher qubit into four quarter-slices `a[x][y]`
//! (higher qubit in state `x`, lower in state `y`). Two primitives cut the
//! state into those sub-slices with `split_at_mut` and hand them to a kernel,
//! so a gate reads and writes **only the amplitudes it changes**, in place,
//! in contiguous runs:
//!
//! | gate | amplitudes touched | kernel |
//! |---|---|---|
//! | `cx` | ½ — the two quarters with the control set | `swap_with_slice` of `a10`/`a11` (control high) or `a01`/`a11` (control low) |
//! | `swap` | ½ — the quarters where the bits differ | `swap_with_slice` of `a01`/`a10` |
//! | `cz`, `cp` | ¼ — `a11` | one complex multiply each |
//! | `rzz` | all | one multiply each: e^{-iθ/2} over `a00`,`a11`, e^{iθ/2} over `a01`,`a10` |
//! | `rz` | all | one multiply each: `m00` over the half with the qubit clear, `m11` over the other |
//! | `z s sdg t tdg p` | ½ — the half with the qubit set | one multiply each |
//! | `h x y sx rx ry u` | all | dense 2×2 over the paired halves |
//!
//! No kernel builds an index list or tests a bit per amplitude, and
//! [`StateVector::apply`] allocates nothing — the `tests/budget_table` row
//! "applying a plan allocates nothing below the threshold" counts. Per gate,
//! and on the run path above the threshold, each amplitude gets the same
//! arithmetic a full pass with bit tests would give it (a diagonal only drops
//! the `+ 0·b` term), so amplitudes are equal under `==` to that naive
//! formulation; the oracle proptest in this module's tests holds the kernels
//! to it.
//!
//! # Below the threshold: one fused program
//!
//! Below [`PARALLEL_THRESHOLD`], [`StateVector::apply_view`] and
//! [`StateVector::apply_all`] do not make one pass per gate: the gates stream
//! through an allocation-free fusion stage (`fusion.rs`) into a short program
//! of kernel ops. Consecutive one-qubit gates on a qubit become one 2×2, run
//! by the diagonal kernel when its off-diagonals are exactly zero and by the
//! dense one otherwise; `cx(a,b)·D(b)·cx(a,b)` with `D` diagonal becomes one
//! pass of four phases over the quarters; `cx(a,b)·cx(b,a)·cx(a,b)` becomes
//! one `swap`. The last two do the multiplications of the passes they
//! replace; the first changes rounding at ~1e-16. Three oracles in this
//! module's tests guard it: fused execution within 1e-12 of gate-by-gate
//! [`StateVector::apply`] over all 19 variants, `==` to it for circuits the
//! first rule leaves alone, and a bound overlay within 1e-12 of the dense
//! matrix product of its gates. [`crate::fused_op_count`] counts the passes.
//!
//! # Above the threshold: one parallel region per run of gates
//!
//! A state of [`PARALLEL_THRESHOLD`] amplitudes or more is cut into one
//! contiguous power-of-two *piece* per thread — blocking the state vector by
//! its high qubits. A gate whose block (2^(highest qubit + 1) amplitudes) fits
//! in a piece never reads across a piece boundary, so
//! [`StateVector::apply_view`] and [`StateVector::apply_all`] collect
//! consecutive such gates into a *run* and walk the **whole run** over each
//! piece inside a single `par_chunks_mut` — permutations included. Only a gate
//! on one of the top log2(threads) qubits interrupts a run; it is applied on
//! its own, its outer blocks fanned out if it is arithmetic and has more than
//! one, serially otherwise (see `Amps::permute`). Threads therefore start
//! once per run, not once per gate, and every amplitude still receives the
//! same arithmetic in the same order: runs, fan-out and serial execution are
//! bit-identical (the run oracle in this module's tests compares with `==`).
//!
//! # Sampling
//!
//! Shots are drawn all at once, sorted, and resolved by one walk over the
//! CDF of the basis states, which yields the shots as runs of equal basis
//! states. [`StateVector::sample_with`], the job path's sampler, keeps each
//! run as a `(word as an integer, n)` pair, then sorts and merges the pairs
//! and renders each distinct word once into a [`Counts`]: its allocations
//! do not grow with the number of words. [`StateVector::sample_counts_with`]
//! walks the same runs into a `BTreeMap<String, u64>`, a `String` and a map
//! entry per run, and is the reference the job path's sampler is held to.

use std::sync::OnceLock;

use rand::Rng;
use rayon::prelude::*;

use crate::circuit::CircuitView;
use crate::complex::Complex64;
use crate::counts::Counts;
use crate::fusion::{is_diagonal, Fusion, Op};
use crate::gate::Gate;

/// Number of amplitudes above which kernels use rayon.
pub const PARALLEL_THRESHOLD: usize = 1 << 14;

/// Widest state vector the simulator allocates: 2^26 amplitudes of 16 bytes
/// each, 1 GiB. Backends reject wider plans before they reach a state.
pub const MAX_QUBITS: usize = 26;

/// Smallest piece of the state handed to one parallel task (a power of two,
/// so it is a whole number of any smaller gate block).
const PARALLEL_GRAIN: usize = 1 << 10;

/// Error returned by shot sampling when the state's probability mass is
/// degenerate: all-zero amplitudes or a non-finite norm (e.g. a rotation
/// bound to a NaN angle). Such a state has no multinomial interpretation —
/// the old sampler either panicked inside `partial_cmp` (NaN) or silently
/// returned basis state 0 for every shot (zero mass), so the condition is
/// now reported as a value.
#[derive(Debug, Clone, PartialEq)]
pub struct DegenerateStateError {
    /// The total probability mass the sampler observed (0.0, NaN, or ±∞).
    pub total_mass: f64,
}

impl std::fmt::Display for DegenerateStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot sample a degenerate state (total probability mass {})",
            self.total_mass
        )
    }
}

impl std::error::Error for DegenerateStateError {}

/// A dense state vector over `num_qubits` qubits.
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    num_qubits: usize,
    amps: Vec<Complex64>,
}

impl StateVector {
    /// The all-zeros computational basis state |0...0⟩.
    pub fn zero_state(num_qubits: usize) -> Self {
        assert!(
            num_qubits <= MAX_QUBITS,
            "state vector limited to {MAX_QUBITS} qubits (1 GiB)"
        );
        let mut amps = vec![Complex64::ZERO; 1 << num_qubits];
        amps[0] = Complex64::ONE;
        StateVector { num_qubits, amps }
    }

    /// Like [`StateVector::zero_state`], but reuses `buf`'s allocation for
    /// the amplitudes — the scratch-pool constructor the batch execute path
    /// uses so same-width micro-batch members share one buffer (recover the
    /// buffer afterwards with [`StateVector::into_amps`]).
    pub fn zero_state_in(num_qubits: usize, mut buf: Vec<Complex64>) -> Self {
        assert!(
            num_qubits <= MAX_QUBITS,
            "state vector limited to {MAX_QUBITS} qubits (1 GiB)"
        );
        buf.clear();
        buf.resize(1 << num_qubits, Complex64::ZERO);
        buf[0] = Complex64::ONE;
        StateVector {
            num_qubits,
            amps: buf,
        }
    }

    /// Consume the state, returning its amplitude buffer for reuse.
    pub fn into_amps(self) -> Vec<Complex64> {
        self.amps
    }

    /// The computational basis state |index⟩.
    pub fn basis_state(num_qubits: usize, index: usize) -> Self {
        assert!(index < (1 << num_qubits), "basis index out of range");
        let mut sv = StateVector::zero_state(num_qubits);
        sv.amps[0] = Complex64::ZERO;
        sv.amps[index] = Complex64::ONE;
        sv
    }

    /// Amplitude of basis state |index⟩.
    pub fn amplitude(&self, index: usize) -> Complex64 {
        self.amps[index]
    }

    /// All amplitudes.
    pub fn amplitudes(&self) -> &[Complex64] {
        &self.amps
    }

    /// Squared norm (should always be ≈ 1).
    #[cfg(test)]
    pub(crate) fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Probability of measuring basis state |index⟩.
    #[cfg(test)]
    pub(crate) fn probability(&self, index: usize) -> f64 {
        self.amps[index].norm_sqr()
    }

    /// Inner product ⟨self|other⟩.
    pub(crate) fn inner_product(&self, other: &StateVector) -> Complex64 {
        assert_eq!(self.num_qubits, other.num_qubits);
        self.amps
            .iter()
            .zip(&other.amps)
            .fold(Complex64::ZERO, |acc, (a, b)| acc + a.conj() * *b)
    }

    /// Fidelity |⟨self|other⟩|².
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        self.inner_product(other).norm_sqr()
    }

    /// Apply a gate in place. Allocates nothing: the gate's qubits are an
    /// inline value and every kernel works on sub-slices of the amplitudes
    /// (the module docs list which ones each gate touches).
    pub fn apply(&mut self, gate: &Gate) {
        check_qubits(self.num_qubits, gate);
        self.whole().apply(gate);
    }

    /// Apply every gate of a slice in order: as one fused program below
    /// [`PARALLEL_THRESHOLD`], in runs above it, like
    /// [`StateVector::apply_view`].
    pub fn apply_all(&mut self, gates: &[Gate]) {
        self.apply_each(|f| gates.iter().for_each(f));
    }

    /// Apply every effective gate of a [`CircuitView`] in order — the
    /// overlay-aware application path: a [`crate::overlay::BoundCircuit`]
    /// substitutes its bound gates during the walk, without a copied circuit.
    /// Below [`PARALLEL_THRESHOLD`] the gates run as one fused program, above
    /// it threads start once per run of gates (see the module docs), not once
    /// per gate.
    pub fn apply_view<C: CircuitView + ?Sized>(&mut self, view: &C) {
        self.apply_each(|f| view.for_each_gate(f));
    }

    /// The one path every gate sequence takes; `each` visits the gates in
    /// order. All gates are range-checked before any amplitude is touched, so
    /// a bad sequence panics on the calling thread and leaves the state as it
    /// was.
    fn apply_each(&mut self, each: impl Fn(&mut dyn FnMut(&Gate))) {
        each(&mut |gate| check_qubits(self.num_qubits, gate));
        if self.amps.len() < PARALLEL_THRESHOLD {
            let mut whole = self.whole();
            let mut fusion = Fusion::new(|op| whole.run(op));
            each(&mut |gate| fusion.push(gate));
            fusion.finish();
        } else {
            let piece = piece_len(self.amps.len());
            apply_in_runs(&mut self.amps, piece, each);
        }
    }

    /// The whole state as the target of one gate at a time: kernels fan out
    /// per gate above [`PARALLEL_THRESHOLD`].
    fn whole(&mut self) -> Amps<'_> {
        Amps {
            fan: self.amps.len() >= PARALLEL_THRESHOLD,
            amps: &mut self.amps,
        }
    }

    /// Sample `shots` measurement outcomes of the listed qubits in the Z
    /// basis. Returns bitstrings where character `j` is the outcome of
    /// `qubits[j]`, or a [`DegenerateStateError`] when the state carries no
    /// finite positive probability mass.
    ///
    /// Convenience wrapper over [`StateVector::sample_counts_with`] that
    /// allocates its own scratch buffers.
    pub fn sample_counts<R: Rng>(
        &self,
        qubits: &[usize],
        shots: u64,
        rng: &mut R,
    ) -> Result<std::collections::BTreeMap<String, u64>, DegenerateStateError> {
        self.sample_counts_with(qubits, shots, rng, &mut Vec::new(), &mut Vec::new())
    }

    /// Shot sampling into caller-provided scratch buffers, as a
    /// `BTreeMap`: the reference the job path's [`StateVector::sample_with`]
    /// is held to with `==`. It walks the same runs and renders one `String`
    /// key and one map entry per run.
    pub fn sample_counts_with<R: Rng>(
        &self,
        qubits: &[usize],
        shots: u64,
        rng: &mut R,
        cdf: &mut Vec<f64>,
        draws: &mut Vec<f64>,
    ) -> Result<std::collections::BTreeMap<String, u64>, DegenerateStateError> {
        let render = |idx: usize| -> String {
            qubits
                .iter()
                .map(|&q| if idx & (1 << q) != 0 { '1' } else { '0' })
                .collect()
        };
        let mut counts = std::collections::BTreeMap::new();
        // Distinct basis states can share a word when `qubits` is a subset,
        // so runs merge through the map entry.
        self.sample_runs(qubits, shots, rng, cdf, draws, |idx, n| {
            *counts.entry(render(idx)).or_insert(0u64) += n;
        })?;
        Ok(counts)
    }

    /// The job path's shot sampler: the draws and walk of
    /// [`StateVector::sample_counts_with`], returned as one sorted arena.
    ///
    /// Each run of equal basis states becomes one `(word, n)` pair in `runs`
    /// (cleared first, reused across calls), its word an integer whose bit
    /// `k−1−j` is the outcome of `qubits[j]` for `k = qubits.len()`, so
    /// integer order is the words' string order. The pairs are then sorted
    /// and merged (distinct basis states share a word when `qubits` is a
    /// subset), and each distinct word is rendered once: the returned
    /// counts are two allocations, however many words they hold.
    ///
    /// # Panics
    /// Panics if more than 64 qubits are listed, or one is out of range.
    pub fn sample_with<R: Rng>(
        &self,
        qubits: &[usize],
        shots: u64,
        rng: &mut R,
        cdf: &mut Vec<f64>,
        draws: &mut Vec<f64>,
        runs: &mut Vec<(u64, u64)>,
    ) -> Result<Counts, DegenerateStateError> {
        assert!(qubits.len() <= 64, "a word of more than 64 bits");
        let word = |idx: usize| -> u64 {
            qubits
                .iter()
                .fold(0, |word, &q| (word << 1) | ((idx >> q) & 1) as u64)
        };
        runs.clear();
        self.sample_runs(qubits, shots, rng, cdf, draws, |idx, n| {
            runs.push((word(idx), n));
        })?;
        Ok(Counts::from_bit_runs(qubits.len(), runs))
    }

    /// Vectorized shot sampling: report each run of shots that landed on one
    /// basis state as `run(index, shots)`, in ascending index order.
    ///
    /// The CDF over full basis states is computed **once** into `cdf`, all
    /// `shots` draws are taken up front into `draws` (one `rng` call per
    /// shot, exactly like the scalar sampler consumed the stream), sorted,
    /// and resolved by a single merge walk over the CDF — O(2ⁿ + S log S)
    /// instead of a per-shot binary search's O(S log 2ⁿ).
    ///
    /// A draw resolves to the first basis state whose cumulative mass
    /// strictly exceeds it (clamped to the last positive-probability state),
    /// so zero-probability plateaus can never be sampled.
    fn sample_runs<R: Rng>(
        &self,
        qubits: &[usize],
        shots: u64,
        rng: &mut R,
        cdf: &mut Vec<f64>,
        draws: &mut Vec<f64>,
        mut run: impl FnMut(usize, u64),
    ) -> Result<(), DegenerateStateError> {
        for &q in qubits {
            assert!(q < self.num_qubits, "measured qubit {q} out of range");
        }
        // Cumulative distribution over full basis states, reusing `cdf`.
        cdf.clear();
        cdf.reserve(self.amps.len());
        let mut acc = 0.0f64;
        let mut last_positive = 0usize;
        for (i, amp) in self.amps.iter().enumerate() {
            let p = amp.norm_sqr();
            if p > 0.0 {
                last_positive = i;
            }
            acc += p;
            cdf.push(acc);
        }
        let total = acc;
        if !total.is_finite() || total <= 0.0 {
            return Err(DegenerateStateError { total_mass: total });
        }

        draws.clear();
        draws.reserve(shots as usize);
        for _ in 0..shots {
            draws.push(rng.gen::<f64>() * total);
        }
        draws.sort_unstable_by(f64::total_cmp);

        let mut idx = 0usize;
        let mut current: Option<(usize, u64)> = None;
        for &r in draws.iter() {
            // Ascending draws ⇒ the walk pointer only moves forward; the
            // whole loop advances it at most 2ⁿ positions in total.
            while idx < last_positive && cdf[idx] <= r {
                idx += 1;
            }
            match current {
                Some((at, ref mut n)) if at == idx => *n += 1,
                _ => {
                    if let Some((at, n)) = current {
                        run(at, n);
                    }
                    current = Some((idx, 1));
                }
            }
        }
        if let Some((at, n)) = current {
            run(at, n);
        }
        Ok(())
    }

    /// Exact outcome distribution of the listed qubits (marginalized over the
    /// rest), keyed by the same bitstring convention as [`StateVector::sample_counts`].
    pub(crate) fn marginal_probabilities(
        &self,
        qubits: &[usize],
    ) -> std::collections::BTreeMap<String, f64> {
        let mut out = std::collections::BTreeMap::new();
        for (idx, amp) in self.amps.iter().enumerate() {
            let p = amp.norm_sqr();
            if p == 0.0 {
                continue;
            }
            let word: String = qubits
                .iter()
                .map(|&q| if idx & (1 << q) != 0 { '1' } else { '0' })
                .collect();
            *out.entry(word).or_insert(0.0) += p;
        }
        out
    }
}

/// Panic unless `gate` acts on distinct qubits below `num_qubits`.
fn check_qubits(num_qubits: usize, gate: &Gate) {
    let qubits = gate.qubits();
    for &q in &qubits {
        assert!(
            q < num_qubits,
            "gate {} on qubit {q} out of range",
            gate.name()
        );
    }
    if let [a, b] = *qubits {
        assert_ne!(a, b, "the two qubits of a gate must differ");
    }
}

/// Amplitudes a gate is applied to: the whole state, or a piece of it that is
/// a whole number of the gate's 2^(highest qubit + 1) blocks — which is all
/// the [`halves`] and [`quarters`] walks ask of a slice.
struct Amps<'a> {
    amps: &'a mut [Complex64],
    /// Whether arithmetic kernels split their outer blocks between threads:
    /// set for a whole state above [`PARALLEL_THRESHOLD`], clear below it and
    /// for a piece inside a run, which already has a thread to itself.
    fan: bool,
}

impl Amps<'_> {
    /// Apply `gate`, whose qubits [`check_qubits`] has accepted.
    fn apply(&mut self, gate: &Gate) {
        match *gate {
            // Pure permutations: exchange the two quarters whose control bit
            // is set (cx, with the control the higher or the lower qubit) or
            // whose two bits differ (swap).
            Gate::Cx(c, t) if c > t => self.permute(c, t, |_, _, a10, a11| {
                a10.swap_with_slice(a11);
            }),
            Gate::Cx(c, t) => self.permute(c, t, |_, a01, _, a11| {
                a01.swap_with_slice(a11);
            }),
            Gate::Swap(a, b) => self.permute(a, b, |_, a01, a10, _| {
                a01.swap_with_slice(a10);
            }),
            // Diagonals: only the quarter with both bits set picks up e^{iλ}.
            Gate::Cz(c, t) => self.controlled_phase(c, t, std::f64::consts::PI),
            Gate::Cp(c, t, lambda) => self.controlled_phase(c, t, lambda.value()),
            // exp(-i θ/2 Z⊗Z): e^{-iθ/2} where the bits agree, e^{iθ/2}
            // where they differ.
            Gate::Rzz(a, b, theta) => {
                let theta = theta.value();
                let even = Complex64::from_phase(-theta / 2.0);
                let odd = Complex64::from_phase(theta / 2.0);
                self.parity_phase(a, b, even, odd);
            }
            ref g => {
                let m = g
                    .single_qubit_matrix()
                    .expect("single-qubit gate must provide a matrix");
                let q = g.qubits()[0];
                match g {
                    Gate::Rz(..) => self.one_qubit(q, move |lo, hi| {
                        scale(lo, m[0]);
                        scale(hi, m[3]);
                    }),
                    // diag(1, e^{iφ}): the |0⟩ half is left alone.
                    Gate::Z(_)
                    | Gate::S(_)
                    | Gate::Sdg(_)
                    | Gate::T(_)
                    | Gate::Tdg(_)
                    | Gate::Phase(..) => self.one_qubit(q, move |_, hi| scale(hi, m[3])),
                    _ => self.dense(q, &m),
                }
            }
        }
    }

    /// Run one op of a fused program: a one-qubit product by the diagonal
    /// kernel when its off-diagonals are exactly zero, else by `dense`.
    fn run(&mut self, op: &Op) {
        match *op {
            Op::Gate(ref gate) => self.apply(gate),
            Op::Matrix(q, m) if is_diagonal(&m) => {
                let (m00, m11) = (m[0], m[3]);
                // diag(1, e^{iφ}) leaves the |0⟩ half alone, as `apply` does.
                if m00 == Complex64::ONE {
                    self.one_qubit(q, move |_, hi| scale(hi, m11));
                } else {
                    self.one_qubit(q, move |lo, hi| {
                        scale(lo, m00);
                        scale(hi, m11);
                    });
                }
            }
            Op::Matrix(q, m) => self.dense(q, &m),
            Op::Parity(a, b, even, odd) => self.parity_phase(a, b, even, odd),
        }
    }

    /// Multiply the amplitudes where the bits of `a` and `b` agree by `even`,
    /// the others by `odd`.
    fn parity_phase(&mut self, a: usize, b: usize, even: Complex64, odd: Complex64) {
        self.two_qubit(a, b, move |a00, a01, a10, a11| {
            scale(a00, even);
            scale(a01, odd);
            scale(a10, odd);
            scale(a11, even);
        });
    }

    /// A dense 2×2 matrix over the paired halves of qubit `q`.
    fn dense(&mut self, q: usize, m: &[Complex64; 4]) {
        let m = *m;
        self.one_qubit(q, move |lo, hi| {
            // Indexed over two equal-length halves (the bounds checks fold
            // away): measured 0.95 ns per amplitude at every stride, where
            // `lo.iter_mut().zip(hi)` compiled to 1.7 ns above stride 2.
            let n = lo.len();
            let hi = &mut hi[..n];
            for i in 0..n {
                let (a, b) = (lo[i], hi[i]);
                lo[i] = m[0] * a + m[1] * b;
                hi[i] = m[2] * a + m[3] * b;
            }
        });
    }

    /// Multiply the amplitudes with both bits set by e^{iλ}.
    fn controlled_phase(&mut self, control: usize, target: usize, lambda: f64) {
        let phase = Complex64::from_phase(lambda);
        self.two_qubit(control, target, move |_, _, _, a11| scale(a11, phase));
    }

    /// The one-qubit primitive: hand `kernel` the `(|0⟩, |1⟩)` halves of
    /// every 2^(q+1)-amplitude block.
    fn one_qubit<K>(&mut self, q: usize, kernel: K)
    where
        K: Fn(&mut [Complex64], &mut [Complex64]) + Sync,
    {
        let stride = 1usize << q;
        // Strides 1 and 2 get their own copy of the (inlined) walk with the
        // half length a constant, so the kernel's inner loop unrolls instead
        // of running a one-iteration loop per pair of amplitudes.
        let walk = |part: &mut [Complex64]| match stride {
            1 => halves(part, 1, &kernel),
            2 => halves(part, 2, &kernel),
            _ => halves(part, stride, &kernel),
        };
        self.fan_out(2 * stride, walk);
    }

    /// The two-qubit primitive: chunk the amplitudes by the higher qubit's
    /// block and hand `kernel` the four quarter-slices `a00, a01, a10, a11`
    /// of each pair of lower-qubit blocks, where `a[x][y]` has the **higher**
    /// of the two qubits in state `x` and the lower in state `y`.
    fn two_qubit<K: QuarterKernel>(&mut self, a: usize, b: usize, kernel: K) {
        let (block, walk) = quarter_walk(a, b, kernel);
        self.fan_out(block, walk);
    }

    /// [`Amps::two_qubit`] for a kernel that only moves amplitudes. It never
    /// fans out on its own: exchanging two quarters is a memory copy of half
    /// the state — 0.15–0.3 ns per amplitude at 16 qubits — and starting
    /// threads for that one copy cost more than it returned (1.2–2.4 ns on
    /// the 2-vCPU reference box). Inside a run a permutation shares the run's
    /// threads like any other gate; it is serial over the whole state only
    /// when it touches a top qubit and so interrupts the run.
    fn permute<K: QuarterKernel>(&mut self, a: usize, b: usize, kernel: K) {
        let (_, walk) = quarter_walk(a, b, kernel);
        walk(self.amps);
    }

    /// Run `walk` — a serial pass over any whole number of `block`-amplitude
    /// blocks — over the amplitudes: in one call unless `fan` is set and
    /// there is more than one block, else split between threads at block
    /// boundaries, in pieces of at least [`PARALLEL_GRAIN`] amplitudes so a
    /// low qubit's tiny blocks do not become one task each.
    fn fan_out(&mut self, block: usize, walk: impl Fn(&mut [Complex64]) + Sync) {
        if self.fan && self.amps.len() / block > 1 {
            self.amps
                .par_chunks_mut(block.max(PARALLEL_GRAIN))
                .for_each(walk);
        } else {
            walk(self.amps);
        }
    }
}

/// Most gates one parallel region carries; a longer run is cut here. 128
/// gates are 7 KB of stack and hold every run of the 16-qubit benchmark
/// plan but one.
const RUN_CAPACITY: usize = 128;

/// A step of the run path over a state cut into `piece`-amplitude pieces.
enum Segment<'a> {
    /// Consecutive gates whose blocks each fit in a piece: one parallel
    /// region walks them all, in order, over every piece.
    Run(&'a [Gate]),
    /// A gate on a top qubit, whose block spans pieces: applied on its own.
    Solo(&'a Gate),
}

/// A gate's block: the 2^(highest qubit + 1) amplitudes it mixes.
fn block_len(gate: &Gate) -> usize {
    2 << gate.qubits().iter().fold(0, |top, &q| top.max(q))
}

/// Cut the gates `each` visits into [`Segment`]s for pieces of `piece`
/// amplitudes (a power of two): every gate is emitted exactly once, in
/// order, runs are as long as [`RUN_CAPACITY`] and the next solo gate allow.
fn segments(
    each: impl FnOnce(&mut dyn FnMut(&Gate)),
    piece: usize,
    emit: &mut dyn FnMut(Segment<'_>),
) {
    let mut run = [Gate::X(0); RUN_CAPACITY];
    let mut len = 0;
    each(&mut |gate| {
        let solo = block_len(gate) > piece;
        if len > 0 && (solo || len == RUN_CAPACITY) {
            emit(Segment::Run(&run[..len]));
            len = 0;
        }
        if solo {
            emit(Segment::Solo(gate));
        } else {
            run[len] = *gate;
            len += 1;
        }
    });
    if len > 0 {
        emit(Segment::Run(&run[..len]));
    }
}

/// The piece of a `len`-amplitude state each thread owns during a run:
/// `len` over the largest power of two of threads the machine offers (at most
/// 16, the pool size of the `vendor/rayon` stand-in), never below
/// [`PARALLEL_GRAIN`]. One thread means one piece: every gate fits, and the
/// single region runs inline.
fn piece_len(len: usize) -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    let threads = *THREADS.get_or_init(|| {
        let available = std::thread::available_parallelism().map_or(1, |n| n.get());
        1 << available.min(16).ilog2()
    });
    (len / threads).max(PARALLEL_GRAIN)
}

/// Apply the (range-checked) gates `each` visits to `amps`, a whole state
/// cut into `piece`-amplitude pieces: one parallel region per run.
fn apply_in_runs(amps: &mut [Complex64], piece: usize, each: impl FnOnce(&mut dyn FnMut(&Gate))) {
    segments(each, piece, &mut |segment| match segment {
        Segment::Run(gates) => amps.par_chunks_mut(piece).for_each(|part| {
            let mut part = Amps {
                amps: part,
                fan: false,
            };
            for gate in gates {
                part.apply(gate);
            }
        }),
        Segment::Solo(gate) => Amps {
            amps: &mut *amps,
            fan: true,
        }
        .apply(gate),
    });
}

/// A two-qubit kernel over the quarter-slices `a00, a01, a10, a11`.
trait QuarterKernel:
    Fn(&mut [Complex64], &mut [Complex64], &mut [Complex64], &mut [Complex64]) + Sync
{
}

impl<K> QuarterKernel for K where
    K: Fn(&mut [Complex64], &mut [Complex64], &mut [Complex64], &mut [Complex64]) + Sync
{
}

/// `a ← m · a` for every amplitude of a slice.
#[inline(always)]
fn scale(amps: &mut [Complex64], m: Complex64) {
    for a in amps {
        *a = m * *a;
    }
}

/// Walk `amps` (a whole number of `2·stride` blocks) and hand `f` each
/// block's lower and upper half.
#[inline(always)]
fn halves(amps: &mut [Complex64], stride: usize, f: &impl Fn(&mut [Complex64], &mut [Complex64])) {
    for block in amps.chunks_exact_mut(2 * stride) {
        let (lo, hi) = block.split_at_mut(stride);
        f(lo, hi);
    }
}

/// Walk `amps` (a whole number of `2·high` blocks) and hand `f` the four
/// `low`-long quarter-slices `a[high bit][low bit]` of each pair of
/// `2·low` sub-blocks.
#[inline(always)]
fn quarters(amps: &mut [Complex64], low: usize, high: usize, f: &impl QuarterKernel) {
    for block in amps.chunks_exact_mut(2 * high) {
        let (h0, h1) = block.split_at_mut(high);
        for (b0, b1) in h0
            .chunks_exact_mut(2 * low)
            .zip(h1.chunks_exact_mut(2 * low))
        {
            let (a00, a01) = b0.split_at_mut(low);
            let (a10, a11) = b1.split_at_mut(low);
            f(a00, a01, a10, a11);
        }
    }
}

/// The block size of a gate on qubits `a` and `b` — 2^(max(a, b) + 1) — and
/// the serial [`quarters`] walk of `kernel` over any whole number of such
/// blocks.
fn quarter_walk(
    a: usize,
    b: usize,
    kernel: impl QuarterKernel,
) -> (usize, impl Fn(&mut [Complex64]) + Sync) {
    let (low, high) = (1usize << a.min(b), 1usize << a.max(b));
    // Same constant-stride copies as `one_qubit`, on the lower qubit.
    let walk = move |part: &mut [Complex64]| match low {
        1 => quarters(part, 1, high, &kernel),
        2 => quarters(part, 2, high, &kernel),
        _ => quarters(part, low, high, &kernel),
    };
    (2 * high, walk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::f64::consts::{FRAC_1_SQRT_2, PI};

    const EPS: f64 = 1e-10;

    #[test]
    fn zero_state_is_normalized() {
        let sv = StateVector::zero_state(3);
        assert_eq!(sv.amps.len(), 8);
        assert!((sv.norm_sqr() - 1.0).abs() < EPS);
        assert!((sv.probability(0) - 1.0).abs() < EPS);
    }

    #[test]
    fn hadamard_creates_uniform_superposition() {
        let mut sv = StateVector::zero_state(1);
        sv.apply(&Gate::H(0));
        assert!((sv.amplitude(0).re - FRAC_1_SQRT_2).abs() < EPS);
        assert!((sv.amplitude(1).re - FRAC_1_SQRT_2).abs() < EPS);
    }

    #[test]
    fn x_flips_basis_state() {
        let mut sv = StateVector::zero_state(2);
        sv.apply(&Gate::X(1));
        assert!((sv.probability(0b10) - 1.0).abs() < EPS);
    }

    #[test]
    fn bell_state_preparation() {
        let mut sv = StateVector::zero_state(2);
        sv.apply_all(&[Gate::H(0), Gate::Cx(0, 1)]);
        assert!((sv.probability(0b00) - 0.5).abs() < EPS);
        assert!((sv.probability(0b11) - 0.5).abs() < EPS);
        assert!(sv.probability(0b01) < EPS);
        assert!(sv.probability(0b10) < EPS);
    }

    #[test]
    fn cx_control_and_target_order_matter() {
        // |01⟩ (qubit 0 = 1): CX(0→1) flips qubit 1, CX(1→0) does nothing.
        let mut a = StateVector::basis_state(2, 0b01);
        a.apply(&Gate::Cx(0, 1));
        assert!((a.probability(0b11) - 1.0).abs() < EPS);

        let mut b = StateVector::basis_state(2, 0b01);
        b.apply(&Gate::Cx(1, 0));
        assert!((b.probability(0b01) - 1.0).abs() < EPS);
    }

    #[test]
    fn cz_and_cp_pi_agree() {
        let mut a = StateVector::zero_state(2);
        a.apply_all(&[Gate::H(0), Gate::H(1), Gate::Cz(0, 1)]);
        let mut b = StateVector::zero_state(2);
        b.apply_all(&[Gate::H(0), Gate::H(1), Gate::Cp(0, 1, PI.into())]);
        assert!((a.fidelity(&b) - 1.0).abs() < EPS);
    }

    #[test]
    fn swap_exchanges_qubits() {
        let mut sv = StateVector::basis_state(3, 0b001);
        sv.apply(&Gate::Swap(0, 2));
        assert!((sv.probability(0b100) - 1.0).abs() < EPS);
        // Swapping twice restores the original.
        sv.apply(&Gate::Swap(0, 2));
        assert!((sv.probability(0b001) - 1.0).abs() < EPS);
    }

    #[test]
    fn swap_equals_three_cx() {
        let mut direct = StateVector::zero_state(2);
        direct.apply_all(&[Gate::H(0), Gate::T(1), Gate::Swap(0, 1)]);
        let mut via_cx = StateVector::zero_state(2);
        via_cx.apply_all(&[
            Gate::H(0),
            Gate::T(1),
            Gate::Cx(0, 1),
            Gate::Cx(1, 0),
            Gate::Cx(0, 1),
        ]);
        assert!((direct.fidelity(&via_cx) - 1.0).abs() < EPS);
    }

    #[test]
    fn rzz_equals_cx_rz_cx() {
        let theta = 0.73;
        let mut direct = StateVector::zero_state(2);
        direct.apply_all(&[Gate::H(0), Gate::H(1), Gate::Rzz(0, 1, theta.into())]);
        let mut decomposed = StateVector::zero_state(2);
        decomposed.apply_all(&[
            Gate::H(0),
            Gate::H(1),
            Gate::Cx(0, 1),
            Gate::Rz(1, theta.into()),
            Gate::Cx(0, 1),
        ]);
        assert!((direct.fidelity(&decomposed) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn norm_preserved_by_random_circuit() {
        let mut sv = StateVector::zero_state(5);
        let gates = [
            Gate::H(0),
            Gate::Rx(1, (0.3).into()),
            Gate::Cx(0, 2),
            Gate::Rz(3, (1.1).into()),
            Gate::Cp(2, 4, (0.4).into()),
            Gate::Ry(4, (-0.8).into()),
            Gate::Rzz(1, 3, (0.9).into()),
            Gate::Swap(0, 4),
            Gate::Sx(2),
            Gate::T(3),
        ];
        sv.apply_all(&gates);
        assert!((sv.norm_sqr() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sampling_matches_probabilities() {
        let mut sv = StateVector::zero_state(2);
        sv.apply_all(&[Gate::H(0), Gate::Cx(0, 1)]);
        let mut rng = StdRng::seed_from_u64(42);
        let counts = sv.sample_counts(&[0, 1], 10_000, &mut rng).unwrap();
        // Only 00 and 11 occur, each ≈ 50 %.
        assert_eq!(counts.keys().cloned().collect::<Vec<_>>(), vec!["00", "11"]);
        let p00 = counts["00"] as f64 / 10_000.0;
        assert!((p00 - 0.5).abs() < 0.03, "p00 = {p00}");
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let mut sv = StateVector::zero_state(3);
        sv.apply_all(&[Gate::H(0), Gate::H(1), Gate::H(2)]);
        let a = sv.sample_counts(&[0, 1, 2], 1000, &mut StdRng::seed_from_u64(7));
        let b = sv.sample_counts(&[0, 1, 2], 1000, &mut StdRng::seed_from_u64(7));
        assert_eq!(a.unwrap(), b.unwrap());
    }

    #[test]
    fn degenerate_nan_state_is_a_sampling_error() {
        let mut sv = StateVector::zero_state(2);
        sv.apply(&Gate::Rx(0, f64::NAN.into()));
        let err = sv
            .sample_counts(&[0, 1], 100, &mut StdRng::seed_from_u64(1))
            .unwrap_err();
        assert!(
            !err.total_mass.is_finite(),
            "NaN amplitudes must surface as non-finite mass, got {}",
            err.total_mass
        );
        assert!(err.to_string().contains("degenerate"));
    }

    #[test]
    fn vectorized_sampler_reuses_scratch_and_matches_wrapper() {
        let mut sv = StateVector::zero_state(3);
        sv.apply_all(&[Gate::H(0), Gate::Cx(0, 1), Gate::X(2)]);
        let simple = sv
            .sample_counts(&[0, 1, 2], 500, &mut StdRng::seed_from_u64(9))
            .unwrap();
        let mut cdf = Vec::new();
        let mut draws = Vec::new();
        let buffered = sv
            .sample_counts_with(
                &[0, 1, 2],
                500,
                &mut StdRng::seed_from_u64(9),
                &mut cdf,
                &mut draws,
            )
            .unwrap();
        assert_eq!(simple, buffered);
        assert_eq!(cdf.len(), 8);
        assert_eq!(draws.len(), 500);
        // Reusing the same buffers must not change the outcome.
        let again = sv
            .sample_counts_with(
                &[0, 1, 2],
                500,
                &mut StdRng::seed_from_u64(9),
                &mut cdf,
                &mut draws,
            )
            .unwrap();
        assert_eq!(simple, again);
    }

    /// The sampler oracle: the pre-vectorization scalar sampler — per shot,
    /// one draw, one linear walk to the first basis state whose cumulative
    /// mass exceeds it, one rendered key. O(S · 2ⁿ), kept only as the
    /// reference [`StateVector::sample_counts_with`] must equal.
    fn scalar_sample(
        sv: &StateVector,
        qubits: &[usize],
        shots: u64,
        rng: &mut StdRng,
    ) -> std::collections::BTreeMap<String, u64> {
        use rand::Rng;
        let probs: Vec<f64> = sv.amps.iter().map(|a| a.norm_sqr()).collect();
        let total: f64 = probs.iter().sum();
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..shots {
            let r = rng.gen::<f64>() * total;
            let mut acc = 0.0f64;
            let mut idx = probs.len() - 1;
            for (i, p) in probs.iter().enumerate() {
                acc += p;
                if acc > r {
                    idx = i;
                    break;
                }
            }
            let word: String = qubits
                .iter()
                .map(|&q| if idx & (1 << q) != 0 { '1' } else { '0' })
                .collect();
            *counts.entry(word).or_insert(0u64) += 1;
        }
        counts
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Same seed ⇒ same RNG stream and resolution rule ⇒ the vectorized
        /// sampler's counts `==` the scalar sampler's, on QFT|0⟩ (uniform:
        /// every basis state carries mass) and on random non-uniform states,
        /// for a random subset of the qubits measured in random order.
        #[test]
        fn vectorized_sampler_equals_the_scalar_sampler(
            n in 1usize..=10,
            shots in 1u64..=4096,
            seed in proptest::prelude::any::<u64>(),
            uniform in proptest::prelude::any::<bool>(),
        ) {
            use rand::Rng;
            let mut rng = StdRng::seed_from_u64(!seed);
            let sv = if uniform {
                let mut sv = StateVector::zero_state(n);
                sv.apply_view(&crate::circuit::qft_circuit(n, 0, true, false));
                sv
            } else {
                let raw: Vec<(f64, f64)> = (0..1usize << n)
                    .map(|_| (rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                    .collect();
                normalized(n, &raw)
            };
            // A partial Fisher–Yates shuffle: the first `k` of a random
            // permutation of the qubits.
            let mut qubits: Vec<usize> = (0..n).collect();
            let k = rng.gen_range(1..=n);
            for i in 0..k {
                let j = rng.gen_range(i..n);
                qubits.swap(i, j);
            }
            qubits.truncate(k);

            let scalar = scalar_sample(&sv, &qubits, shots, &mut StdRng::seed_from_u64(seed));
            let vectorized = sv
                .sample_counts_with(
                    &qubits,
                    shots,
                    &mut StdRng::seed_from_u64(seed),
                    &mut Vec::new(),
                    &mut Vec::new(),
                )
                .unwrap();
            assert_eq!(scalar, vectorized, "n = {n}, qubits {qubits:?}, {shots} shots");
        }

        /// The job path's sampler against its reference: the same seed
        /// gives [`StateVector::sample_with`] the `Counts` that
        /// [`StateVector::sample_counts_with`] gives as a map, entry for
        /// entry and in the same order, on random states of up to 12 qubits
        /// with a random subset measured in random order, so distinct basis
        /// states share words and their runs must merge. The run buffer
        /// starts dirty, as a reused one does.
        #[test]
        fn job_path_sampler_equals_the_map_sampler(
            n in 1usize..=12,
            shots in 1u64..=4096,
            seed in proptest::prelude::any::<u64>(),
            uniform in proptest::prelude::any::<bool>(),
        ) {
            use rand::Rng;
            let mut rng = StdRng::seed_from_u64(!seed);
            let sv = if uniform {
                let mut sv = StateVector::zero_state(n);
                sv.apply_view(&crate::circuit::qft_circuit(n, 0, true, false));
                sv
            } else {
                let raw: Vec<(f64, f64)> = (0..1usize << n)
                    .map(|_| (rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                    .collect();
                normalized(n, &raw)
            };
            let mut qubits: Vec<usize> = (0..n).collect();
            let k = rng.gen_range(1..=n);
            for i in 0..k {
                let j = rng.gen_range(i..n);
                qubits.swap(i, j);
            }
            qubits.truncate(k);

            let map = sv
                .sample_counts_with(
                    &qubits,
                    shots,
                    &mut StdRng::seed_from_u64(seed),
                    &mut Vec::new(),
                    &mut Vec::new(),
                )
                .unwrap();
            let mut runs = vec![(u64::MAX, 7); 3];
            let counts = sv
                .sample_with(
                    &qubits,
                    shots,
                    &mut StdRng::seed_from_u64(seed),
                    &mut Vec::new(),
                    &mut Vec::new(),
                    &mut runs,
                )
                .unwrap();
            let context = format!("n = {n}, qubits {qubits:?}, {shots} shots");
            assert!(counts == map, "{context}: {counts:?} != {map:?}");
            let in_order = map.iter().map(|(word, n)| (word.as_str(), n));
            assert!(counts.iter().eq(in_order), "{context}: order differs");
        }
    }

    #[test]
    fn marginal_probabilities_sum_to_one() {
        let mut sv = StateVector::zero_state(3);
        sv.apply_all(&[Gate::H(0), Gate::Cx(0, 1), Gate::Ry(2, (0.7).into())]);
        let marg = sv.marginal_probabilities(&[0, 2]);
        let total: f64 = marg.values().sum();
        assert!((total - 1.0).abs() < EPS);
    }

    #[test]
    fn subset_measurement_word_order() {
        // Qubit 2 is |1⟩, qubits 0,1 are |0⟩; measuring [2, 0] must give "10".
        let sv = StateVector::basis_state(3, 0b100);
        let marg = sv.marginal_probabilities(&[2, 0]);
        assert!((marg["10"] - 1.0).abs() < EPS);
    }

    /// The oracle: a deliberately naive reference — one pass over basis
    /// indices with a bit test per index, no strides and no sub-slices (the
    /// formulation the strided kernels replaced). The kernels must reproduce
    /// it amplitude for amplitude under `==`, which is what keeps every shot
    /// count unchanged; a change that alters rounding (gate fusion) has to
    /// face this test knowingly.
    fn reference_apply(amps: &[Complex64], gate: &Gate) -> Vec<Complex64> {
        let bit = |i: usize, q: usize| i >> q & 1;
        let cphase = |c: usize, t: usize, lambda: f64| -> Vec<Complex64> {
            let phase = Complex64::from_phase(lambda);
            (0..amps.len())
                .map(|i| {
                    if bit(i, c) == 1 && bit(i, t) == 1 {
                        amps[i] * phase
                    } else {
                        amps[i]
                    }
                })
                .collect()
        };
        match *gate {
            Gate::Cx(c, t) => (0..amps.len())
                .map(|i| amps[if bit(i, c) == 1 { i ^ (1 << t) } else { i }])
                .collect(),
            Gate::Swap(a, b) => (0..amps.len())
                .map(|i| {
                    let exchanged = bit(i, a) != bit(i, b);
                    amps[if exchanged {
                        i ^ (1 << a) ^ (1 << b)
                    } else {
                        i
                    }]
                })
                .collect(),
            Gate::Cz(c, t) => cphase(c, t, PI),
            Gate::Cp(c, t, lambda) => cphase(c, t, lambda.value()),
            Gate::Rzz(a, b, theta) => {
                let even = Complex64::from_phase(-theta.value() / 2.0);
                let odd = Complex64::from_phase(theta.value() / 2.0);
                (0..amps.len())
                    .map(|i| amps[i] * if bit(i, a) == bit(i, b) { even } else { odd })
                    .collect()
            }
            ref g => {
                let m = g.single_qubit_matrix().unwrap();
                let q = g.qubits()[0];
                (0..amps.len())
                    .map(|i| {
                        let (a, b) = (amps[i & !(1 << q)], amps[i | 1 << q]);
                        if bit(i, q) == 0 {
                            m[0] * a + m[1] * b
                        } else {
                            m[2] * a + m[3] * b
                        }
                    })
                    .collect()
            }
        }
    }

    /// Every one-qubit variant on `q`, every two-qubit variant on `(a, b)`.
    fn one_qubit_gates(q: usize, t: [f64; 3]) -> [Gate; 14] {
        [
            Gate::H(q),
            Gate::X(q),
            Gate::Y(q),
            Gate::Z(q),
            Gate::S(q),
            Gate::Sdg(q),
            Gate::T(q),
            Gate::Tdg(q),
            Gate::Sx(q),
            Gate::Rx(q, t[0].into()),
            Gate::Ry(q, t[1].into()),
            Gate::Rz(q, t[2].into()),
            Gate::Phase(q, t[0].into()),
            Gate::U(q, t[0], t[1], t[2]),
        ]
    }

    fn two_qubit_gates(a: usize, b: usize, t: [f64; 3]) -> [Gate; 5] {
        [
            Gate::Cx(a, b),
            Gate::Cz(a, b),
            Gate::Cp(a, b, t[0].into()),
            Gate::Swap(a, b),
            Gate::Rzz(a, b, t[1].into()),
        ]
    }

    /// A normalized state from raw `(re, im)` pairs.
    fn normalized(num_qubits: usize, raw: &[(f64, f64)]) -> StateVector {
        let amps: Vec<Complex64> = raw[..1 << num_qubits]
            .iter()
            .map(|&(re, im)| Complex64::new(re, im))
            .collect();
        let norm = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
        StateVector {
            num_qubits,
            amps: amps.iter().map(|a| a.scale(1.0 / norm)).collect(),
        }
    }

    fn assert_matches_reference(sv: &StateVector, gate: &Gate) {
        let expected = reference_apply(sv.amplitudes(), gate);
        let mut got = sv.clone();
        got.apply(gate);
        for (i, (g, e)) in got.amplitudes().iter().zip(&expected).enumerate() {
            assert!(
                g == e,
                "{gate:?} on {} qubits: amplitude {i} is {g:?}, reference {e:?}",
                sv.num_qubits
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Every gate variant, on every qubit and every ordered qubit pair
        /// (control above and below the target, adjacent and not, the top
        /// qubit included) of a random normalized state, equals the
        /// reference on every amplitude.
        #[test]
        fn kernels_equal_the_naive_reference(
            n in 1usize..7,
            raw in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 64),
            t in (-6.3f64..6.3, -6.3f64..6.3, -6.3f64..6.3),
        ) {
            let sv = normalized(n, &raw);
            let t = [t.0, t.1, t.2];
            for a in 0..n {
                for gate in one_qubit_gates(a, t) {
                    assert_matches_reference(&sv, &gate);
                }
                for b in (0..n).filter(|&b| b != a) {
                    for gate in two_qubit_gates(a, b, t) {
                        assert_matches_reference(&sv, &gate);
                    }
                }
            }
        }
    }

    /// A dense, structureless normalized state: a fixed LCG fills both
    /// components of every amplitude.
    fn dense_state(num_qubits: usize) -> StateVector {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let raw: Vec<(f64, f64)> = (0..1usize << num_qubits)
            .map(|_| {
                let mut next = || {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5
                };
                (next(), next())
            })
            .collect();
        normalized(num_qubits, &raw)
    }

    /// 15 qubits is above `PARALLEL_THRESHOLD`: each kernel's fan-out over
    /// outer blocks (or, for the permutations, its serial walk of a large
    /// state) must equal the serial reference, for low, middle and top
    /// qubits in both orders.
    #[test]
    fn kernels_above_the_parallel_threshold_equal_the_reference() {
        let n = 15;
        assert!(1usize << n >= PARALLEL_THRESHOLD);
        let sv = dense_state(n);
        let t = [0.37, -1.9, 2.6];
        for q in [0, 1, 7, 13, 14] {
            for gate in [Gate::Sx(q), Gate::Rz(q, t[2].into()), Gate::T(q)] {
                assert_matches_reference(&sv, &gate);
            }
        }
        for (a, b) in [(0, 1), (1, 0), (0, 14), (14, 0), (6, 9), (9, 6), (13, 14)] {
            for gate in two_qubit_gates(a, b, t) {
                assert_matches_reference(&sv, &gate);
            }
        }
    }

    /// `count` seeded random gates over all 19 variants, on qubits below
    /// `qubits`.
    fn random_gates(rng: &mut StdRng, qubits: usize, count: usize) -> Vec<Gate> {
        use rand::Rng;
        (0..count)
            .map(|_| {
                let t = [(); 3].map(|_| rng.gen_range(-6.3..6.3));
                let a = rng.gen_range(0..qubits);
                let b = (a + rng.gen_range(1..qubits)) % qubits;
                match rng.gen_range(0..19) {
                    k @ 0..=13 => one_qubit_gates(a, t)[k],
                    k => two_qubit_gates(a, b, t)[k - 14],
                }
            })
            .collect()
    }

    /// `gates` applied one by one with the naive reference.
    fn reference_run<'a>(
        start: &StateVector,
        gates: impl IntoIterator<Item = &'a Gate>,
    ) -> Vec<Complex64> {
        gates
            .into_iter()
            .fold(start.amplitudes().to_vec(), |amps, gate| {
                reference_apply(&amps, gate)
            })
    }

    /// The run oracle: above `PARALLEL_THRESHOLD`, `apply_view` and
    /// `apply_all` — and the run path at every piece size, whatever this
    /// machine's thread count picks — leave every amplitude `==` to the
    /// naive reference applied gate by gate.
    fn assert_runs_match_reference<C: CircuitView>(start: &StateVector, view: &C) {
        let mut gates = Vec::new();
        view.for_each_gate(&mut |gate| gates.push(*gate));
        let expected = reference_run(start, &gates);

        let mut via_view = start.clone();
        via_view.apply_view(view);
        assert!(via_view.amplitudes() == expected, "apply_view differs");
        let mut via_slice = start.clone();
        via_slice.apply_all(&gates);
        assert!(via_slice.amplitudes() == expected, "apply_all differs");
        for pieces in [1, 2, 4, 16] {
            let mut got = start.clone();
            let piece = got.amps.len() / pieces;
            apply_in_runs(&mut got.amps, piece, |f| view.for_each_gate(f));
            assert!(
                got.amplitudes() == expected,
                "the run path over {pieces} pieces differs"
            );
        }
    }

    #[test]
    fn runs_above_the_parallel_threshold_equal_the_reference() {
        use crate::circuit::Circuit;
        use crate::overlay::BoundCircuit;
        use crate::param::ParamExpr;
        use std::sync::Arc;

        let mut rng = StdRng::seed_from_u64(0x51A7E);
        let mut seen = std::collections::BTreeSet::new();
        for n in [14, 15, 16] {
            assert!(1usize << n >= PARALLEL_THRESHOLD);
            let start = dense_state(n);
            let (top, low) = (n - 1, n - 4);

            let mut qc = Circuit::new(n);
            // A run longer than the buffer (these fit a sixteenth of the
            // state), a top-qubit gate in the middle of a run, two
            // interrupting gates in a row, then gates on every qubit.
            qc.extend(&random_gates(&mut rng, low, RUN_CAPACITY + 30));
            qc.push(Gate::Sx(top));
            qc.extend(&random_gates(&mut rng, low, 12));
            qc.extend(&[Gate::Cx(top, 0), Gate::Rzz(1, top, 0.7.into())]);
            qc.extend(&random_gates(&mut rng, n, 60));
            seen.extend(qc.gates().iter().map(Gate::name));
            assert_runs_match_reference(&start, &qc);

            assert_runs_match_reference(&start, &Circuit::new(n));
            for gate in [Gate::H(2), Gate::Cx(0, top)] {
                let mut one = Circuit::new(n);
                one.push(gate);
                assert_runs_match_reference(&start, &one);
            }

            // An overlay substitutes its bound gates during the walk.
            let mut symbolic = Circuit::new(n);
            symbolic.extend(&random_gates(&mut rng, n, 10));
            symbolic.push(Gate::Rzz(0, top, ParamExpr::symbol(0).scale(2.0)));
            symbolic.extend(&random_gates(&mut rng, low, 10));
            symbolic.push(Gate::Rx(3, ParamExpr::symbol(1)));
            let base = Arc::new(symbolic);
            let sites = base.symbolic_gate_indices();
            let overlay = BoundCircuit::bind_sites(base, &sites, &[0.45, -1.2]);
            assert_eq!(overlay.overrides().len(), 2);
            assert_runs_match_reference(&start, &overlay);
        }
        assert_eq!(seen.len(), 19, "not every gate variant was drawn: {seen:?}");
    }

    /// The segments of `gates` for `piece`, copied out: `(is_run, gates)`.
    fn collect_segments(gates: &[Gate], piece: usize) -> Vec<(bool, Vec<Gate>)> {
        let mut out = Vec::new();
        segments(
            |f| gates.iter().for_each(f),
            piece,
            &mut |segment| match segment {
                Segment::Run(run) => out.push((true, run.to_vec())),
                Segment::Solo(gate) => out.push((false, vec![*gate])),
            },
        );
        out
    }

    #[test]
    fn segments_emit_every_gate_once_in_order_and_runs_fit_the_piece() {
        let mut rng = StdRng::seed_from_u64(24);
        let n = 16;
        for count in [0, 1, RUN_CAPACITY, RUN_CAPACITY + 1, 700] {
            let gates = random_gates(&mut rng, n, count);
            for piece in [1usize << n, 1 << (n - 1), 1 << (n - 3), PARALLEL_GRAIN] {
                let cut = collect_segments(&gates, piece);
                let emitted: Vec<Gate> = cut.iter().flat_map(|(_, g)| g.clone()).collect();
                assert_eq!(emitted, gates);
                for (i, (is_run, members)) in cut.iter().enumerate() {
                    assert!(!members.is_empty() && members.len() <= RUN_CAPACITY);
                    for gate in members {
                        assert_eq!(block_len(gate) <= piece, *is_run, "{gate:?} in {piece}");
                    }
                    // Runs are maximal: only a full buffer splits two.
                    if *is_run && cut.get(i + 1).is_some_and(|next| next.0) {
                        assert_eq!(members.len(), RUN_CAPACITY);
                    }
                }
            }
        }
    }

    /// The gate sequence of the benchmark's `state_parallel` plan: two-layer
    /// ring QAOA on `n` nodes, transpiled to `{sx, rz, cx}` on a line at
    /// level 3 — the ring's closing edge bubbles qubit 0 up the line and
    /// back down. Angles are irrelevant to segmentation.
    fn ring_qaoa_on_a_line(n: usize) -> Vec<Gate> {
        let rz = |q| Gate::Rz(q, 0.4.into());
        let u = |q| vec![rz(q), Gate::Sx(q), rz(q), Gate::Sx(q), rz(q)];
        let zz = |a, b| vec![Gate::Cx(a, b), rz(b), Gate::Cx(a, b)];
        let swap = |a, b| vec![Gate::Cx(a, b), Gate::Cx(b, a), Gate::Cx(a, b)];
        let bubble_up = || {
            (0..n - 2)
                .flat_map(|q| swap(q, q + 1))
                .chain(zz(n - 2, n - 1))
        };
        let mut gates = u(0);
        gates.extend((1..n).flat_map(|q| [u(q), zz(q - 1, q)].concat()));
        gates.extend(bubble_up());
        gates.extend(u(n - 2));
        gates.extend(
            (1..n - 2)
                .rev()
                .flat_map(|q| [u(q), swap(q + 1, q)].concat()),
        );
        gates.extend([u(0), zz(1, 0), swap(0, 1)].concat());
        gates.extend((2..n - 1).flat_map(|q| zz(q - 1, q)));
        gates.extend([u(n - 1), zz(n - 2, n - 1)].concat());
        gates.extend(bubble_up());
        gates.extend((0..n).flat_map(u));
        gates
    }

    #[test]
    fn the_state_parallel_plan_needs_at_most_twelve_regions() {
        let gates = ring_qaoa_on_a_line(16);
        assert_eq!(gates.len(), 462);
        // Two threads: the top qubit alone interrupts.
        let cut = collect_segments(&gates, 1 << 15);
        let regions = cut.iter().filter(|(is_run, _)| *is_run).count();
        let solo = cut.len() - regions;
        assert_eq!(solo, 27);
        assert!(regions <= 12, "{regions} parallel regions");
        // Four threads: qubit 14 interrupts too, and still far fewer regions
        // than gates.
        let cut = collect_segments(&gates, 1 << 14);
        let regions = cut.iter().filter(|(is_run, _)| *is_run).count();
        assert!(regions <= 24, "{regions} parallel regions over four pieces");
    }

    #[test]
    fn parallel_and_serial_kernels_agree() {
        // 15 qubits crosses PARALLEL_THRESHOLD (2^14); compare against a
        // small-state reference by checking marginals of a product state.
        let n = 15;
        let mut sv = StateVector::zero_state(n);
        for q in 0..n {
            sv.apply(&Gate::Ry(q, (0.1 * (q as f64 + 1.0)).into()));
        }
        sv.apply(&Gate::Cx(0, 14));
        sv.apply(&Gate::Rzz(3, 12, (0.4).into()));
        assert!((sv.norm_sqr() - 1.0).abs() < 1e-9);
        // Qubit 7 is untouched by the entangling gates: its marginal must
        // match the single-qubit calculation exactly.
        let expected_p1 = (0.1f64 * 8.0 / 2.0).sin().powi(2);
        let marg = sv.marginal_probabilities(&[7]);
        assert!((marg.get("1").copied().unwrap_or(0.0) - expected_p1).abs() < 1e-9);
    }

    /// The diagonal one-qubit variants on `q`.
    fn diagonal_gates(q: usize, t: f64) -> [Gate; 7] {
        [
            Gate::Z(q),
            Gate::S(q),
            Gate::Sdg(q),
            Gate::T(q),
            Gate::Tdg(q),
            Gate::Rz(q, t.into()),
            Gate::Phase(q, t.into()),
        ]
    }

    /// `pieces` seeded pieces of a circuit on `n` qubits that give every
    /// fusion rule work, in about equal shares: one gate of any of the 19
    /// variants, a run of one-qubit gates on one qubit (rule 1),
    /// `cx(a, b)·D(b)·cx(a, b)` with one or two diagonals (rule 2), and
    /// `cx(a, b)·cx(b, a)·cx(a, b)` (rule 3). One qubit draws only the first
    /// two.
    fn fusable_gates(rng: &mut StdRng, n: usize, pieces: usize) -> Vec<Gate> {
        use rand::Rng;
        let mut gates = Vec::new();
        for _ in 0..pieces {
            let mut t = || [(); 3].map(|_| rng.gen_range(-6.3..6.3));
            let (t0, t1) = (t(), t());
            let a = rng.gen_range(0..n);
            let b = (a + rng.gen_range(1..n.max(2))) % n;
            match rng.gen_range(0..if n == 1 { 2 } else { 4 }) {
                0 => gates.push(match rng.gen_range(0..if n == 1 { 14 } else { 19 }) {
                    k @ 0..=13 => one_qubit_gates(a, t0)[k],
                    k => two_qubit_gates(a, b, t0)[k - 14],
                }),
                1 => {
                    let len = rng.gen_range(2..=4);
                    gates.extend(
                        (0..len).map(|_| one_qubit_gates(a, t1)[rng.gen_range(0..14usize)]),
                    );
                }
                2 => {
                    gates.push(Gate::Cx(a, b));
                    for t in &t1[..rng.gen_range(1..=2)] {
                        gates.push(diagonal_gates(b, *t)[rng.gen_range(0..7usize)]);
                    }
                    gates.push(Gate::Cx(a, b));
                }
                _ => gates.extend([Gate::Cx(a, b), Gate::Cx(b, a), Gate::Cx(a, b)]),
            }
        }
        gates
    }

    /// `pieces` seeded pieces on `n ≥ 2` qubits made of `cx`, `swap`,
    /// diagonal one-qubit gates and the rule-2 and rule-3 patterns only. A
    /// diagonal is always followed at once by a two-qubit gate on its qubit,
    /// so rule 1 never multiplies two gates: the program these fuse to does
    /// the multiplications of gate-by-gate application.
    fn exactly_fusable_gates(rng: &mut StdRng, n: usize, pieces: usize) -> Vec<Gate> {
        use rand::Rng;
        let mut gates = Vec::new();
        for _ in 0..pieces {
            let t = rng.gen_range(-6.3..6.3);
            let a = rng.gen_range(0..n);
            let b = (a + rng.gen_range(1..n)) % n;
            let pair = [Gate::Cx(a, b), Gate::Cx(b, a), Gate::Swap(a, b)][rng.gen_range(0..3usize)];
            let k = rng.gen_range(0..7usize);
            let diagonal = |q| diagonal_gates(q, t)[k];
            match rng.gen_range(0..4) {
                0 => gates.push(pair),
                1 => gates.extend([diagonal(a), pair]),
                2 => gates.extend([Gate::Cx(a, b), diagonal(b), Gate::Cx(a, b)]),
                _ => gates.extend([Gate::Cx(a, b), Gate::Cx(b, a), Gate::Cx(a, b)]),
            }
        }
        gates
    }

    /// `gates` as a symbolic circuit bound through a [`BoundCircuit`]
    /// overlay: every third gate that carries a `ParamExpr` angle (all but
    /// `U`, whose angles are constants) takes it from a slot, bound to the
    /// angle it had.
    fn as_overlay(n: usize, gates: &[Gate]) -> crate::overlay::BoundCircuit {
        use crate::param::ParamExpr;
        let mut values = Vec::new();
        let mut symbolic = crate::circuit::Circuit::new(n);
        for (i, gate) in gates.iter().enumerate() {
            let mut slot = |t: ParamExpr| {
                values.push(t.value());
                ParamExpr::symbol(values.len() as u32 - 1)
            };
            symbolic.push(match *gate {
                _ if i % 3 != 0 => *gate,
                Gate::Rx(q, t) => Gate::Rx(q, slot(t)),
                Gate::Ry(q, t) => Gate::Ry(q, slot(t)),
                Gate::Rz(q, t) => Gate::Rz(q, slot(t)),
                Gate::Phase(q, t) => Gate::Phase(q, slot(t)),
                Gate::Cp(c, t, lambda) => Gate::Cp(c, t, slot(lambda)),
                Gate::Rzz(a, b, theta) => Gate::Rzz(a, b, slot(theta)),
                other => other,
            });
        }
        let base = std::sync::Arc::new(symbolic);
        let sites = base.symbolic_gate_indices();
        crate::overlay::BoundCircuit::bind_sites(base, &sites, &values)
    }

    /// `view`'s gates applied one at a time with [`StateVector::apply`].
    fn gate_by_gate<C: CircuitView + ?Sized>(start: &StateVector, view: &C) -> StateVector {
        let mut state = start.clone();
        view.for_each_gate(&mut |gate| state.apply(gate));
        state
    }

    /// The largest |Δ| between two states' amplitudes.
    fn max_drift(a: &StateVector, b: &StateVector) -> f64 {
        a.amplitudes()
            .iter()
            .zip(b.amplitudes())
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    /// The three serial entry points for `gates` on `start`: `apply_all`,
    /// `apply_view` over the concrete circuit, and `apply_view` over a bound
    /// overlay — each paired with gate-by-gate application of what it walks.
    fn fused_and_by_gate(start: &StateVector, gates: &[Gate]) -> [(StateVector, StateVector); 3] {
        let n = start.num_qubits;
        let mut circuit = crate::circuit::Circuit::new(n);
        circuit.extend(gates);
        let overlay = as_overlay(n, gates);
        let mut via_slice = start.clone();
        via_slice.apply_all(gates);
        let mut via_circuit = start.clone();
        via_circuit.apply_view(&circuit);
        let mut via_overlay = start.clone();
        via_overlay.apply_view(&overlay);
        let by_gate = gate_by_gate(start, &circuit);
        [
            (via_slice, by_gate.clone()),
            (via_circuit, by_gate),
            (via_overlay, gate_by_gate(start, &overlay)),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The fusion oracle: below `PARALLEL_THRESHOLD`, the fused program
        /// of any circuit — all 19 variants, every rule's pattern — leaves
        /// every amplitude within 1e-12 of gate-by-gate `apply`, through
        /// `apply_all` and through `apply_view` over a concrete circuit and
        /// over an overlay.
        #[test]
        fn the_fused_serial_path_stays_within_1e_12_of_gate_by_gate(
            n in 1usize..=13,
            seed in proptest::prelude::any::<u64>(),
        ) {
            use rand::Rng;
            assert!(1usize << n < PARALLEL_THRESHOLD);
            let mut rng = StdRng::seed_from_u64(seed);
            let pieces = rng.gen_range(1..=60);
            let gates = fusable_gates(&mut rng, n, pieces);
            let start = dense_state(n);
            for (fused, by_gate) in fused_and_by_gate(&start, &gates) {
                let drift = max_drift(&fused, &by_gate);
                assert!(drift <= 1e-12, "n = {n}, seed {seed}: max |Δamp| {drift:e}");
            }
        }

        /// Rules 2 and 3 do the multiplications of the gates they replace:
        /// circuits of `cx`, `swap`, diagonals and the two patterns fuse to
        /// programs `==` to gate-by-gate `apply`.
        #[test]
        fn rules_two_and_three_are_bit_identical(
            n in 2usize..=13,
            seed in proptest::prelude::any::<u64>(),
        ) {
            use rand::Rng;
            let mut rng = StdRng::seed_from_u64(seed);
            let pieces = rng.gen_range(1..=60);
            let gates = exactly_fusable_gates(&mut rng, n, pieces);
            let start = dense_state(n);
            for (fused, by_gate) in fused_and_by_gate(&start, &gates) {
                assert!(fused == by_gate, "n = {n}, seed {seed}: {gates:?}");
            }
        }
    }

    /// The ops a gate sequence fuses to, in program order.
    fn fused_program(gates: &[Gate]) -> Vec<Op> {
        let mut ops = Vec::new();
        let mut fusion = Fusion::new(|op: &Op| ops.push(*op));
        for gate in gates {
            fusion.push(gate);
        }
        fusion.finish();
        ops
    }

    #[test]
    fn each_fusion_rule_emits_its_op_and_near_misses_do_not() {
        let matrix = |gate: Gate| gate.single_qubit_matrix().unwrap();
        let rz = matrix(Gate::Rz(1, 0.3.into()));
        let program = fused_program(&[
            Gate::H(0),
            Gate::T(0),
            Gate::Cx(0, 1),
            Gate::Rz(1, 0.3.into()),
            Gate::Cx(0, 1),
            Gate::Cx(1, 2),
            Gate::Cx(2, 1),
            Gate::Cx(1, 2),
            Gate::Sx(2),
        ]);
        assert_eq!(
            program,
            [
                Op::Matrix(
                    0,
                    crate::gate::matmul2(&matrix(Gate::T(0)), &matrix(Gate::H(0)))
                ),
                Op::Parity(0, 1, rz[0], rz[3]),
                Op::Gate(Gate::Swap(1, 2)),
                Op::Matrix(2, matrix(Gate::Sx(2))),
            ]
        );

        // A gate on the control, a non-diagonal on the target, a `cx` the
        // other way round, or a one-qubit gate between the three `cx`: no
        // rule applies, and every gate keeps its place.
        let h = matrix(Gate::H(0));
        let near_misses: [(&[Gate], Vec<Op>); 4] = [
            (
                &[Gate::Cx(0, 1), Gate::H(0), Gate::T(1), Gate::Cx(0, 1)],
                vec![
                    Op::Gate(Gate::Cx(0, 1)),
                    Op::Matrix(0, h),
                    Op::Matrix(1, matrix(Gate::T(1))),
                    Op::Gate(Gate::Cx(0, 1)),
                ],
            ),
            (
                &[Gate::Cx(0, 1), Gate::H(1), Gate::Cx(0, 1)],
                vec![
                    Op::Gate(Gate::Cx(0, 1)),
                    Op::Matrix(1, h),
                    Op::Gate(Gate::Cx(0, 1)),
                ],
            ),
            (
                &[Gate::Cx(0, 1), Gate::T(1), Gate::Cx(1, 0)],
                vec![
                    Op::Gate(Gate::Cx(0, 1)),
                    Op::Matrix(1, matrix(Gate::T(1))),
                    Op::Gate(Gate::Cx(1, 0)),
                ],
            ),
            (
                &[Gate::Cx(0, 1), Gate::Cx(1, 0), Gate::H(0), Gate::Cx(0, 1)],
                vec![
                    Op::Gate(Gate::Cx(0, 1)),
                    Op::Gate(Gate::Cx(1, 0)),
                    Op::Matrix(0, h),
                    Op::Gate(Gate::Cx(0, 1)),
                ],
            ),
        ];
        for (gates, expected) in near_misses {
            assert_eq!(fused_program(gates), expected, "{gates:?}");
        }
    }

    /// The 2×2 of a one-qubit gate, written out from its textbook definition
    /// (not [`Gate::single_qubit_matrix`]), for the dense reference.
    fn textbook_matrix(gate: &Gate) -> [Complex64; 4] {
        let c = Complex64::new;
        let e = |phi: f64| c(phi.cos(), phi.sin());
        let r = std::f64::consts::FRAC_1_SQRT_2;
        let (one, zero, i) = (c(1.0, 0.0), c(0.0, 0.0), c(0.0, 1.0));
        let half = |t: crate::param::ParamExpr| t.value() / 2.0;
        match *gate {
            Gate::H(_) => [c(r, 0.0), c(r, 0.0), c(r, 0.0), c(-r, 0.0)],
            Gate::X(_) => [zero, one, one, zero],
            Gate::Y(_) => [zero, c(0.0, -1.0), i, zero],
            Gate::Z(_) => [one, zero, zero, c(-1.0, 0.0)],
            Gate::S(_) => [one, zero, zero, i],
            Gate::Sdg(_) => [one, zero, zero, c(0.0, -1.0)],
            Gate::T(_) => [one, zero, zero, e(PI / 4.0)],
            Gate::Tdg(_) => [one, zero, zero, e(-PI / 4.0)],
            Gate::Sx(_) => [c(0.5, 0.5), c(0.5, -0.5), c(0.5, -0.5), c(0.5, 0.5)],
            Gate::Rx(_, t) => {
                let (cos, sin) = (half(t).cos(), half(t).sin());
                [c(cos, 0.0), c(0.0, -sin), c(0.0, -sin), c(cos, 0.0)]
            }
            Gate::Ry(_, t) => {
                let (cos, sin) = (half(t).cos(), half(t).sin());
                [c(cos, 0.0), c(-sin, 0.0), c(sin, 0.0), c(cos, 0.0)]
            }
            Gate::Rz(_, t) => [e(-half(t)), zero, zero, e(half(t))],
            Gate::Phase(_, lambda) => [one, zero, zero, e(lambda.value())],
            Gate::U(_, theta, phi, lambda) => {
                let (cos, sin) = ((theta / 2.0).cos(), (theta / 2.0).sin());
                [
                    c(cos, 0.0),
                    e(lambda) * c(-sin, 0.0),
                    e(phi) * c(sin, 0.0),
                    e(phi + lambda) * c(cos, 0.0),
                ]
            }
            _ => panic!("{gate:?} is not a one-qubit gate"),
        }
    }

    /// Entry `(row, col)` of `gate`'s full 2ⁿ×2ⁿ matrix, from its
    /// definition on basis states.
    fn full_entry(gate: &Gate, row: usize, col: usize) -> Complex64 {
        let bit = |i: usize, q: usize| i >> q & 1;
        let one = |yes: bool| Complex64::real(if yes { 1.0 } else { 0.0 });
        let diagonal = |phase: Complex64| if row == col { phase } else { Complex64::ZERO };
        match *gate {
            Gate::Cx(c, t) => one(row == col ^ bit(col, c) << t),
            Gate::Swap(a, b) => {
                let differ = bit(col, a) ^ bit(col, b);
                one(row == col ^ (differ << a | differ << b))
            }
            Gate::Cz(c, t) => diagonal(Complex64::real(if bit(col, c) & bit(col, t) == 1 {
                -1.0
            } else {
                1.0
            })),
            Gate::Cp(c, t, lambda) => diagonal(if bit(col, c) & bit(col, t) == 1 {
                Complex64::from_phase(lambda.value())
            } else {
                Complex64::ONE
            }),
            Gate::Rzz(a, b, theta) => {
                let sign = if bit(col, a) == bit(col, b) {
                    -1.0
                } else {
                    1.0
                };
                diagonal(Complex64::from_phase(sign * theta.value() / 2.0))
            }
            ref g => {
                let q = g.qubits()[0];
                if row & !(1 << q) != col & !(1 << q) {
                    Complex64::ZERO
                } else {
                    textbook_matrix(g)[2 * bit(row, q) + bit(col, q)]
                }
            }
        }
    }

    /// `start` times the full matrix of each of `view`'s gates in turn: a
    /// 2ⁿ×2ⁿ matrix-vector product per gate, with no kernel, stride or
    /// fusion in it.
    fn dense_reference<C: CircuitView + ?Sized>(start: &[Complex64], view: &C) -> Vec<Complex64> {
        let mut state = start.to_vec();
        view.for_each_gate(&mut |gate| {
            state = (0..state.len())
                .map(|row| {
                    state
                        .iter()
                        .enumerate()
                        .fold(Complex64::ZERO, |acc, (col, amp)| {
                            acc + full_entry(gate, row, col) * *amp
                        })
                })
                .collect();
        });
        state
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// An oracle that shares no code with the kernels or the fusion: a
        /// bound overlay run through `apply_view` stays within 1e-12 of the
        /// dense matrix product of its gates, at every width up to 6.
        #[test]
        fn overlays_through_apply_view_equal_the_dense_matrix_product(
            n in 1usize..=6,
            seed in proptest::prelude::any::<u64>(),
        ) {
            use rand::Rng;
            let mut rng = StdRng::seed_from_u64(seed);
            let pieces = rng.gen_range(1..=24);
            let overlay = as_overlay(n, &fusable_gates(&mut rng, n, pieces));
            let start = dense_state(n);
            let expected = dense_reference(start.amplitudes(), &overlay);
            let mut got = start.clone();
            got.apply_view(&overlay);
            let drift = got
                .amplitudes()
                .iter()
                .zip(&expected)
                .map(|(g, e)| (*g - *e).abs())
                .fold(0.0, f64::max);
            assert!(drift <= 1e-12, "n = {n}, seed {seed}: max |Δamp| {drift:e}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gate_on_missing_qubit_panics() {
        let mut sv = StateVector::zero_state(2);
        sv.apply(&Gate::H(5));
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn cx_same_qubit_panics() {
        let mut sv = StateVector::zero_state(2);
        sv.apply(&Gate::Cx(1, 1));
    }
}
