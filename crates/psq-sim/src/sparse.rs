//! Sparse value-class simulation for huge-`N` exact search.
//!
//! Partial-search states are massively structured: every operator the
//! GroverR05 schedule applies (oracle reflection, global diffusion,
//! per-block diffusion, Step-3 inversion) maps states with few distinct
//! amplitude values to states with few distinct amplitude values.  Instead
//! of `N` amplitudes, [`SparseState`] stores one `(value, population)`
//! entry per *amplitude-equivalence class* and applies each operator in
//! `O(#classes)` arithmetic — the exact dynamics at `N = 2^30` and beyond,
//! where the dense SoA planes cannot even allocate.
//!
//! # The representation ladder
//!
//! The state climbs down (and back up) a three-rung ladder, always using
//! the cheapest representation that is still exact:
//!
//! 1. **`Symmetric`** — the canonical three-class form
//!    `(a_t, a_tb, a_nb)`, held as a [`ReducedState`] so bulk rotations run
//!    the *identical* closed-form arithmetic as the reduced backend.
//!    Ideal runs and oracle-fault trajectories never leave this rung
//!    (a skipped oracle call followed by a diffusion maps symmetric states
//!    to symmetric states), which is why fault-noise runs stay `O(1)` per
//!    clean stretch even at `N = 2^34`.
//! 2. **`Classes`** — a vector of *slice classes*: per block, address sets
//!    of the form `{x in block : x & mask == bits}` minus the pinned
//!    addresses (the target, plus at most one depolarizing-collapse
//!    survivor), each carrying one `Complex64` value and an exact
//!    population count.  A depolarizing collapse lands here (`≤ K + 2`
//!    entries); a dephasing phase kick *splits* classes on the kicked bit
//!    (populations are recounted exactly with a digit-DP, never
//!    enumerated).  A clean stretch of iterations is closed form here too:
//!    the non-target mean rotates with the target as on rung 1 while every
//!    deviation from it alternates sign, so the stretch costs
//!    `O(#classes)` whatever its length.
//! 3. **`Map`** — a `BTreeMap` from basis state to amplitude, the
//!    degraded form for states with no exploitable structure left; its
//!    iterations step one at a time.  Entered
//!    when splitting would exceed the class budget; only representable for
//!    `n ≤ `[`SPARSE_MAP_CEILING`].  Beyond that the simulator gives up
//!    with a panic naming the budget — the planner routes such jobs away
//!    from the sparse backend, so a served job never hits it.
//!
//! A depolarizing collapse rebuilds the canonical class partition (or, for
//! a collapse onto the target, returns all the way to `Symmetric`), so the
//! ladder is climbed back up as structure reappears.
//!
//! # Determinism contract
//!
//! Identical to the dense kernels: evolution is a pure function of the
//! operator sequence, all sums run in a fixed documented order (slice
//! classes in `(block, mask, bits)` order, then the target, then the
//! pinned survivor), `BTreeMap` iteration is key-ordered, and sampling
//! consumes exactly one `f64` draw.  No hashing of floats, no
//! iteration-order dependence, no thread-count dependence.

use crate::noise::QueryNoise;
use crate::reduced::ReducedState;
use psq_math::complex::Complex64;
use rand::Rng;
use std::collections::BTreeMap;

/// Default ceiling on slice-class count before degrading to the basis map.
pub const DEFAULT_MAX_CLASSES: usize = 4096;

/// Largest `n` the degraded basis-map rung can represent.  Dephasing at
/// larger `n` is unservable on the sparse backend; the planner enforces
/// this, and [`SparseState`] panics with a clear message if forced.
pub const SPARSE_MAP_CEILING: u64 = 1 << 22;

/// One slice class: the addresses of `block` matching `x & mask == bits`,
/// minus any pinned addresses, all sharing the amplitude `value`.
#[derive(Clone, Copy, Debug)]
struct SliceClass {
    block: u64,
    mask: u64,
    bits: u64,
    pop: u64,
    value: Complex64,
}

/// A pinned single address (the survivor of a depolarizing collapse onto a
/// non-target state) carrying its own amplitude.
#[derive(Clone, Copy, Debug)]
struct Pinned {
    addr: u64,
    value: Complex64,
}

/// The slice-class rung: target amplitude, optional pinned survivor, and
/// the slice classes partitioning every remaining address.
#[derive(Clone, Debug)]
struct ClassState {
    target_value: Complex64,
    singled: Option<Pinned>,
    classes: Vec<SliceClass>,
}

#[derive(Clone, Debug)]
enum Repr {
    Symmetric(ReducedState),
    Classes(ClassState),
    Map(BTreeMap<u64, Complex64>),
}

/// Exact sparse simulator over amplitude-equivalence classes (see module
/// docs for the representation ladder and determinism contract).
#[derive(Clone, Debug)]
pub struct SparseState {
    n: u64,
    k: u64,
    bsize: u64,
    target: u64,
    target_block: u64,
    queries: u64,
    split_events: u64,
    ever_degraded: bool,
    max_classes: usize,
    repr: Repr,
}

/// Counts the addresses `x` in `[0, limit)` with `x & mask == bits`.
///
/// Standard digit DP over the bits of `limit`: every `1` bit of `limit`
/// contributes the count of addresses that share the higher bits of
/// `limit`, have a `0` at that position, and range freely below — provided
/// the shared prefix (and the forced `0`) are consistent with the
/// constraint.
fn count_below(limit: u64, mask: u64, bits: u64) -> u64 {
    debug_assert_eq!(bits & !mask, 0, "constraint bits outside mask");
    let mut count = 0u64;
    for i in (0..64).rev() {
        if (limit >> i) & 1 == 1 {
            let above = if i == 63 { 0 } else { !0u64 << (i + 1) };
            let prefix_ok = (limit & mask & above) == (bits & above);
            let here_ok = (mask >> i) & 1 == 0 || (bits >> i) & 1 == 0;
            if prefix_ok && here_ok {
                let below = (1u64 << i) - 1;
                count += 1u64 << (!mask & below).count_ones();
            }
        }
    }
    count
}

/// Counts the addresses `x` in `[lo, hi)` with `x & mask == bits`, without
/// enumerating them.
pub fn count_in_range(lo: u64, hi: u64, mask: u64, bits: u64) -> u64 {
    if hi <= lo {
        return 0;
    }
    count_below(hi, mask, bits) - count_below(lo, mask, bits)
}

impl SparseState {
    /// The uniform superposition over `n` items in `k` equal blocks, with
    /// the marked item at `target`.
    ///
    /// Unlike the dense simulators the oracle/partition geometry is part of
    /// the state: classes are defined relative to the target and the block
    /// boundaries, so they must be fixed up front.
    pub fn uniform(n: u64, k: u64, target: u64) -> Self {
        assert!(n >= 2, "database must have at least two items");
        assert!(
            (1..=n).contains(&k),
            "block count {k} out of range for n = {n}"
        );
        assert_eq!(n % k, 0, "block count {k} must divide n = {n}");
        assert!(target < n, "target {target} out of range for n = {n}");
        let bsize = n / k;
        Self {
            n,
            k,
            bsize,
            target,
            target_block: target / bsize,
            queries: 0,
            split_events: 0,
            ever_degraded: false,
            max_classes: DEFAULT_MAX_CLASSES,
            repr: Repr::Symmetric(ReducedState::uniform(n as f64, k as f64)),
        }
    }

    /// Overrides the slice-class budget (degrade-to-map threshold).
    pub fn with_max_classes(mut self, max_classes: usize) -> Self {
        assert!(
            max_classes >= 4,
            "class budget must allow the canonical form"
        );
        self.max_classes = max_classes;
        self
    }

    /// Database size `N`.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Number of blocks `K`.
    pub fn k(&self) -> u64 {
        self.k
    }

    /// Items per block `N / K`.
    pub fn block_size(&self) -> u64 {
        self.bsize
    }

    /// The marked address.
    pub fn target(&self) -> u64 {
        self.target
    }

    /// The block containing the marked address.
    pub fn target_block(&self) -> u64 {
        self.target_block
    }

    /// Oracle queries charged so far.
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// Number of classes split by dephasing kicks so far (diagnostic).
    pub fn split_events(&self) -> u64 {
        self.split_events
    }

    /// Whether the state ever fell to the degraded basis-map rung.
    pub fn ever_degraded(&self) -> bool {
        self.ever_degraded
    }

    /// Whether the state is currently on the degraded basis-map rung.
    pub fn is_degraded(&self) -> bool {
        matches!(self.repr, Repr::Map(_))
    }

    /// Number of tracked amplitude classes in the current representation:
    /// 3 for the symmetric rung (marked / block-marked / rest), the exact
    /// entry count (slice classes + target + pinned survivor) for the class
    /// rung, and the basis-state count for the map rung.
    pub fn class_count(&self) -> usize {
        match &self.repr {
            Repr::Symmetric(_) => 3,
            Repr::Classes(cs) => cs.classes.len() + 1 + usize::from(cs.singled.is_some()),
            Repr::Map(map) => map.len(),
        }
    }

    /// The configured class budget.
    pub fn max_classes(&self) -> usize {
        self.max_classes
    }

    // ------------------------------------------------------------------
    // Amplitude access
    // ------------------------------------------------------------------

    /// The amplitude of basis state `x` (exact in every representation).
    pub fn amplitude(&self, x: u64) -> Complex64 {
        assert!(x < self.n, "address {x} out of range");
        match &self.repr {
            Repr::Symmetric(r) => {
                let value = if x == self.target {
                    r.amp_target()
                } else if x / self.bsize == self.target_block {
                    r.amp_target_block()
                } else {
                    r.amp_nontarget()
                };
                Complex64::from_real(value)
            }
            Repr::Classes(cs) => {
                if x == self.target {
                    return cs.target_value;
                }
                if let Some(p) = cs.singled.as_ref().filter(|p| p.addr == x) {
                    return p.value;
                }
                let block = x / self.bsize;
                for c in &cs.classes {
                    if c.block == block && x & c.mask == c.bits {
                        return c.value;
                    }
                }
                unreachable!("address {x} not covered by any class (invariant breach)");
            }
            Repr::Map(map) => map[&x],
        }
    }

    /// The probability of measuring basis state `x`.
    pub fn probability(&self, x: u64) -> f64 {
        self.amplitude(x).norm_sqr()
    }

    /// The probability of measuring the marked item.
    pub fn target_probability(&self) -> f64 {
        match &self.repr {
            Repr::Symmetric(r) => r.target_probability(),
            Repr::Classes(cs) => cs.target_value.norm_sqr(),
            Repr::Map(map) => map[&self.target].norm_sqr(),
        }
    }

    /// The probability of the measurement landing anywhere in `block`.
    pub fn block_probability(&self, block: u64) -> f64 {
        assert!(block < self.k, "block {block} out of range");
        match &self.repr {
            Repr::Symmetric(r) => {
                if block == self.target_block {
                    r.target_block_probability()
                } else {
                    self.bsize as f64 * r.amp_nontarget() * r.amp_nontarget()
                }
            }
            Repr::Classes(cs) => {
                let mut p = 0.0f64;
                for c in &cs.classes {
                    if c.block == block {
                        p += c.pop as f64 * c.value.norm_sqr();
                    }
                }
                if block == self.target_block {
                    p += cs.target_value.norm_sqr();
                }
                if let Some(pin) = cs.singled.as_ref().filter(|p| p.addr / self.bsize == block) {
                    p += pin.value.norm_sqr();
                }
                p
            }
            Repr::Map(map) => {
                let lo = block * self.bsize;
                map.range(lo..lo + self.bsize)
                    .map(|(_, v)| v.norm_sqr())
                    .sum()
            }
        }
    }

    /// Total squared norm (should remain 1 up to round-off).
    pub fn norm_sqr(&self) -> f64 {
        match &self.repr {
            Repr::Symmetric(r) => r.norm_sqr(),
            _ => (0..self.k).map(|b| self.block_probability(b)).sum(),
        }
    }

    /// Samples a block index from the block-probability distribution,
    /// consuming exactly one `f64` draw — the same walk (in block order)
    /// the dense `measure::sample_block` performs over amplitudes.
    pub fn sample_block<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let mut acc = 0.0f64;
        for block in 0..self.k {
            acc += self.block_probability(block);
            if u < acc {
                return block;
            }
        }
        self.k - 1
    }

    // ------------------------------------------------------------------
    // Operators
    // ------------------------------------------------------------------

    /// Charges `count` oracle queries without touching the state (the
    /// faulty-oracle bookkeeping: the call is paid for but does nothing).
    pub fn charge_queries(&mut self, count: u64) {
        self.queries += count;
    }

    /// The oracle reflection: phase-flips the marked amplitude. One query.
    pub fn oracle_flip(&mut self) {
        self.queries += 1;
        match &mut self.repr {
            // Delegate the arithmetic; `self.queries` stays authoritative
            // (the inner counter is never read back).
            Repr::Symmetric(r) => r.oracle_flip(),
            Repr::Classes(cs) => cs.target_value = -cs.target_value,
            Repr::Map(map) => {
                let v = map.get_mut(&self.target).expect("target in map");
                *v = -*v;
            }
        }
    }

    /// Global inversion about the mean of all `N` amplitudes.
    pub fn invert_about_mean(&mut self) {
        match &mut self.repr {
            Repr::Symmetric(r) => r.global_diffusion(),
            Repr::Classes(cs) => {
                let twice = Self::class_sum(cs).scale(2.0 / self.n as f64);
                for c in &mut cs.classes {
                    c.value = twice - c.value;
                }
                cs.target_value = twice - cs.target_value;
                if let Some(p) = &mut cs.singled {
                    p.value = twice - p.value;
                }
            }
            Repr::Map(map) => {
                let sum: Complex64 = map.values().copied().sum();
                let twice = sum.scale(2.0 / self.n as f64);
                for v in map.values_mut() {
                    *v = twice - *v;
                }
            }
        }
    }

    /// Per-block inversion about each block's own mean.
    pub fn invert_about_mean_per_block(&mut self) {
        let bsize = self.bsize;
        let bsize_f = bsize as f64;
        let target = self.target;
        match &mut self.repr {
            Repr::Symmetric(r) => r.block_diffusion(),
            Repr::Classes(cs) => {
                let twice = Self::twice_block_means(cs, self.k, bsize, target);
                for c in &mut cs.classes {
                    c.value = twice[c.block as usize] - c.value;
                }
                cs.target_value = twice[(target / bsize) as usize] - cs.target_value;
                if let Some(p) = &mut cs.singled {
                    p.value = twice[(p.addr / bsize) as usize] - p.value;
                }
            }
            Repr::Map(map) => {
                let k = self.n / bsize;
                for block in 0..k {
                    let lo = block * bsize;
                    let sum: Complex64 = map.range(lo..lo + bsize).map(|(_, v)| *v).sum();
                    let twice = sum.scale(2.0 / bsize_f);
                    for (_, v) in map.range_mut(lo..lo + bsize) {
                        *v = twice - *v;
                    }
                }
            }
        }
    }

    /// Step 3's controlled inversion: reflect the `N − 1` non-target
    /// amplitudes about their mean, leaving the target fixed. Charges one
    /// query (the marking operation `M`).
    pub fn invert_about_mean_excluding_target(&mut self) {
        self.queries += 1;
        let n_f = self.n as f64;
        match &mut self.repr {
            Repr::Symmetric(r) => r.diffusion_excluding_target(),
            Repr::Classes(cs) => {
                let twice = (Self::class_sum(cs) - cs.target_value).scale(2.0 / (n_f - 1.0));
                for c in &mut cs.classes {
                    c.value = twice - c.value;
                }
                if let Some(p) = &mut cs.singled {
                    p.value = twice - p.value;
                }
            }
            Repr::Map(map) => {
                let sum: Complex64 = map.values().copied().sum();
                let twice = (sum - map[&self.target]).scale(2.0 / (n_f - 1.0));
                for (x, v) in map.iter_mut() {
                    if *x != self.target {
                        *v = twice - *v;
                    }
                }
            }
        }
    }

    /// One standard Grover iteration (oracle flip, then global inversion).
    /// One query.
    pub fn grover_iteration(&mut self) {
        self.oracle_flip();
        self.invert_about_mean();
    }

    /// `iters` standard Grover iterations.  On the symmetric rung this
    /// delegates to [`ReducedState::grover_iterations`], so a bulk run is
    /// the identical closed-form `O(1)` arithmetic; on the class rung it is
    /// the same rotation in closed form over all `N` addresses (see
    /// `rotate_stretch`), `O(#classes)` whatever `iters` is; the map rung
    /// steps.
    pub fn grover_iterations(&mut self, iters: u64) {
        if iters == 0 {
            return;
        }
        match &mut self.repr {
            Repr::Symmetric(r) => r.grover_iterations(iters),
            Repr::Classes(cs) => Self::rotate_stretch(cs, self.n, iters, self.bsize, |_| true),
            Repr::Map(_) => {
                for _ in 0..iters {
                    self.grover_iteration();
                }
                return;
            }
        }
        self.queries += iters;
    }

    /// One per-block Grover iteration (oracle flip, then per-block
    /// inversion). One query.
    pub fn block_grover_iteration(&mut self) {
        self.oracle_flip();
        self.invert_about_mean_per_block();
    }

    /// `iters` per-block Grover iterations: closed form on the symmetric
    /// and class rungs, stepping on the map rung (and for one-item blocks).
    ///
    /// On the class rung the target block rotates exactly as a global
    /// stretch does over `b = N/K` addresses.  Every other block's
    /// inversion fixes that block's mean, so `iters` of them reflect it
    /// about that mean once when `iters` is odd and not at all when even.
    pub fn block_grover_iterations(&mut self, iters: u64) {
        if iters == 0 {
            return;
        }
        let (bsize, target, target_block) = (self.bsize, self.target, self.target_block);
        match &mut self.repr {
            Repr::Symmetric(r) => r.block_grover_iterations(iters),
            Repr::Classes(cs) if bsize >= 2 => {
                if iters % 2 == 1 {
                    let twice = Self::twice_block_means(cs, self.k, bsize, target);
                    for c in cs.classes.iter_mut().filter(|c| c.block != target_block) {
                        c.value = twice[c.block as usize] - c.value;
                    }
                    if let Some(p) = cs.singled.as_mut() {
                        if p.addr / bsize != target_block {
                            p.value = twice[(p.addr / bsize) as usize] - p.value;
                        }
                    }
                }
                Self::rotate_stretch(cs, bsize, iters, bsize, |block| block == target_block);
            }
            _ => {
                for _ in 0..iters {
                    self.block_grover_iteration();
                }
                return;
            }
        }
        self.queries += iters;
    }

    // ------------------------------------------------------------------
    // Noise channels
    // ------------------------------------------------------------------

    /// Applies one drawn query's channel events in the dense kernels'
    /// order: depolarizing collapse first, then the dephasing kick.  (The
    /// fault decision is the caller's to honour at oracle-call time, via
    /// [`SparseState::charge_queries`].)
    pub fn apply_channels(&mut self, noise: &QueryNoise) {
        if let Some(x) = noise.depolarize {
            self.collapse_to_basis(x);
        }
        if let Some((bit, theta)) = noise.dephase {
            self.phase_kick(bit, theta);
        }
    }

    /// Collapse to the basis state `|x⟩`.  A collapse onto the target
    /// climbs all the way back to the symmetric rung (the subsequent
    /// dynamics are again closed-form); any other address rebuilds the
    /// canonical class partition with `x` pinned — at most `K + 2` entries,
    /// whatever the class count was before.
    pub fn collapse_to_basis(&mut self, x: u64) {
        assert!(x < self.n, "collapse target out of range");
        if x == self.target {
            self.repr = Repr::Symmetric(ReducedState::from_amplitudes(
                self.n as f64,
                self.k as f64,
                1.0,
                0.0,
                0.0,
            ));
            return;
        }
        let mut classes = Vec::with_capacity(self.k as usize);
        let pinned = [self.target, x];
        for block in 0..self.k {
            let in_block = pinned.iter().filter(|&&p| p / self.bsize == block).count() as u64;
            let pop = self.bsize - in_block;
            if pop > 0 {
                classes.push(SliceClass {
                    block,
                    mask: 0,
                    bits: 0,
                    pop,
                    value: Complex64::ZERO,
                });
            }
        }
        self.repr = Repr::Classes(ClassState {
            target_value: Complex64::ZERO,
            singled: Some(Pinned {
                addr: x,
                value: Complex64::ONE,
            }),
            classes,
        });
    }

    /// The dephasing kick: multiply every amplitude whose address has
    /// `bit` set by `e^{iθ}`.  Classes whose slice does not determine the
    /// bit are split in two with exactly recounted populations; if the
    /// split would exceed the class budget the state degrades to the basis
    /// map (see module docs).
    pub fn phase_kick(&mut self, bit: u32, theta: f64) {
        self.materialize_classes();
        let rot = Complex64::new(theta.cos(), theta.sin());
        let bitmask = 1u64 << bit;
        match &mut self.repr {
            Repr::Symmetric(_) => unreachable!("materialized above"),
            Repr::Map(map) => {
                for (x, v) in map.iter_mut() {
                    if x & bitmask != 0 {
                        *v *= rot;
                    }
                }
                return;
            }
            Repr::Classes(cs) => {
                if self.target & bitmask != 0 {
                    cs.target_value *= rot;
                }
                if let Some(p) = cs.singled.as_mut().filter(|p| p.addr & bitmask != 0) {
                    p.value *= rot;
                }
                let mut pinned: Vec<u64> = vec![self.target];
                if let Some(p) = &cs.singled {
                    pinned.push(p.addr);
                }
                let mut out: Vec<SliceClass> = Vec::with_capacity(cs.classes.len() + 8);
                let mut splits = 0u64;
                for c in &cs.classes {
                    if c.mask & bitmask != 0 {
                        // The slice already determines the kicked bit.
                        let value = if c.bits & bitmask != 0 {
                            c.value * rot
                        } else {
                            c.value
                        };
                        out.push(SliceClass { value, ..*c });
                        continue;
                    }
                    let lo = c.block * self.bsize;
                    let hi = lo + self.bsize;
                    let set_mask = c.mask | bitmask;
                    let set_bits = c.bits | bitmask;
                    let mut pop_set = count_in_range(lo, hi, set_mask, set_bits);
                    pop_set -= pinned
                        .iter()
                        .filter(|&&p| (lo..hi).contains(&p) && p & set_mask == set_bits)
                        .count() as u64;
                    let pop_clear = c.pop - pop_set;
                    if pop_set == 0 {
                        // Whole class has the bit clear; no mask growth.
                        out.push(*c);
                    } else if pop_clear == 0 {
                        out.push(SliceClass {
                            value: c.value * rot,
                            ..*c
                        });
                    } else {
                        splits += 1;
                        out.push(SliceClass {
                            block: c.block,
                            mask: set_mask,
                            bits: c.bits,
                            pop: pop_clear,
                            value: c.value,
                        });
                        out.push(SliceClass {
                            block: c.block,
                            mask: set_mask,
                            bits: set_bits,
                            pop: pop_set,
                            value: c.value * rot,
                        });
                    }
                }
                self.split_events += splits;
                Self::canonicalize(&mut out, &mut cs.singled, self.bsize);
                cs.classes = out;
            }
        }
        // Budget check happens outside the match (borrow of `repr` ends).
        if self.class_count() > self.max_classes {
            self.degrade_to_map();
        }
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// The fixed-order total amplitude sum of a class state.
    fn class_sum(cs: &ClassState) -> Complex64 {
        let mut sum = Complex64::ZERO;
        for c in &cs.classes {
            sum += c.value.scale(c.pop as f64);
        }
        sum += cs.target_value;
        if let Some(p) = &cs.singled {
            sum += p.value;
        }
        sum
    }

    /// Twice each block's mean amplitude, indexed by block.  Each block's
    /// sum accumulates in the fixed order: its classes, then the target,
    /// then the survivor.
    fn twice_block_means(cs: &ClassState, k: u64, bsize: u64, target: u64) -> Vec<Complex64> {
        let mut sums = vec![Complex64::ZERO; k as usize];
        for c in &cs.classes {
            sums[c.block as usize] += c.value.scale(c.pop as f64);
        }
        sums[(target / bsize) as usize] += cs.target_value;
        if let Some(p) = &cs.singled {
            sums[(p.addr / bsize) as usize] += p.value;
        }
        let scale = 2.0 / bsize as f64;
        for s in &mut sums {
            *s = s.scale(scale);
        }
        sums
    }

    /// `iters` Grover iterations in closed form over a reflection domain
    /// of `size ≥ 2` addresses holding the target: the classes (and the
    /// survivor) of the blocks `in_domain` accepts, which must cover
    /// `size − 1` addresses.
    ///
    /// One iteration maps the domain's non-target mean `m` and the target
    /// `a` exactly as the reduced form maps `(a_t, a_nb)`, and negates every
    /// deviation `v − m`, since deviations sum to zero and so leave the
    /// domain mean alone.  So `(a, √(size−1)·m)` rotates by `2·iters·θ`
    /// with `sin θ = 1/√size`, as in [`ReducedState::grover_iterations`],
    /// and each deviation is multiplied by `(−1)^iters`.
    fn rotate_stretch(
        cs: &mut ClassState,
        size: u64,
        iters: u64,
        bsize: u64,
        in_domain: impl Fn(u64) -> bool,
    ) {
        let mut sum = Complex64::ZERO;
        for c in cs.classes.iter().filter(|c| in_domain(c.block)) {
            sum += c.value.scale(c.pop as f64);
        }
        let survivor = cs.singled.as_mut().filter(|p| in_domain(p.addr / bsize));
        if let Some(p) = &survivor {
            sum += p.value;
        }
        let rest_count = size as f64 - 1.0;
        let root = rest_count.sqrt();
        let mean = sum.scale(1.0 / rest_count);
        let rest = mean.scale(root);
        let angle = 2.0 * iters as f64 * psq_math::angle::grover_angle(size as f64);
        let (sin, cos) = angle.sin_cos();
        let target = cs.target_value;
        cs.target_value = target.scale(cos) + rest.scale(sin);
        let new_mean = (rest.scale(cos) - target.scale(sin)).scale(1.0 / root);
        let sign = if iters.is_multiple_of(2) { 1.0 } else { -1.0 };
        let shift = |v: Complex64| new_mean + (v - mean).scale(sign);
        if let Some(p) = survivor {
            p.value = shift(p.value);
        }
        for c in cs.classes.iter_mut().filter(|c| in_domain(c.block)) {
            c.value = shift(c.value);
        }
    }

    /// Lowers the symmetric rung into explicit slice classes (identity on
    /// the other rungs).  Called before operators the symmetric form
    /// cannot express (phase kicks).
    fn materialize_classes(&mut self) {
        let Repr::Symmetric(r) = &self.repr else {
            return;
        };
        let target_value = Complex64::from_real(r.amp_target());
        let amp_tb = Complex64::from_real(r.amp_target_block());
        let amp_nb = Complex64::from_real(r.amp_nontarget());
        let mut classes = Vec::with_capacity(self.k as usize);
        for block in 0..self.k {
            let (pop, value) = if block == self.target_block {
                (self.bsize - 1, amp_tb)
            } else {
                (self.bsize, amp_nb)
            };
            if pop > 0 {
                classes.push(SliceClass {
                    block,
                    mask: 0,
                    bits: 0,
                    pop,
                    value,
                });
            }
        }
        self.repr = Repr::Classes(ClassState {
            target_value,
            singled: None,
            classes,
        });
        if self.class_count() > self.max_classes {
            self.degrade_to_map();
        }
    }

    /// Sorts classes into `(block, mask, bits)` order and merges structure
    /// back together: a block whose classes all carry the bit-identical
    /// value collapses to one unmasked class, and the pinned survivor is
    /// absorbed into its block when its value matches.  This keeps repeated
    /// kick/diffusion rounds from leaking classes that have re-converged.
    fn canonicalize(classes: &mut Vec<SliceClass>, singled: &mut Option<Pinned>, bsize: u64) {
        classes.sort_by_key(|c| (c.block, c.mask, c.bits));
        let mut merged: Vec<SliceClass> = Vec::with_capacity(classes.len());
        let same_value = |a: Complex64, b: Complex64| {
            a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
        };
        let mut i = 0;
        while i < classes.len() {
            let mut j = i + 1;
            while j < classes.len() && classes[j].block == classes[i].block {
                j += 1;
            }
            let uniform = classes[i..j]
                .iter()
                .all(|c| same_value(c.value, classes[i].value));
            if uniform && j - i > 1 {
                merged.push(SliceClass {
                    block: classes[i].block,
                    mask: 0,
                    bits: 0,
                    pop: classes[i..j].iter().map(|c| c.pop).sum(),
                    value: classes[i].value,
                });
            } else {
                merged.extend_from_slice(&classes[i..j]);
            }
            i = j;
        }
        // Absorb the survivor when its block is back to a single unmasked
        // class with the identical value.
        if let Some(p) = singled.as_ref() {
            let block = p.addr / bsize;
            let sole_uniform_class = merged.iter().filter(|c| c.block == block).count() == 1
                && merged
                    .iter()
                    .any(|c| c.block == block && c.mask == 0 && same_value(c.value, p.value));
            if sole_uniform_class {
                if let Some(c) = merged.iter_mut().find(|c| c.block == block) {
                    c.pop += 1;
                }
                *singled = None;
            }
        }
        *classes = merged;
    }

    /// Falls to the basis-map rung.
    ///
    /// # Panics
    /// Panics when `n > `[`SPARSE_MAP_CEILING`] — the point where the
    /// sparse backend gives up.  The planner refuses to route such jobs
    /// here, so this fires only on direct misuse of the simulator.
    fn degrade_to_map(&mut self) {
        if matches!(self.repr, Repr::Map(_)) {
            return;
        }
        assert!(
            self.n <= SPARSE_MAP_CEILING,
            "sparse state exceeded its class budget ({} > {}) and n = {} is past the \
             basis-map ceiling of {} — this job is unservable on the sparse backend",
            self.class_count(),
            self.max_classes,
            self.n,
            SPARSE_MAP_CEILING,
        );
        let map: BTreeMap<u64, Complex64> = (0..self.n).map(|x| (x, self.amplitude(x))).collect();
        self.repr = Repr::Map(map);
        self.ever_degraded = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::QueryNoise;
    use crate::oracle::{Database, Partition};
    use crate::statevector::StateVector;
    use psq_math::approx::assert_close;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn count_brute(lo: u64, hi: u64, mask: u64, bits: u64) -> u64 {
        (lo..hi).filter(|x| x & mask == bits).count() as u64
    }

    #[test]
    fn count_in_range_matches_brute_force() {
        let cases = [
            (0u64, 64u64, 0u64, 0u64),
            (0, 64, 0b101, 0b001),
            (7, 51, 0b110, 0b010),
            (13, 14, 0b1, 0b1),
            (0, 1, 0b1, 0b0),
            (32, 96, 0b10100, 0b10000),
            (5, 5, 0b1, 0b1),
        ];
        for (lo, hi, mask, bits) in cases {
            assert_eq!(
                count_in_range(lo, hi, mask, bits),
                count_brute(lo, hi, mask, bits),
                "({lo}, {hi}, {mask:#b}, {bits:#b})"
            );
        }
        // Dense sweep over a small universe of (range, mask, bits) triples.
        for mask in 0..16u64 {
            for bits in 0..16u64 {
                if bits & !mask != 0 {
                    continue;
                }
                for lo in 0..20u64 {
                    for hi in lo..24u64 {
                        assert_eq!(
                            count_in_range(lo, hi, mask, bits),
                            count_brute(lo, hi, mask, bits)
                        );
                    }
                }
            }
        }
        // Top-bit edge cases (i == 63 shift paths).
        assert_eq!(count_below(u64::MAX, 0, 0), u64::MAX);
        assert_eq!(count_below(u64::MAX, 1 << 63, 1 << 63), (1 << 63) - 1);
        assert_eq!(count_in_range(0, 1 << 40, 1 << 39, 1 << 39), 1 << 39);
    }

    #[test]
    fn uniform_state_is_normalised_and_symmetric() {
        let s = SparseState::uniform(1 << 30, 64, 12345);
        assert_close(s.norm_sqr(), 1.0, 1e-9);
        assert_eq!(s.class_count(), 3);
        assert_eq!(s.queries(), 0);
        assert!(!s.is_degraded());
        assert_eq!(s.target_block(), 12345 / (1u64 << 24));
    }

    #[test]
    fn ideal_evolution_is_bitwise_identical_to_reduced() {
        let (n, k) = (1u64 << 20, 16u64);
        let mut sparse = SparseState::uniform(n, k, 777);
        let mut reduced = ReducedState::uniform(n as f64, k as f64);
        sparse.grover_iterations(402);
        reduced.grover_iterations(402);
        sparse.block_grover_iterations(201);
        reduced.block_grover_iterations(201);
        sparse.invert_about_mean_excluding_target();
        reduced.diffusion_excluding_target();
        assert_eq!(
            sparse.block_probability(sparse.target_block()).to_bits(),
            reduced.target_block_probability().to_bits(),
            "symmetric-rung delegation must be bit-identical"
        );
        assert_eq!(sparse.queries(), reduced.queries());
        assert_eq!(sparse.class_count(), 3);
    }

    /// Runs the same operator sequence on a dense state vector and the
    /// sparse state, comparing every amplitude after each operation.
    fn assert_matches_dense(n: u64, k: u64, target: u64, ops: &[&str], tol: f64) {
        let db = Database::new(n, target);
        let partition = Partition::new(n, k);
        let mut dense = StateVector::uniform(n as usize);
        let mut sparse = SparseState::uniform(n, k, target);
        let mut rng = StdRng::seed_from_u64(9);
        for (step, op) in ops.iter().enumerate() {
            match *op {
                "oracle" => {
                    dense.apply_oracle_phase_flip(&db);
                    sparse.oracle_flip();
                }
                "global" => {
                    dense.invert_about_mean();
                    sparse.invert_about_mean();
                }
                "block" => {
                    dense.invert_about_mean_per_block(&partition);
                    sparse.invert_about_mean_per_block();
                }
                "step3" => {
                    dense.invert_about_mean_excluding_target(&db);
                    sparse.invert_about_mean_excluding_target();
                }
                "collapse" => {
                    let x = rng.gen_range(0..n);
                    let noise = QueryNoise {
                        faulty: false,
                        depolarize: Some(x),
                        dephase: None,
                    };
                    crate::noise::apply_channels(&mut dense, &noise);
                    sparse.apply_channels(&noise);
                }
                "kick" => {
                    let bits = (64 - (n - 1).leading_zeros()).max(1);
                    let bit = rng.gen_range(0..bits);
                    let theta = rng.gen_range(0.0..std::f64::consts::TAU);
                    let noise = QueryNoise {
                        faulty: false,
                        depolarize: None,
                        dephase: Some((bit, theta)),
                    };
                    crate::noise::apply_channels(&mut dense, &noise);
                    sparse.apply_channels(&noise);
                }
                other => panic!("unknown op {other}"),
            }
            for x in 0..n {
                let d = dense.amplitude(x as usize);
                let s = sparse.amplitude(x);
                assert!(
                    (d.re - s.re).abs() <= tol && (d.im - s.im).abs() <= tol,
                    "step {step} ({op}): amplitude {x} diverged: dense {d:?} vs sparse {s:?}"
                );
            }
            assert_close(sparse.norm_sqr(), 1.0, 1e-9);
        }
    }

    #[test]
    fn class_dynamics_match_dense_statevector() {
        assert_matches_dense(
            48,
            4,
            29,
            &[
                "oracle", "global", "oracle", "global", "collapse", "oracle", "global", "oracle",
                "block", "step3",
            ],
            1e-12,
        );
    }

    #[test]
    fn phase_kicks_split_classes_and_match_dense() {
        let (n, k, target) = (64u64, 4u64, 37u64);
        assert_matches_dense(
            n,
            k,
            target,
            &[
                "oracle", "global", "kick", "oracle", "global", "kick", "kick", "oracle", "block",
                "step3", "kick", "oracle", "global",
            ],
            1e-12,
        );
        // And explicitly: a kick on an undetermined bit splits.
        let mut s = SparseState::uniform(n, k, target);
        s.grover_iteration();
        assert_eq!(s.split_events(), 0);
        s.phase_kick(1, 0.8);
        assert!(s.split_events() > 0, "kick on an in-block bit must split");
        assert!(s.class_count() <= s.max_classes());
        assert!(!s.is_degraded());
    }

    #[test]
    fn class_count_stays_bounded_and_collapse_resets_it() {
        let (n, k, target) = (256u64, 8u64, 100u64);
        let mut s = SparseState::uniform(n, k, target);
        s.grover_iteration();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..64 {
            let bit = rng.gen_range(0..8u32);
            let theta = rng.gen_range(0.0..std::f64::consts::TAU);
            s.phase_kick(bit, theta);
            // Populations are exact: every address is covered exactly once.
            assert!(s.class_count() <= n as usize + 2);
            assert_close(s.norm_sqr(), 1.0, 1e-9);
        }
        assert!(s.split_events() > 0);
        s.collapse_to_basis(3);
        assert!(s.class_count() <= k as usize + 2, "collapse resets classes");
        s.collapse_to_basis(target);
        assert_eq!(s.class_count(), 3, "collapse onto target re-symmetrizes");
        assert_close(s.target_probability(), 1.0, 1e-15);
        // Closed-form resumption from the collapsed state stays normalised.
        s.grover_iterations(5);
        assert_close(s.norm_sqr(), 1.0, 1e-9);
    }

    #[test]
    fn degrades_to_map_under_budget_pressure_and_stays_exact() {
        let (n, k, target) = (64u64, 4u64, 9u64);
        let db = Database::new(n, target);
        let partition = Partition::new(n, k);
        let mut dense = StateVector::uniform(n as usize);
        let mut sparse = SparseState::uniform(n, k, target).with_max_classes(6);
        let mut rng = StdRng::seed_from_u64(11);
        for i in 0..12 {
            dense.grover_iteration(&db);
            sparse.grover_iteration();
            let bit = rng.gen_range(0..6u32);
            let theta = rng.gen_range(0.0..std::f64::consts::TAU);
            let noise = QueryNoise {
                faulty: false,
                depolarize: None,
                dephase: Some((bit, theta)),
            };
            crate::noise::apply_channels(&mut dense, &noise);
            sparse.apply_channels(&noise);
            if i == 5 {
                // Mid-run per-block + step-3 exercises the map rung's
                // grouped sweeps too.
                dense.invert_about_mean_per_block(&partition);
                sparse.invert_about_mean_per_block();
                dense.invert_about_mean_excluding_target(&db);
                sparse.invert_about_mean_excluding_target();
            }
        }
        assert!(sparse.is_degraded(), "budget of 6 must force the map rung");
        assert!(sparse.ever_degraded());
        for x in 0..n {
            let d = dense.amplitude(x as usize);
            let s = sparse.amplitude(x);
            assert!((d.re - s.re).abs() <= 1e-12 && (d.im - s.im).abs() <= 1e-12);
        }
        // A collapse climbs back off the map rung.
        sparse.collapse_to_basis(5);
        assert!(!sparse.is_degraded());
        assert!(sparse.ever_degraded(), "the sticky flag remembers");
    }

    /// Class-rung starting points, each with its dense twin: a collapse
    /// onto a survivor inside the target block, one onto a survivor in
    /// another block, and dephasing kicks that split classes.  A Grover
    /// iteration after the events makes every amplitude generic.
    fn class_rung_starts(n: u64, k: u64, target: u64) -> Vec<(SparseState, StateVector)> {
        let db = Database::new(n, target);
        let bsize = n / k;
        let collapse = |x: u64| QueryNoise {
            faulty: false,
            depolarize: Some(x),
            dephase: None,
        };
        let kick = |bit: u32, theta: f64| QueryNoise {
            faulty: false,
            depolarize: None,
            dephase: Some((bit, theta)),
        };
        let in_target_block = (target / bsize) * bsize + (target + 5) % bsize;
        let elsewhere = (target + 3 * bsize / 2) % n;
        let event_lists = [
            vec![collapse(in_target_block)],
            vec![collapse(elsewhere)],
            vec![
                kick(1, 0.7),
                kick(4, 1.9),
                kick(n.trailing_zeros() - 1, 2.6),
            ],
        ];
        event_lists
            .iter()
            .map(|events| {
                let mut sparse = SparseState::uniform(n, k, target);
                let mut dense = StateVector::uniform(n as usize);
                for noise in events {
                    sparse.apply_channels(noise);
                    crate::noise::apply_channels(&mut dense, noise);
                }
                sparse.grover_iteration();
                dense.grover_iteration(&db);
                assert!(matches!(sparse.repr, Repr::Classes(_)), "{events:?}");
                (sparse, dense)
            })
            .collect()
    }

    #[test]
    fn class_rung_stretches_match_stepping_and_dense() {
        let (n, k, target) = (1u64 << 12, 8u64, 2741u64);
        let db = Database::new(n, target);
        let partition = Partition::new(n, k);
        for (start, dense_start) in class_rung_starts(n, k, target) {
            for iters in [1u64, 2, 3, 16, 17] {
                for per_block in [false, true] {
                    let (mut closed, mut stepped) = (start.clone(), start.clone());
                    let mut dense = dense_start.clone();
                    if per_block {
                        closed.block_grover_iterations(iters);
                        (0..iters).for_each(|_| stepped.block_grover_iteration());
                        dense.block_grover_iterations(&db, &partition, iters);
                    } else {
                        closed.grover_iterations(iters);
                        (0..iters).for_each(|_| stepped.grover_iteration());
                        dense.grover_iterations(&db, iters);
                    }
                    assert_eq!(closed.queries(), stepped.queries());
                    assert_eq!(closed.class_count(), start.class_count());
                    for x in 0..n {
                        let c = closed.amplitude(x);
                        for (other, name) in [
                            (stepped.amplitude(x), "stepped"),
                            (dense.amplitude(x as usize), "dense"),
                        ] {
                            assert!(
                                (c - other).abs() <= 1e-12,
                                "{iters} iterations (per block: {per_block}), amplitude {x}: \
                                 closed {c:?} vs {name} {other:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn class_rung_stretch_of_two_to_the_forty_returns_normalised() {
        let n = 1u64 << 40;
        let mut s = SparseState::uniform(n, 8, 987_654_321_012);
        s.collapse_to_basis(5);
        s.grover_iterations(1 << 40);
        assert!(matches!(s.repr, Repr::Classes(_)));
        assert_close(s.norm_sqr(), 1.0, 1e-9);
        s.block_grover_iterations(1 << 40);
        assert_close(s.norm_sqr(), 1.0, 1e-9);
        assert_eq!(s.queries(), 2 << 40);
    }

    #[test]
    fn sampling_consumes_one_draw_and_walks_blocks_in_order() {
        let s = SparseState::uniform(64, 4, 3);
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        let block = s.sample_block(&mut a);
        let u: f64 = b.gen();
        assert!(block < 4);
        assert_eq!(block, (u * 4.0) as u64, "uniform state: quartile walk");
        // Both rngs are now in the same position.
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    #[should_panic(expected = "unservable on the sparse backend")]
    fn degrading_past_the_map_ceiling_gives_up_loudly() {
        let mut s = SparseState::uniform(SPARSE_MAP_CEILING * 2, 4, 1).with_max_classes(4);
        // One in-block kick needs > 4 classes, and n is past the ceiling.
        s.phase_kick(0, 1.0);
    }

    #[test]
    fn huge_n_ideal_schedule_runs_in_microseconds() {
        // The whole point: exact dynamics at N = 2^34 with K = 2^10.
        let n = 1u64 << 34;
        let mut s = SparseState::uniform(n, 1 << 10, 987_654_321);
        let iters = psq_math::angle::optimal_grover_iterations(n as f64);
        s.grover_iterations(iters);
        assert!(s.target_probability() > 1.0 - 1e-8);
        assert_eq!(s.queries(), iters);
    }
}
