//! The simulated machine: cores, speeds, and affinity masks.

use crate::work::Speed;
use std::fmt;

/// Identifies a core within a [`MachineSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub usize);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

/// A set of cores a thread may run on, as a bitmask (the process-affinity
/// API the paper uses to pin DB2 server processes and Zeus event loops).
///
/// # Examples
///
/// ```
/// use asym_sim::{CoreId, CoreMask};
///
/// let mask = CoreMask::single(CoreId(2));
/// assert!(mask.contains(CoreId(2)));
/// assert!(!mask.contains(CoreId(0)));
/// assert!(CoreMask::ALL.contains(CoreId(63)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CoreMask(u64);

impl CoreMask {
    /// All cores allowed (the default for unpinned threads).
    pub const ALL: CoreMask = CoreMask(u64::MAX);

    /// A mask allowing only `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core.0 >= 64`.
    pub fn single(core: CoreId) -> Self {
        assert!(core.0 < 64, "core index {} exceeds mask width", core.0);
        CoreMask(1 << core.0)
    }

    /// A mask built from an iterator of cores.
    ///
    /// # Panics
    ///
    /// Panics if any core index is 64 or larger.
    pub fn from_cores<I: IntoIterator<Item = CoreId>>(cores: I) -> Self {
        let mut mask = 0u64;
        for c in cores {
            assert!(c.0 < 64, "core index {} exceeds mask width", c.0);
            mask |= 1 << c.0;
        }
        CoreMask(mask)
    }

    /// The raw 64-bit representation (bit *i* set ⇔ core *i* allowed).
    /// Round-trips through [`CoreMask::from_bits`]; used by compact
    /// trace encoders that need a stable wire form for affinity masks.
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Rebuilds a mask from its [`bits`](CoreMask::bits) representation.
    pub fn from_bits(bits: u64) -> Self {
        CoreMask(bits)
    }

    /// Returns `true` if `core` is in the mask.
    pub fn contains(self, core: CoreId) -> bool {
        core.0 < 64 && self.0 & (1 << core.0) != 0
    }

    /// Returns `true` if no core is allowed (an unschedulable mask).
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The cores allowed by both `self` and `other`.
    #[inline]
    pub fn intersection(self, other: CoreMask) -> CoreMask {
        CoreMask(self.0 & other.0)
    }

    /// Iterates over the cores of the mask, in index order, without
    /// allocating.
    #[inline]
    pub fn iter(self) -> impl Iterator<Item = CoreId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let core = CoreId(bits.trailing_zeros() as usize);
                bits &= bits - 1;
                core
            })
        })
    }

    /// Iterates over the cores of the mask that exist on a machine with
    /// `num_cores` cores, in index order.
    pub fn cores_on(self, num_cores: usize) -> impl Iterator<Item = CoreId> {
        self.iter().take_while(move |c| c.0 < num_cores)
    }
}

impl Default for CoreMask {
    fn default() -> Self {
        CoreMask::ALL
    }
}

impl fmt::Display for CoreMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// Describes the cores of a simulated machine.
///
/// # Examples
///
/// ```
/// use asym_sim::{MachineSpec, Speed};
///
/// // The paper's 2f-2s/8: two fast cores, two at 1/8 speed.
/// let spec = MachineSpec::asymmetric(2, 2, Speed::fraction_of_full(8));
/// assert_eq!(spec.num_cores(), 4);
/// assert_eq!(spec.total_compute_power(), 2.25);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    speeds: Vec<Speed>,
}

impl MachineSpec {
    /// A machine whose core speeds are given explicitly, fast cores first by
    /// convention.
    ///
    /// # Panics
    ///
    /// Panics if `speeds` is empty or has more than 64 cores (see
    /// [`MachineSpec::try_new`] for the non-panicking form).
    pub fn new(speeds: Vec<Speed>) -> Self {
        match MachineSpec::try_new(speeds) {
            Ok(spec) => spec,
            Err(e) => panic!("invalid machine: {e}"),
        }
    }

    /// A machine whose core speeds are given explicitly, reporting invalid
    /// shapes as an error instead of panicking.
    ///
    /// A machine must have at least one core and at most 64 (the width of
    /// [`CoreMask`] — more cores would silently fall outside every affinity
    /// mask and never be scheduled).
    ///
    /// # Errors
    ///
    /// Returns [`MachineSpecError`] if `speeds` is empty or longer than 64.
    pub fn try_new(speeds: Vec<Speed>) -> Result<Self, MachineSpecError> {
        if speeds.is_empty() {
            return Err(MachineSpecError::NoCores);
        }
        if speeds.len() > 64 {
            return Err(MachineSpecError::TooManyCores {
                requested: speeds.len(),
            });
        }
        Ok(MachineSpec { speeds })
    }

    /// A performance-symmetric machine of `n` cores at `speed`.
    pub fn symmetric(n: usize, speed: Speed) -> Self {
        MachineSpec::new(vec![speed; n])
    }

    /// The paper's `nf-ms/scale` style machine: `fast` full-speed cores
    /// followed by `slow` cores at `slow_speed`.
    pub fn asymmetric(fast: usize, slow: usize, slow_speed: Speed) -> Self {
        let mut speeds = vec![Speed::FULL; fast];
        speeds.extend(std::iter::repeat_n(slow_speed, slow));
        MachineSpec::new(speeds)
    }

    /// The number of cores.
    pub fn num_cores(&self) -> usize {
        self.speeds.len()
    }

    /// The speed of `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn speed(&self, core: CoreId) -> Speed {
        self.speeds[core.0]
    }

    /// Changes the speed of `core` — the dynamic-asymmetry case (thermal
    /// throttling, DVFS, duty-cycle re-modulation) injected by a fault
    /// plan mid-run.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn set_speed(&mut self, core: CoreId, speed: Speed) {
        self.speeds[core.0] = speed;
    }

    /// All core speeds, indexed by core.
    pub fn speeds(&self) -> &[Speed] {
        &self.speeds
    }

    /// Iterates over `(core, speed)` pairs.
    pub fn cores(&self) -> impl Iterator<Item = (CoreId, Speed)> + '_ {
        self.speeds.iter().enumerate().map(|(i, s)| (CoreId(i), *s))
    }

    /// The sum of speed factors — the paper's "total compute power"
    /// `n + m/scale`.
    pub fn total_compute_power(&self) -> f64 {
        self.speeds.iter().map(|s| s.factor()).sum()
    }

    /// Returns `true` when every core runs at the same speed.
    pub fn is_symmetric(&self) -> bool {
        self.speeds.windows(2).all(|w| w[0] == w[1])
    }

    /// The fastest core speed on the machine.
    pub fn max_speed(&self) -> Speed {
        *self.speeds.iter().max().expect("machine has cores")
    }

    /// The slowest core speed on the machine.
    pub fn min_speed(&self) -> Speed {
        *self.speeds.iter().min().expect("machine has cores")
    }
}

/// Error returned by [`MachineSpec::try_new`] for a machine shape the
/// simulator cannot schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineSpecError {
    /// The speed list was empty — a machine needs at least one core.
    NoCores,
    /// More cores than [`CoreMask`] can address: the extras would fall
    /// outside every affinity mask and silently never run.
    TooManyCores {
        /// The number of cores requested.
        requested: usize,
    },
}

impl fmt::Display for MachineSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineSpecError::NoCores => write!(f, "a machine needs at least one core"),
            MachineSpecError::TooManyCores { requested } => write!(
                f,
                "at most 64 cores are supported (affinity masks are 64 bits wide), got {requested}"
            ),
        }
    }
}

impl std::error::Error for MachineSpecError {}

impl fmt::Display for MachineSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, s) in self.speeds.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asymmetric_machine_power() {
        let m = MachineSpec::asymmetric(3, 1, Speed::fraction_of_full(4));
        assert_eq!(m.num_cores(), 4);
        assert_eq!(m.total_compute_power(), 3.25);
        assert!(!m.is_symmetric());
        assert_eq!(m.max_speed(), Speed::FULL);
        assert_eq!(m.min_speed(), Speed::fraction_of_full(4));
    }

    #[test]
    fn symmetric_machine_detected() {
        let m = MachineSpec::symmetric(4, Speed::fraction_of_full(8));
        assert!(m.is_symmetric());
        assert_eq!(m.total_compute_power(), 0.5);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn empty_machine_rejected() {
        let _ = MachineSpec::new(vec![]);
    }

    #[test]
    fn try_new_reports_invalid_shapes() {
        assert_eq!(MachineSpec::try_new(vec![]), Err(MachineSpecError::NoCores));
        assert_eq!(
            MachineSpec::try_new(vec![Speed::FULL; 65]),
            Err(MachineSpecError::TooManyCores { requested: 65 })
        );
        let ok = MachineSpec::try_new(vec![Speed::FULL; 64]).unwrap();
        assert_eq!(ok.num_cores(), 64);
    }

    #[test]
    #[should_panic(expected = "at most 64 cores")]
    fn oversized_machine_rejected() {
        let _ = MachineSpec::symmetric(65, Speed::FULL);
    }

    #[test]
    fn set_speed_changes_one_core() {
        let mut m = MachineSpec::symmetric(2, Speed::FULL);
        m.set_speed(CoreId(1), Speed::fraction_of_full(8));
        assert_eq!(m.speed(CoreId(0)), Speed::FULL);
        assert_eq!(m.speed(CoreId(1)), Speed::fraction_of_full(8));
        assert!(!m.is_symmetric());
    }

    #[test]
    fn mask_membership() {
        let mask = CoreMask::from_cores([CoreId(0), CoreId(3)]);
        assert!(mask.contains(CoreId(0)));
        assert!(!mask.contains(CoreId(1)));
        assert!(mask.contains(CoreId(3)));
        let cores: Vec<usize> = mask.cores_on(4).map(|c| c.0).collect();
        assert_eq!(cores, vec![0, 3]);
        assert_eq!(mask.cores_on(3).count(), 1);
        let both = mask.intersection(CoreMask::from_cores([CoreId(3), CoreId(63)]));
        assert_eq!(both, CoreMask::single(CoreId(3)));
        let all: Vec<usize> = CoreMask::ALL.iter().map(|c| c.0).collect();
        assert_eq!(all, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn empty_mask() {
        let mask = CoreMask::from_cores(std::iter::empty());
        assert!(mask.is_empty());
        assert_eq!(mask.cores_on(4).count(), 0);
    }

    #[test]
    fn fast_cores_come_first() {
        let m = MachineSpec::asymmetric(1, 3, Speed::fraction_of_full(8));
        assert_eq!(m.speed(CoreId(0)), Speed::FULL);
        for i in 1..4 {
            assert_eq!(m.speed(CoreId(i)), Speed::fraction_of_full(8));
        }
    }
}
