//! The four weight storage spaces of HH-PIM and placements over them.
//!
//! HH-PIM exposes HP-MRAM, HP-SRAM, LP-MRAM and LP-SRAM as distinct
//! storage spaces with different latency/energy trade-offs (paper §III).
//! A [`Placement`] assigns every *weight group* to one space; the
//! optimizer in [`crate::dp`] chooses placements, and the runtime in
//! [`crate::runtime`] evaluates them.

use core::fmt;
use hhpim_mem::{ClusterClass, MemKind};

/// One of the four weight storage spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StorageSpace {
    /// High-performance cluster MRAM.
    HpMram,
    /// High-performance cluster SRAM.
    HpSram,
    /// Low-power cluster MRAM.
    LpMram,
    /// Low-power cluster SRAM.
    LpSram,
}

impl StorageSpace {
    /// All four spaces; per-cluster order is MRAM then SRAM, matching
    /// the paper's DP iteration over `i = 1..n/2` per cluster.
    pub const ALL: [StorageSpace; 4] = [
        StorageSpace::HpMram,
        StorageSpace::HpSram,
        StorageSpace::LpMram,
        StorageSpace::LpSram,
    ];

    /// The cluster this space belongs to.
    pub fn cluster(self) -> ClusterClass {
        match self {
            StorageSpace::HpMram | StorageSpace::HpSram => ClusterClass::HighPerformance,
            StorageSpace::LpMram | StorageSpace::LpSram => ClusterClass::LowPower,
        }
    }

    /// The memory technology of this space.
    pub fn kind(self) -> MemKind {
        match self {
            StorageSpace::HpMram | StorageSpace::LpMram => MemKind::Mram,
            StorageSpace::HpSram | StorageSpace::LpSram => MemKind::Sram,
        }
    }

    /// The two spaces of `cluster` in `[Mram, Sram]` order.
    pub fn of_cluster(cluster: ClusterClass) -> [StorageSpace; 2] {
        match cluster {
            ClusterClass::HighPerformance => [StorageSpace::HpMram, StorageSpace::HpSram],
            ClusterClass::LowPower => [StorageSpace::LpMram, StorageSpace::LpSram],
        }
    }

    /// Index into `[0, 4)` used by fixed-size per-space arrays.
    pub fn index(self) -> usize {
        match self {
            StorageSpace::HpMram => 0,
            StorageSpace::HpSram => 1,
            StorageSpace::LpMram => 2,
            StorageSpace::LpSram => 3,
        }
    }

    /// Display name matching the paper ("HP-MRAM" etc.).
    pub fn name(self) -> &'static str {
        match self {
            StorageSpace::HpMram => "HP-MRAM",
            StorageSpace::HpSram => "HP-SRAM",
            StorageSpace::LpMram => "LP-MRAM",
            StorageSpace::LpSram => "LP-SRAM",
        }
    }
}

impl fmt::Display for StorageSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// A weight placement: how many weight groups live in each space.
///
/// # Examples
///
/// ```
/// use hhpim::{Placement, StorageSpace};
/// let mut p = Placement::empty();
/// p.set(StorageSpace::HpSram, 16);
/// p.set(StorageSpace::LpSram, 9);
/// assert_eq!(p.total(), 25);
/// assert_eq!(p.cluster_total(hhpim_mem::ClusterClass::HighPerformance), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Placement {
    counts: [usize; 4],
}

impl Placement {
    /// A placement with nothing assigned.
    pub fn empty() -> Self {
        Self::default()
    }

    /// A placement with all `k` groups in a single space.
    pub fn all_in(space: StorageSpace, k: usize) -> Self {
        let mut p = Self::default();
        p.counts[space.index()] = k;
        p
    }

    /// Builds from `[HpMram, HpSram, LpMram, LpSram]` counts.
    pub fn from_counts(counts: [usize; 4]) -> Self {
        Placement { counts }
    }

    /// Groups assigned to `space`.
    pub fn get(&self, space: StorageSpace) -> usize {
        self.counts[space.index()]
    }

    /// Sets the group count of `space`.
    pub fn set(&mut self, space: StorageSpace, groups: usize) {
        self.counts[space.index()] = groups;
    }

    /// Total groups placed.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Groups placed in `cluster`.
    pub fn cluster_total(&self, cluster: ClusterClass) -> usize {
        StorageSpace::of_cluster(cluster)
            .iter()
            .map(|&s| self.get(s))
            .sum()
    }

    /// Iterates `(space, groups)` for all four spaces.
    pub fn iter(&self) -> impl Iterator<Item = (StorageSpace, usize)> + '_ {
        StorageSpace::ALL.iter().map(move |&s| (s, self.get(s)))
    }

    /// Iterates only occupied spaces.
    pub fn occupied(&self) -> impl Iterator<Item = (StorageSpace, usize)> + '_ {
        self.iter().filter(|&(_, n)| n > 0)
    }

    /// Total groups that differ from `other` (one-directional: groups
    /// that must *move* to reach `other`; symmetric by construction
    /// because totals match).
    pub fn groups_moved_to(&self, other: &Placement) -> usize {
        StorageSpace::ALL
            .iter()
            .map(|&s| other.get(s).saturating_sub(self.get(s)))
            .sum()
    }

    /// Fraction of groups per space, as percentages (for Fig. 6's
    /// memory-utilization axis).
    pub fn utilization_pct(&self) -> [f64; 4] {
        let total = self.total().max(1) as f64;
        let mut out = [0.0; 4];
        for (s, n) in self.iter() {
            out[s.index()] = n as f64 / total * 100.0;
        }
        out
    }
}

/// One leg of a placement transition: `groups` weight groups that must
/// travel from `src` to `dst`.
///
/// Legs are produced by [`movement_legs`] with a greedy pairing in
/// [`StorageSpace::ALL`] order — the deterministic plan both the
/// analytic movement-cost model and the cycle machine's migration
/// engine execute, so their traffic is directly comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MovementLeg {
    /// Space the groups leave.
    pub src: StorageSpace,
    /// Space the groups arrive in.
    pub dst: StorageSpace,
    /// Number of weight groups moved.
    pub groups: usize,
}

/// Plans the weight movement needed to transition `from` into `to`:
/// outflows and inflows are paired greedily in space order. Returns an
/// empty plan when the placements are equal; otherwise the returned
/// plan is the only allocation.
pub fn movement_legs(from: &Placement, to: &Placement) -> Vec<MovementLeg> {
    if from == to {
        return Vec::new();
    }
    let mut out = [(StorageSpace::HpMram, 0usize); 4];
    let mut inn = [(StorageSpace::HpMram, 0usize); 4];
    let (mut n_out, mut n_in) = (0usize, 0usize);
    for s in StorageSpace::ALL {
        let (f, t) = (from.get(s), to.get(s));
        if f > t {
            out[n_out] = (s, f - t);
            n_out += 1;
        } else if t > f {
            inn[n_in] = (s, t - f);
            n_in += 1;
        }
    }
    let (out, inn) = (&out[..n_out], &inn[..n_in]);
    let mut legs = Vec::with_capacity((n_out + n_in).saturating_sub(1));
    let (mut oi, mut ii) = (0usize, 0usize);
    let (mut orem, mut irem) = (
        out.first().map(|x| x.1).unwrap_or(0),
        inn.first().map(|x| x.1).unwrap_or(0),
    );
    while oi < out.len() && ii < inn.len() {
        let n = orem.min(irem);
        legs.push(MovementLeg {
            src: out[oi].0,
            dst: inn[ii].0,
            groups: n,
        });
        orem -= n;
        irem -= n;
        if orem == 0 {
            oi += 1;
            orem = out.get(oi).map(|x| x.1).unwrap_or(0);
        }
        if irem == 0 {
            ii += 1;
            irem = inn.get(ii).map(|x| x.1).unwrap_or(0);
        }
    }
    legs
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (s, n) in self.occupied() {
            if !first {
                write!(f, " + ")?;
            }
            write!(f, "{n}@{s}")?;
            first = false;
        }
        if first {
            write!(f, "(empty)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ClusterClass::*;

    #[test]
    fn space_metadata() {
        assert_eq!(StorageSpace::HpMram.cluster(), HighPerformance);
        assert_eq!(StorageSpace::LpSram.cluster(), LowPower);
        assert_eq!(StorageSpace::HpSram.kind(), MemKind::Sram);
        assert_eq!(StorageSpace::LpMram.kind(), MemKind::Mram);
        assert_eq!(
            StorageSpace::of_cluster(LowPower),
            [StorageSpace::LpMram, StorageSpace::LpSram]
        );
        for (i, s) in StorageSpace::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }

    #[test]
    fn placement_accounting() {
        let p = Placement::from_counts([1, 2, 3, 4]);
        assert_eq!(p.total(), 10);
        assert_eq!(p.cluster_total(HighPerformance), 3);
        assert_eq!(p.cluster_total(LowPower), 7);
        assert_eq!(p.get(StorageSpace::LpMram), 3);
    }

    #[test]
    fn movement_counts_new_arrivals() {
        let a = Placement::from_counts([10, 0, 0, 0]);
        let b = Placement::from_counts([4, 6, 0, 0]);
        assert_eq!(a.groups_moved_to(&b), 6);
        assert_eq!(b.groups_moved_to(&a), 6);
        assert_eq!(a.groups_moved_to(&a), 0);
    }

    #[test]
    fn utilization_percentages() {
        let p = Placement::from_counts([0, 16, 0, 9]);
        let u = p.utilization_pct();
        assert_eq!(u[0], 0.0);
        assert!((u[1] - 64.0).abs() < 1e-9);
        assert!((u[3] - 36.0).abs() < 1e-9);
    }

    #[test]
    fn movement_legs_pair_outflows_with_inflows() {
        let a = Placement::from_counts([10, 0, 4, 0]);
        let b = Placement::from_counts([2, 6, 0, 6]);
        let legs = movement_legs(&a, &b);
        let moved: usize = legs.iter().map(|l| l.groups).sum();
        assert_eq!(moved, a.groups_moved_to(&b));
        // Every leg leaves a shrinking space and enters a growing one.
        for leg in &legs {
            assert!(a.get(leg.src) > b.get(leg.src), "{leg:?}");
            assert!(b.get(leg.dst) > a.get(leg.dst), "{leg:?}");
        }
        assert!(movement_legs(&a, &a).is_empty());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Placement::empty().to_string(), "(empty)");
        assert_eq!(
            Placement::from_counts([0, 2, 3, 0]).to_string(),
            "2@HP-SRAM + 3@LP-MRAM"
        );
        assert_eq!(
            Placement::all_in(StorageSpace::LpMram, 5).to_string(),
            "5@LP-MRAM"
        );
    }
}
