//! The economy of chiplet reuse (§10 "Flexibility in economy", Fig. 2,
//! §4.3 "Flexibility itself is the most significant cost saving").
//!
//! The paper's Motivation 1 is quantitative at heart: designing a chiplet
//! costs NRE (architecture, verification, masks) that is only recouped if
//! the same die ships in many systems, and a uniform interface prevents
//! that (parallel-only chiplets cannot build big/cheap-package systems;
//! serial-only chiplets waste power in small ones). This module provides a
//! first-order cost model in the spirit of the paper's reference \[29\]
//! (Feng & Ma, *Chiplet Actuary*): classic defect-density die cost, mask
//! NRE amortization, and per-package assembly cost, so the examples can put
//! numbers on "one hetero-IF chiplet serving three markets" vs "three
//! uniform-IF chiplet designs".

/// Process/economics constants for a first-order cost estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Wafer cost, $.
    pub wafer_cost: f64,
    /// Wafer diameter, mm.
    pub wafer_diameter_mm: f64,
    /// Defect density, defects/mm².
    pub defect_density: f64,
    /// Negative-binomial clustering parameter (≈ critical layers).
    pub clustering: f64,
    /// One-time design + mask NRE per distinct die design, $.
    pub design_nre: f64,
    /// Packaging/assembly cost per chiplet placed, $ (advanced packages
    /// cost more).
    pub assembly_per_chiplet: f64,
}

impl CostModel {
    /// A 12 nm-class logic node with organic-substrate assembly.
    pub fn n12() -> Self {
        Self {
            wafer_cost: 6_000.0,
            wafer_diameter_mm: 300.0,
            defect_density: 0.001, // per mm²
            clustering: 10.0,
            design_nre: 30.0e6,
            assembly_per_chiplet: 2.0,
        }
    }

    /// Gross dies per wafer for a square die of `area` mm² (Murphy-style
    /// edge-corrected approximation).
    ///
    /// # Panics
    ///
    /// Panics if `area <= 0`.
    pub fn dies_per_wafer(&self, area: f64) -> f64 {
        assert!(area > 0.0, "die area must be positive");
        let d = self.wafer_diameter_mm;
        let per = std::f64::consts::PI * (d / 2.0) * (d / 2.0) / area
            - std::f64::consts::PI * d / (2.0 * area).sqrt();
        per.max(1.0)
    }

    /// Yield for a die of `area` mm² (negative binomial model).
    pub fn yield_for(&self, area: f64) -> f64 {
        (1.0 + area * self.defect_density / self.clustering).powf(-self.clustering)
    }

    /// Manufactured (yielded) cost of one die of `area` mm², $.
    pub fn die_cost(&self, area: f64) -> f64 {
        self.wafer_cost / (self.dies_per_wafer(area) * self.yield_for(area))
    }

    /// Total cost of a program shipping `volumes[i]` packages of systems
    /// using `chiplets_per_system[i]` chiplets each, with `designs`
    /// distinct die designs of `die_area` mm². NRE is paid per design; die
    /// and assembly costs per unit.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn program_cost(
        &self,
        die_area: f64,
        designs: u32,
        volumes: &[u64],
        chiplets_per_system: &[u32],
    ) -> f64 {
        assert_eq!(
            volumes.len(),
            chiplets_per_system.len(),
            "one chiplet count per system volume"
        );
        let die = self.die_cost(die_area);
        let units: f64 = volumes
            .iter()
            .zip(chiplets_per_system)
            .map(|(&v, &c)| v as f64 * c as f64 * (die + self.assembly_per_chiplet))
            .sum();
        designs as f64 * self.design_nre + units
    }
}

/// Outcome of a reuse-vs-redesign comparison (the Fig. 2 scenario).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReuseComparison {
    /// Program cost with one hetero-IF chiplet reused everywhere, $.
    pub hetero_reuse_cost: f64,
    /// Program cost with one uniform-IF chiplet per scenario, $.
    pub uniform_redesign_cost: f64,
    /// `1 - hetero/uniform`.
    pub saving_fraction: f64,
}

/// Compares one hetero-IF chiplet (slightly larger die: both PHYs on the
/// rim) reused across all scenarios against per-scenario uniform-IF
/// designs, for the given per-scenario shipping volumes and chiplet counts.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn compare_reuse(
    model: &CostModel,
    base_die_area: f64,
    hetero_area_overhead: f64,
    volumes: &[u64],
    chiplets_per_system: &[u32],
) -> ReuseComparison {
    assert!(!volumes.is_empty(), "need at least one scenario");
    let hetero = model.program_cost(
        base_die_area * (1.0 + hetero_area_overhead),
        1,
        volumes,
        chiplets_per_system,
    );
    let uniform = model.program_cost(
        base_die_area,
        volumes.len() as u32,
        volumes,
        chiplets_per_system,
    );
    ReuseComparison {
        hetero_reuse_cost: hetero,
        uniform_redesign_cost: uniform,
        saving_fraction: 1.0 - hetero / uniform,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yield_decreases_with_area() {
        let m = CostModel::n12();
        assert!(m.yield_for(50.0) > m.yield_for(200.0));
        assert!(m.yield_for(50.0) <= 1.0);
        assert!(m.yield_for(800.0) > 0.0);
    }

    #[test]
    fn die_cost_grows_superlinearly() {
        // The core chiplet economics: a 4x-larger die costs more than 4x.
        let m = CostModel::n12();
        let small = m.die_cost(100.0);
        let big = m.die_cost(400.0);
        assert!(big > 4.0 * small, "big {big:.2} vs small {small:.2}");
    }

    #[test]
    fn reuse_wins_at_moderate_volumes() {
        // Three scenarios (mobile / server / HPC) at typical chiplet-scale
        // volumes: paying one NRE beats three, despite ~15% die overhead
        // for the second interface.
        let m = CostModel::n12();
        let cmp = compare_reuse(&m, 100.0, 0.15, &[2_000_000, 300_000, 50_000], &[4, 16, 64]);
        assert!(cmp.saving_fraction > 0.0, "reuse should save: {cmp:?}");
        assert!(cmp.hetero_reuse_cost < cmp.uniform_redesign_cost);
    }

    #[test]
    fn at_extreme_volume_the_area_overhead_dominates() {
        // §9: hetero-IF is *not* applicable when area is extremely
        // constrained / volumes huge — the model reproduces the limit.
        let m = CostModel::n12();
        let cmp = compare_reuse(&m, 100.0, 0.15, &[500_000_000], &[4]);
        assert!(
            cmp.saving_fraction < 0.0,
            "one monster-volume system shouldn't pay for a second PHY: {cmp:?}"
        );
    }

    #[test]
    fn dies_per_wafer_sane() {
        let m = CostModel::n12();
        let n = m.dies_per_wafer(100.0);
        assert!((400.0..700.0).contains(&n), "dies/wafer {n}");
    }

    #[test]
    #[should_panic]
    fn mismatched_scenarios_panic() {
        let m = CostModel::n12();
        m.program_cost(100.0, 1, &[1], &[1, 2]);
    }
}
