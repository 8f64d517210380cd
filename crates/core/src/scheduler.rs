//! Scheduling profiles (§5.3): one bundle per paper policy.
//!
//! A profile combines the three scheduling levers the paper describes:
//! the hetero-PHY dispatch policy (adapter level), the Eq. 3 cost weights
//! (routing-reference level), and the Eq. 5 subnetwork-selection weight
//! (hetero-channel level, where the energy-efficient variant only takes
//! the serial hypercube when it saves energy rather than just hops).

use chiplet_phy::PhyPolicy;
use chiplet_topo::weight::CostWeights;

/// A named scheduling configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulingProfile {
    /// Profile name for reports.
    pub name: &'static str,
    /// Hetero-PHY dispatch policy.
    pub phy_policy: PhyPolicy,
    /// Eq. 3 weights (used by analysis and the weighted-length tools).
    pub cost_weights: CostWeights,
    /// Eq. 5 selection weight for hetero-channel routing: serial preferred
    /// when `#H_P > w · #H_S`.
    pub serial_selection_weight: f64,
}

impl SchedulingProfile {
    /// Performance-first (§5.3.1): every PHY at full capacity, energy
    /// ignored.
    pub fn performance_first() -> Self {
        Self {
            name: "performance-first",
            phy_policy: PhyPolicy::PerformanceFirst,
            cost_weights: CostWeights::performance_first(),
            serial_selection_weight: 1.0,
        }
    }

    /// Balanced (§5.3.1, the default in the evaluations): parallel PHY at
    /// higher priority, serial enabled under load.
    pub fn balanced() -> Self {
        Self {
            name: "balanced",
            phy_policy: PhyPolicy::Balanced { threshold: 8 },
            cost_weights: CostWeights::balanced(),
            serial_selection_weight: 1.0,
        }
    }

    /// Energy-efficient (§5.3.1): parallel PHY only; the hypercube
    /// subnetwork only when it beats the mesh on *total* energy. A
    /// chiplet-mesh hop costs one parallel crossing (1 pJ/bit) plus about
    /// one chiplet width of on-chip hops; a hypercube hop costs one serial
    /// crossing (2.4 pJ/bit) plus a short on-chip approach — the ratio of
    /// the totals is ≈ 1.5 for the paper's systems.
    pub fn energy_efficient() -> Self {
        Self {
            name: "energy-efficient",
            phy_policy: PhyPolicy::EnergyEfficient,
            cost_weights: CostWeights::energy_efficient(),
            serial_selection_weight: 1.5,
        }
    }

    /// Application-aware (§5.3.2): packet class/priority steer dispatch.
    pub fn application_aware() -> Self {
        Self {
            name: "application-aware",
            phy_policy: PhyPolicy::ApplicationAware { threshold: 8 },
            cost_weights: CostWeights::balanced(),
            serial_selection_weight: 1.0,
        }
    }

    /// The profile a name (as in [`SchedulingProfile::name`]) stands for.
    pub fn from_name(name: &str) -> Option<Self> {
        [
            Self::performance_first(),
            Self::balanced(),
            Self::energy_efficient(),
            Self::application_aware(),
        ]
        .into_iter()
        .find(|p| p.name == name)
    }
}

impl Default for SchedulingProfile {
    fn default() -> Self {
        Self::balanced()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_distinct() {
        let p = SchedulingProfile::performance_first();
        let e = SchedulingProfile::energy_efficient();
        let b = SchedulingProfile::balanced();
        assert_ne!(p.phy_policy, e.phy_policy);
        assert_ne!(b.phy_policy, e.phy_policy);
        assert!(e.serial_selection_weight > b.serial_selection_weight);
        assert_eq!(
            p.cost_weights.gamma, 0.0,
            "performance-first ignores energy"
        );
        assert!(e.cost_weights.gamma > 0.0);
    }

    #[test]
    fn from_name_reads_every_profile_name() {
        for name in [
            "performance-first",
            "balanced",
            "energy-efficient",
            "application-aware",
        ] {
            assert_eq!(
                SchedulingProfile::from_name(name).map(|p| p.name),
                Some(name)
            );
        }
        assert_eq!(SchedulingProfile::from_name("greedy"), None);
    }

    #[test]
    fn default_is_balanced() {
        assert_eq!(SchedulingProfile::default().name, "balanced");
    }
}
