//! The calibration gate: analytical tier vs cycle-accurate golden sweeps.
//!
//! [`calibrate`] runs both tiers over the paper presets on one geometry
//! and reports, per preset, the average/maximum latency error below
//! saturation and the saturation-rate offset in ladder steps — plus the
//! wall-clock speedup of the estimated tier. [`error_bound_pct`] holds
//! the documented per-preset bounds `tests/calibration.rs` and CI gate
//! on.

use crate::estimator::{EstimateRequest, Estimator};
use chiplet_topo::Geometry;
use chiplet_traffic::TrafficPattern;
use hetero_if::sim::RunSpec;
use hetero_if::sweep::{latency_sweep, saturation_rate};
use hetero_if::{NetworkKind, SchedulingProfile, SimConfig};
use std::time::Instant;

/// The documented per-preset error bound of the analytical tier, in
/// percent average absolute latency error below saturation (measured on
/// the 16-node golden geometry with the smoke schedule; see
/// `EXPERIMENTS.md` for the fitted table).
pub fn error_bound_pct(kind: NetworkKind) -> f64 {
    match kind {
        NetworkKind::UniformParallelMesh => 6.0,
        NetworkKind::UniformSerialTorus => 10.0,
        NetworkKind::HeteroPhyFull => 7.0,
        NetworkKind::HeteroPhyHalf => 12.0,
        NetworkKind::UniformSerialHypercube => 7.0,
        NetworkKind::HeteroChannelFull => 7.0,
        NetworkKind::HeteroChannelHalf => 10.0,
    }
}

/// Calibration outcome for one preset.
#[derive(Debug, Clone, PartialEq)]
pub struct PresetCalibration {
    /// Preset label.
    pub kind: NetworkKind,
    /// Rates both tiers produced a point for.
    pub rates: Vec<f64>,
    /// Golden (cycle-accurate) average latency per rate.
    pub golden_latency: Vec<f64>,
    /// Estimated average latency per rate.
    pub estimated_latency: Vec<f64>,
    /// Average absolute latency error over unsaturated golden points, %.
    pub avg_error_pct: f64,
    /// Maximum absolute latency error over unsaturated golden points, %.
    pub max_error_pct: f64,
    /// Golden saturation rate ([`saturation_rate`] semantics).
    pub golden_saturation: Option<f64>,
    /// Estimated saturation rate (same semantics).
    pub estimated_saturation: Option<f64>,
    /// Saturation offset in ladder steps (estimated minus golden);
    /// `None` when exactly one tier never saturated on the ladder.
    pub saturation_step_offset: Option<i64>,
    /// The documented bound for this preset.
    pub bound_pct: f64,
    /// Whether this preset passes its gate: average error within
    /// [`PresetCalibration::bound_pct`] and saturation within one step.
    pub pass: bool,
}

/// A full calibration report over the paper presets.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationReport {
    /// Geometry label (`WxH chiplets of WxH`).
    pub geometry: String,
    /// Traffic pattern label.
    pub pattern: String,
    /// Estimating backend name.
    pub backend: &'static str,
    /// Hex fingerprint of the canonical effective base config.
    pub config_fingerprint: String,
    /// Per-preset outcomes.
    pub presets: Vec<PresetCalibration>,
    /// Wall-clock seconds spent on the golden cycle-accurate sweeps.
    pub golden_secs: f64,
    /// Wall-clock seconds spent on the estimated sweeps.
    pub estimate_secs: f64,
    /// `golden_secs / estimate_secs`.
    pub speedup: f64,
    /// Whether every preset passed its gate.
    pub pass: bool,
}

/// Runs the calibration: golden [`latency_sweep`] vs
/// [`Estimator::estimate_sweep`] over every paper preset.
#[allow(clippy::too_many_arguments)]
pub fn calibrate(
    estimator: &mut Estimator,
    geom: Geometry,
    config: SimConfig,
    profile: SchedulingProfile,
    pattern: TrafficPattern,
    rates: &[f64],
    spec: RunSpec,
    threads: usize,
) -> CalibrationReport {
    let mut presets = Vec::new();
    let mut golden_secs = 0.0;
    let mut estimate_secs = 0.0;
    for kind in [
        NetworkKind::UniformParallelMesh,
        NetworkKind::UniformSerialTorus,
        NetworkKind::HeteroPhyFull,
        NetworkKind::HeteroPhyHalf,
        NetworkKind::UniformSerialHypercube,
        NetworkKind::HeteroChannelFull,
        NetworkKind::HeteroChannelHalf,
    ] {
        let t0 = Instant::now();
        let golden = latency_sweep(
            || kind.build(geom, config, profile),
            pattern,
            rates,
            config.packet_len,
            spec,
            config.seed,
            threads,
        );
        golden_secs += t0.elapsed().as_secs_f64();
        let req = EstimateRequest {
            kind,
            geom,
            config,
            profile,
            pattern,
        };
        let t1 = Instant::now();
        let curve = estimator.estimate_sweep(&req, rates);
        estimate_secs += t1.elapsed().as_secs_f64();

        let mut cal_rates = Vec::new();
        let mut gold_lat = Vec::new();
        let mut est_lat = Vec::new();
        let mut errs = Vec::new();
        for (g, e) in golden.iter().zip(curve.points.iter()) {
            debug_assert!((g.rate - e.rate).abs() < 1e-12);
            cal_rates.push(g.rate);
            gold_lat.push(g.results.avg_latency);
            est_lat.push(e.avg_latency);
            if !g.results.is_saturated() && g.results.avg_latency > 0.0 {
                errs.push(
                    100.0 * (e.avg_latency - g.results.avg_latency).abs() / g.results.avg_latency,
                );
            }
        }
        let avg_error = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
        let max_error = errs.iter().fold(0.0f64, |a, &b| a.max(b));
        let golden_sat = saturation_rate(&golden);
        let est_sat = curve.saturation_rate;
        let step = |r: f64| rates.iter().position(|&x| (x - r).abs() < 1e-12);
        let offset = match (golden_sat, est_sat) {
            (Some(g), Some(e)) => match (step(g), step(e)) {
                (Some(gi), Some(ei)) => Some(ei as i64 - gi as i64),
                _ => None,
            },
            (None, None) => Some(0),
            _ => None,
        };
        let bound = error_bound_pct(kind);
        let pass = avg_error <= bound && matches!(offset, Some(o) if o.abs() <= 1);
        presets.push(PresetCalibration {
            kind,
            rates: cal_rates,
            golden_latency: gold_lat,
            estimated_latency: est_lat,
            avg_error_pct: avg_error,
            max_error_pct: max_error,
            golden_saturation: golden_sat,
            estimated_saturation: est_sat,
            saturation_step_offset: offset,
            bound_pct: bound,
            pass,
        });
    }
    let pass = presets.iter().all(|p| p.pass);
    CalibrationReport {
        geometry: format!(
            "{}x{} chiplets of {}x{}",
            geom.chiplets_x(),
            geom.chiplets_y(),
            geom.chip_w(),
            geom.chip_h()
        ),
        pattern: format!("{pattern:?}"),
        backend: estimator.backend_name(),
        config_fingerprint: format!("{:016x}", config.fingerprint()),
        presets,
        golden_secs,
        estimate_secs,
        speedup: if estimate_secs > 0.0 {
            golden_secs / estimate_secs
        } else {
            f64::INFINITY
        },
        pass,
    }
}

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".into()
    }
}

fn json_opt(x: Option<f64>) -> String {
    x.map_or("null".into(), json_f64)
}

impl CalibrationReport {
    /// The report as a JSON document (hand-rolled; the workspace carries
    /// no serialization dependency).
    pub fn to_json(&self) -> String {
        let presets: Vec<String> = self
            .presets
            .iter()
            .map(|p| {
                let rates: Vec<String> = p.rates.iter().map(|r| json_f64(*r)).collect();
                let gold: Vec<String> = p.golden_latency.iter().map(|r| json_f64(*r)).collect();
                let est: Vec<String> = p.estimated_latency.iter().map(|r| json_f64(*r)).collect();
                format!(
                    "    {{\n      \"preset\": \"{}\",\n      \"rates\": [{}],\n      \
                     \"golden_latency\": [{}],\n      \"estimated_latency\": [{}],\n      \
                     \"avg_error_pct\": {},\n      \"max_error_pct\": {},\n      \
                     \"golden_saturation\": {},\n      \"estimated_saturation\": {},\n      \
                     \"saturation_step_offset\": {},\n      \"bound_pct\": {},\n      \
                     \"pass\": {}\n    }}",
                    p.kind.label(),
                    rates.join(", "),
                    gold.join(", "),
                    est.join(", "),
                    json_f64(p.avg_error_pct),
                    json_f64(p.max_error_pct),
                    json_opt(p.golden_saturation),
                    json_opt(p.estimated_saturation),
                    p.saturation_step_offset
                        .map_or("null".to_string(), |o| o.to_string()),
                    json_f64(p.bound_pct),
                    p.pass,
                )
            })
            .collect();
        format!(
            "{{\n  \"geometry\": \"{}\",\n  \"pattern\": \"{}\",\n  \"backend\": \"{}\",\n  \
             \"config_fingerprint\": \"{}\",\n  \"golden_secs\": {},\n  \"estimate_secs\": {},\n  \
             \"speedup\": {},\n  \"pass\": {},\n  \"presets\": [\n{}\n  ]\n}}\n",
            self.geometry,
            self.pattern,
            self.backend,
            self.config_fingerprint,
            json_f64(self.golden_secs),
            json_f64(self.estimate_secs),
            json_f64(self.speedup),
            self.pass,
            presets.join(",\n"),
        )
    }

    /// A human-readable table of the per-preset outcomes.
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "calibration: {} | {} | backend={} | speedup={:.0}x\n",
            self.geometry, self.pattern, self.backend, self.speedup
        );
        out.push_str(&format!(
            "{:<22} {:>9} {:>9} {:>10} {:>10} {:>7} {:>6}\n",
            "preset", "avg-err%", "max-err%", "gold-sat", "est-sat", "Δsteps", "gate"
        ));
        for p in &self.presets {
            out.push_str(&format!(
                "{:<22} {:>9.1} {:>9.1} {:>10} {:>10} {:>7} {:>6}\n",
                p.kind.label(),
                p.avg_error_pct,
                p.max_error_pct,
                p.golden_saturation
                    .map_or("-".into(), |r| format!("{r:.3}")),
                p.estimated_saturation
                    .map_or("-".into(), |r| format!("{r:.3}")),
                p.saturation_step_offset
                    .map_or("-".into(), |o| o.to_string()),
                if p.pass { "pass" } else { "FAIL" },
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_documented_for_every_preset() {
        for kind in [
            NetworkKind::UniformParallelMesh,
            NetworkKind::UniformSerialTorus,
            NetworkKind::HeteroPhyFull,
            NetworkKind::HeteroPhyHalf,
            NetworkKind::UniformSerialHypercube,
            NetworkKind::HeteroChannelFull,
            NetworkKind::HeteroChannelHalf,
        ] {
            let b = error_bound_pct(kind);
            assert!(b > 0.0 && b <= 15.0, "{kind}: bound {b}");
        }
    }

    #[test]
    fn json_report_is_well_formed_enough() {
        // Tiny smoke calibration on one rung of the ladder; asserts the
        // report structure, not accuracy (tests/calibration.rs does that).
        let mut est = Estimator::analytical();
        let report = calibrate(
            &mut est,
            Geometry::new(2, 2, 2, 2),
            SimConfig::default(),
            SchedulingProfile::balanced(),
            TrafficPattern::Uniform,
            &[0.02],
            RunSpec::smoke(),
            1,
        );
        assert_eq!(report.presets.len(), 7);
        let json = report.to_json();
        assert_eq!(json.matches("\"preset\"").count(), 7);
        assert!(json.contains("\"speedup\""));
        assert!(report.speedup > 1.0, "estimation must beat simulation");
        let table = report.render_table();
        assert_eq!(table.lines().count(), 2 + 7);
    }
}
