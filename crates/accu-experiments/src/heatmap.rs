//! The sensitivity heat-map sweep shared by Fig. 6 and Fig. 7.
//!
//! Paper §IV-D: on the Twitter dataset with `k = 500` and
//! `w_D = w_I = 0.5`, sweep the cautious friend benefit `B_f` and the
//! acceptance-threshold fraction, and measure total benefit (Fig. 6) and
//! the number of cautious friends obtained (Fig. 7).

use accu_datasets::{DatasetSpec, ProtocolConfig};

use crate::output::{fnum, Table};
use crate::{ExperimentScale, PolicyKind, Telemetry};

/// Result of the two-parameter sensitivity sweep.
#[derive(Debug, Clone)]
pub struct HeatMap {
    /// Cautious friend-benefit axis (rows).
    pub benefits: Vec<f64>,
    /// Threshold-fraction axis (columns).
    pub thresholds: Vec<f64>,
    /// `benefit[r][c]`: mean total benefit.
    pub benefit: Vec<Vec<f64>>,
    /// `cautious[r][c]`: mean number of cautious friends.
    pub cautious: Vec<Vec<f64>>,
}

impl HeatMap {
    /// Renders one of the two value grids as a table (rows = cautious
    /// `B_f`, columns = threshold fraction).
    pub fn table(&self, values: &[Vec<f64>]) -> Table {
        let mut headers = vec!["B_f \\ θ%".to_string()];
        headers.extend(self.thresholds.iter().map(|t| format!("{:.0}%", t * 100.0)));
        let mut table = Table::new(headers);
        for (r, &bf) in self.benefits.iter().enumerate() {
            let mut row = vec![format!("{bf:.0}")];
            row.extend(values[r].iter().map(|&v| fnum(v)));
            table.row(row);
        }
        table
    }

    /// The benefit grid (Fig. 6) as a printable table.
    pub fn benefit_table(&self) -> Table {
        self.table(&self.benefit)
    }

    /// The cautious-friend grid (Fig. 7) as a printable table.
    pub fn cautious_table(&self) -> Table {
        self.table(&self.cautious)
    }
}

/// The paper's sweep axes: cautious `B_f ∈ {20, 30, 40, 50, 60}` and
/// threshold fraction `∈ {10%, …, 50%}`.
pub fn paper_axes() -> (Vec<f64>, Vec<f64>) {
    (
        (2..=6).map(|i| 10.0 * i as f64).collect(),
        (1..=5).map(|i| i as f64 / 10.0).collect(),
    )
}

/// Runs the sweep on the Twitter stand-in with ABM (`w_D = w_I = 0.5`),
/// one [`Telemetry::run`] cell per `(B_f, θ)` pair; one extra
/// `heatmap.cells` counter tracks sweep progress.
pub fn run_heatmap(
    scale: &ExperimentScale,
    benefits: &[f64],
    thresholds: &[f64],
    tel: &mut Telemetry,
) -> HeatMap {
    let cells = tel.recorder().counter("heatmap.cells");
    let mut benefit = Vec::with_capacity(benefits.len());
    let mut cautious = Vec::with_capacity(benefits.len());
    for &bf in benefits {
        let mut brow = Vec::with_capacity(thresholds.len());
        let mut crow = Vec::with_capacity(thresholds.len());
        for &tf in thresholds {
            let protocol = ProtocolConfig {
                cautious_friend_benefit: bf,
                threshold_fraction: tf,
                ..ProtocolConfig::default()
            };
            let figure = scale.figure_run(DatasetSpec::twitter(), protocol);
            let acc = tel.run(&figure, PolicyKind::abm_balanced());
            brow.push(acc.mean_total_benefit());
            crow.push(acc.mean_cautious_friends());
            cells.incr();
        }
        benefit.push(brow);
        cautious.push(crow);
    }
    HeatMap {
        benefits: benefits.to_vec(),
        thresholds: thresholds.to_vec(),
        benefit,
        cautious,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cli;

    #[test]
    fn axes_match_paper() {
        let (b, t) = paper_axes();
        assert_eq!(b, vec![20.0, 30.0, 40.0, 50.0, 60.0]);
        assert_eq!(t, vec![0.1, 0.2, 0.3, 0.4, 0.5]);
    }

    #[test]
    fn tiny_sweep_produces_grids() {
        let cli = Cli {
            samples: Some(1),
            runs: Some(1),
            budget: Some(20),
            scale: Some(0.002), // ~160 nodes
            ..Cli::default()
        };
        let scale = ExperimentScale::from_cli(&cli);
        let mut tel = Telemetry::from_cli(&cli, "heatmap-test");
        let hm = run_heatmap(&scale, &[20.0, 60.0], &[0.1, 0.5], &mut tel);
        assert_eq!(hm.benefit.len(), 2);
        assert_eq!(hm.benefit[0].len(), 2);
        assert!(hm.benefit.iter().flatten().all(|&v| v >= 0.0));
        let rendered = hm.benefit_table().render();
        assert!(rendered.contains("10%") && rendered.contains("60"));
        let rendered = hm.cautious_table().render();
        assert!(rendered.contains("50%"));
    }
}
