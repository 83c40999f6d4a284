//! Regenerates **Fig. 6** and **Fig. 7** from one sweep — heat maps of
//! the total benefit (Fig. 6) and the number of cautious friends
//! (Fig. 7) obtained by ABM on Twitter, varying the cautious friend
//! benefit `B_f` (rows) and the acceptance-threshold fraction (columns).
//!
//! The paper's findings: benefit generally grows with higher `B_f` and
//! lower thresholds; the exception is low `B_f` (20), where *harder*
//! thresholds can help — ABM stops over-investing in cautious users that
//! are not worth the detour. Cautious friends grow with higher `B_f`
//! (stronger incentive) and lower thresholds (easier to unlock).

use accu_core::TraceAccumulator;
use accu_datasets::{DatasetSpec, ProtocolConfig};
use accu_experiments::output::{fnum, Table};
use accu_experiments::{Cli, ExperimentScale, PolicyKind, Telemetry};

/// The paper's sweep axes: cautious `B_f ∈ {20, 30, 40, 50, 60}` and
/// threshold fraction `∈ {10%, …, 50%}`.
fn paper_axes() -> (Vec<f64>, Vec<f64>) {
    (
        (2..=6).map(|i| 10.0 * i as f64).collect(),
        (1..=5).map(|i| i as f64 / 10.0).collect(),
    )
}

/// One `[B_f row][θ column]` grid of cell means.
type Grid = Vec<Vec<f64>>;

/// Runs the sweep on the Twitter stand-in with ABM (`w_D = w_I = 0.5`)
/// as one lineup of `(B_f, θ)` cells, row by row, and returns the mean
/// total benefit (Fig. 6) and mean cautious friends (Fig. 7) grids.
fn sweep(scale: &ExperimentScale, bfs: &[f64], thetas: &[f64], tel: &mut Telemetry) -> [Grid; 2] {
    let mut cells = Vec::new();
    for &cautious_friend_benefit in bfs {
        for &threshold_fraction in thetas {
            let protocol = ProtocolConfig {
                cautious_friend_benefit,
                threshold_fraction,
                ..ProtocolConfig::default()
            };
            let figure = scale.figure_run(DatasetSpec::twitter(), protocol);
            cells.push((figure, PolicyKind::abm_balanced()));
        }
    }
    let accs = tel.run(&cells);
    let grid = |mean: fn(&TraceAccumulator) -> f64| -> Grid {
        let rows = accs.chunks(thetas.len());
        rows.map(|row| row.iter().map(mean).collect()).collect()
    };
    [
        grid(TraceAccumulator::mean_total_benefit),
        grid(TraceAccumulator::mean_cautious_friends),
    ]
}

/// Renders one grid as a table (rows = cautious `B_f`, columns =
/// threshold fraction).
fn table(benefits: &[f64], thresholds: &[f64], grid: &Grid) -> Table {
    let mut headers = vec!["B_f \\ θ%".to_string()];
    headers.extend(thresholds.iter().map(|t| format!("{:.0}%", t * 100.0)));
    let mut table = Table::new(headers);
    for (&bf, values) in benefits.iter().zip(grid) {
        let mut row = vec![format!("{bf:.0}")];
        row.extend(values.iter().map(|&v| fnum(v)));
        table.row(row);
    }
    table
}

fn main() {
    let cli = Cli::parse();
    let scale = ExperimentScale::from_cli(&cli);
    let mut tel = Telemetry::from_cli(&cli, "fig6");
    println!(
        "Figs. 6 and 7: benefit and #cautious-friends heat maps (Twitter, ABM w_D=w_I=0.5, {})",
        scale.describe()
    );
    let (benefits, thresholds) = paper_axes();
    let [benefit, cautious] = sweep(&scale, &benefits, &thresholds, &mut tel);
    println!("\nFig. 6: benefit");
    let fig6 = table(&benefits, &thresholds, &benefit);
    fig6.print();
    println!();
    tel.write_csv(&fig6, "fig6_twitter");

    // Shape checks the paper calls out.
    let rows = benefit.len();
    let cols = benefit[0].len();
    let top_row_trend = benefit[rows - 1][0] >= benefit[rows - 1][cols - 1];
    println!(
        "\nhigh B_f row: benefit {} from loose (10%) to tight (50%) thresholds",
        if top_row_trend {
            "decreases"
        } else {
            "increases (unexpected)"
        }
    );
    let col_trend = benefit[rows - 1][0] >= benefit[0][0];
    println!(
        "loose-threshold column: benefit {} with higher cautious B_f",
        if col_trend {
            "increases"
        } else {
            "decreases (unexpected)"
        }
    );

    println!("\nFig. 7: #cautious friends");
    let fig7 = table(&benefits, &thresholds, &cautious);
    fig7.print();
    println!();
    tel.write_csv(&fig7, "fig7_twitter");
    let c = &cautious;
    println!(
        "\ncorners: (B_f=20, θ=10%) → {:.1}, (B_f=60, θ=10%) → {:.1}, \
         (B_f=20, θ=50%) → {:.1}, (B_f=60, θ=50%) → {:.1}",
        c[0][0],
        c[rows - 1][0],
        c[0][cols - 1],
        c[rows - 1][cols - 1]
    );
    println!("(expect the most cautious friends at high B_f + loose thresholds)");

    if let Err(e) = tel.report() {
        eprintln!("telemetry write failed: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let (benefits, thresholds) = ([20.0, 60.0], [0.1, 0.5]);
        let [benefit, cautious] = sweep(&scale, &benefits, &thresholds, &mut tel);
        assert_eq!(benefit.len(), 2);
        assert_eq!(benefit[0].len(), 2);
        assert!(benefit.iter().flatten().all(|&v| v >= 0.0));
        let rendered = table(&benefits, &thresholds, &benefit).render();
        assert!(rendered.contains("10%") && rendered.contains("60"));
        let rendered = table(&benefits, &thresholds, &cautious).render();
        assert!(rendered.contains("50%"));
    }
}
