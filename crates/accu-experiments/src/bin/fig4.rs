//! Regenerates **Fig. 4** — total benefit and number of cautious friends
//! obtained by ABM on the Twitter dataset, varying `w_I` from 0 to 0.6
//! with `w_D = 1 − w_I` — and, from the same sweep, **Fig. 5** — the
//! fraction of runs in which request `X` was sent to a cautious user,
//! for `w_I` ∈ {0.1, 0.3, 0.5}.
//!
//! The paper's findings: cautious-friend count grows monotonically with
//! `w_I`, but benefit peaks at an intermediate `w_I` (0.2 in their runs)
//! — over-emphasizing cautious users hurts overall benefit. `w_I = 0` is
//! the pure greedy of earlier adaptive-crawling work. Higher `w_I` makes
//! ABM befriend cautious users both more often and *earlier* in the
//! attack (Fig. 5).

use accu_core::TraceAccumulator;
use accu_datasets::{DatasetSpec, ProtocolConfig};
use accu_experiments::chart::Chart;
use accu_experiments::output::{downsample_indices, series_table};
use accu_experiments::{Cli, ExperimentScale, PolicyKind, Telemetry};

/// The sweep points Fig. 5 plots: `w_I` = 0.1, 0.3 and 0.5 (`i / 10`
/// is bit-identical to those literals).
const FIG5_POINTS: [usize; 3] = [1, 3, 5];

fn main() {
    let cli = Cli::parse();
    let scale = ExperimentScale::from_cli(&cli);
    let mut tel = Telemetry::from_cli(&cli, "fig4");
    println!(
        "Fig. 4: benefit and #cautious friends vs w_I (Twitter, {})",
        scale.describe()
    );

    let figure = scale.figure_run(DatasetSpec::twitter(), ProtocolConfig::default());
    let wis: Vec<f64> = (0..=6).map(|i| i as f64 / 10.0).collect();
    let cells: Vec<_> = wis
        .iter()
        .map(|&wi| (figure.clone(), PolicyKind::abm_with_indirect(wi)))
        .collect();
    let accs = tel.run(&cells);
    let benefit: Vec<f64> = accs.iter().map(|a| a.mean_total_benefit()).collect();
    let cautious: Vec<f64> = accs.iter().map(|a| a.mean_cautious_friends()).collect();
    for ((wi, b), c) in wis.iter().zip(&benefit).zip(&cautious) {
        println!("  w_I={wi:.1}: benefit {b:.1}, cautious friends {c:.2}");
    }

    println!();
    Chart::new(&wis)
        .series("benefit", &benefit)
        .size(48, 12)
        .labels("w_I", "benefit")
        .print();
    println!();
    let table = series_table(
        "w_I",
        &wis,
        &[
            ("benefit", benefit.clone()),
            ("cautious_friends", cautious.clone()),
        ],
    );
    table.print();
    tel.write_csv(&table, "fig4_twitter");

    let best = wis
        .iter()
        .zip(&benefit)
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(w, b)| (*w, *b))
        .unwrap();
    println!(
        "\nbenefit peaks at w_I = {:.1} ({:.1}); pure greedy (w_I=0) gets {:.1}",
        best.0, best.1, benefit[0]
    );
    let monotone = cautious.windows(2).all(|w| w[1] >= w[0] - 1e-9);
    println!(
        "cautious friends grow monotonically with w_I: {}",
        if monotone {
            "yes"
        } else {
            "no (noise at this scale)"
        }
    );

    fig5(
        &mut tel,
        figure.budget,
        FIG5_POINTS.map(|i| (wis[i], &accs[i])),
    );

    if let Err(e) = tel.report() {
        eprintln!("telemetry write failed: {e}");
    }
}

/// Prints Fig. 5's table from the sweep's `(w_I, cell)` points and
/// writes `fig5_twitter.csv`.
fn fig5(tel: &mut Telemetry, budget: usize, points: [(f64, &TraceAccumulator); 3]) {
    println!("\nFig. 5: fraction of requests sent to cautious users (Twitter)");
    let mut fractions: Vec<(String, Vec<f64>)> = Vec::new();
    let mut mass_centers = Vec::new();
    for (wi, acc) in points {
        let frac = acc.cautious_request_fraction();
        // Center of mass of the cautious-request distribution: smaller
        // means cautious users are targeted earlier.
        let total: f64 = frac.iter().sum();
        let center = if total > 0.0 {
            frac.iter()
                .enumerate()
                .map(|(i, f)| (i + 1) as f64 * f)
                .sum::<f64>()
                / total
        } else {
            0.0
        };
        mass_centers.push((wi, total, center));
        fractions.push((format!("w_I={wi:.1}"), frac));
    }

    let idx = downsample_indices(budget, 25);
    let xs: Vec<f64> = idx.iter().map(|&i| (i + 1) as f64).collect();
    let sampled: Vec<(&str, Vec<f64>)> = fractions
        .iter()
        .map(|(name, ys)| (name.as_str(), idx.iter().map(|&i| ys[i]).collect()))
        .collect();
    series_table("request", &xs, &sampled).print();

    let full_xs: Vec<f64> = (0..budget).map(|i| (i + 1) as f64).collect();
    let full: Vec<(&str, Vec<f64>)> = fractions
        .iter()
        .map(|(n, ys)| (n.as_str(), ys.clone()))
        .collect();
    tel.write_csv(&series_table("request", &full_xs, &full), "fig5_twitter");

    println!();
    for (wi, total, center) in mass_centers {
        println!(
            "  w_I={wi:.1}: expected cautious requests per run {total:.2}, mean position {center:.0}"
        );
    }
    println!("(higher w_I → more cautious requests, sent earlier)");
}
