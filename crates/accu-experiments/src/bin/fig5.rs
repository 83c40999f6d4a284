//! Regenerates **Fig. 5** — the fraction of runs in which request `X`
//! was sent to a cautious user, on the Twitter dataset, for several
//! `w_I` settings.
//!
//! The paper's finding: higher `w_I` makes ABM befriend cautious users
//! both more often and *earlier* in the attack.

use accu_datasets::{DatasetSpec, ProtocolConfig};
use accu_experiments::output::{downsample_indices, series_table};
use accu_experiments::{Cli, ExperimentScale, PolicyKind, Telemetry};

fn main() {
    let cli = Cli::parse();
    let scale = ExperimentScale::from_cli(&cli);
    let mut tel = Telemetry::from_cli(&cli, "fig5");
    println!(
        "Fig. 5: fraction of requests sent to cautious users (Twitter, {})",
        scale.describe()
    );

    let wis = [0.1f64, 0.3, 0.5];
    let mut fractions: Vec<(String, Vec<f64>)> = Vec::new();
    let mut budget = 0usize;
    let mut mass_centers = Vec::new();
    for &wi in &wis {
        let figure = scale.figure_run(DatasetSpec::twitter(), ProtocolConfig::default());
        budget = figure.budget;
        let acc = tel.run(&figure, PolicyKind::abm_with_indirect(wi));
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

    if let Err(e) = tel.report() {
        eprintln!("telemetry write failed: {e}");
    }
}
