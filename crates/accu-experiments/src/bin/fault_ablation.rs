//! **Fault ablation** (extension): Fig. 2's policy comparison repeated
//! under an increasingly hostile platform — transient request failures,
//! dropped responses, rate-limit windows, and a suspension hazard, all
//! scaled together by a single intensity in `[0, 1]` (see
//! [`FaultConfig::scaled`]).
//!
//! Every policy faces the *same* fault realization at each intensity
//! (plans are seeded per episode, not per policy), so the curves are a
//! paired comparison: they answer "which attacker degrades most
//! gracefully", not "who got lucky". Intensity 0 reproduces the paper's
//! fault-free setting bit-for-bit.

use accu_core::FaultConfig;
use accu_datasets::{DatasetSpec, ProtocolConfig};
use accu_experiments::chart::Chart;
use accu_experiments::output::series_table;
use accu_experiments::{Cli, ExperimentScale, FigureRun, PolicyKind, Telemetry};

/// The swept fault intensities.
const INTENSITIES: [f64; 6] = [0.0, 0.1, 0.2, 0.4, 0.7, 1.0];

fn main() {
    let cli = Cli::parse();
    let scale = ExperimentScale::from_cli(&cli);
    let mut tel = Telemetry::from_cli(&cli, "fault_ablation");
    println!("Fault ablation: final benefit vs fault intensity ({})", {
        scale.describe()
    });
    if cli.faults.is_some() {
        println!("note: --faults is ignored here; this binary sweeps its own intensities");
    }

    let dataset = DatasetSpec::facebook();
    let base = scale.figure_run(dataset, ProtocolConfig::default());
    println!("\n=== {} | retry policy {:?} ===", base.dataset, base.retry);

    let lineup = PolicyKind::paper_lineup();
    // series[policy] = (final benefit, faults/episode, truncated frac) per intensity
    let mut benefit: Vec<(&str, Vec<f64>)> =
        lineup.iter().map(|p| (p.name(), Vec::new())).collect();
    let mut detail_rows: Vec<[String; 5]> = Vec::new();
    for &intensity in &INTENSITIES {
        let figure = FigureRun {
            faults: FaultConfig::scaled(intensity),
            ..base.clone()
        };
        for (i, &policy) in lineup.iter().enumerate() {
            let acc = tel.run(&figure, policy);
            let last = acc.mean_cumulative_benefit().last().copied().unwrap_or(0.0);
            benefit[i].1.push(last);
            detail_rows.push([
                format!("{intensity}"),
                policy.name().to_string(),
                format!("{last:.1}"),
                format!("{:.2}", acc.mean_faults_seen()),
                format!("{:.3}", acc.truncated_run_fraction()),
            ]);
        }
    }

    let xs: Vec<f64> = INTENSITIES.to_vec();
    let mut chart = Chart::new(&xs)
        .size(64, 16)
        .labels("fault intensity", "final benefit");
    for (name, ys) in &benefit {
        chart = chart.series(name, ys);
    }
    chart.print();
    println!();
    let table = series_table("intensity", &xs, &benefit);
    table.print();
    tel.write_csv(&table, "fault_ablation");

    println!();
    let mut table = accu_experiments::output::Table::new([
        "intensity",
        "policy",
        "final benefit",
        "faults/episode",
        "truncated frac",
    ]);
    for row in detail_rows {
        table.row(row);
    }
    table.print();

    // Headline: how much of the fault-free benefit each policy keeps at
    // the harshest setting.
    println!();
    for (name, ys) in &benefit {
        let (clean, harsh) = (ys.first().copied().unwrap(), ys.last().copied().unwrap());
        if clean > 0.0 {
            println!(
                "{name}: retains {:.0}% of fault-free benefit at intensity {}",
                100.0 * harsh / clean,
                INTENSITIES.last().unwrap()
            );
        }
    }

    if let Err(e) = tel.report() {
        eprintln!("telemetry write failed: {e}");
    }
}
