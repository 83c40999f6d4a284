//! Regenerates **Fig. 7** — heat map of the number of cautious friends
//! obtained by ABM on Twitter, varying the cautious friend benefit
//! `B_f` (rows) and the acceptance-threshold fraction (columns).
//!
//! The paper's finding: more cautious friends with higher `B_f`
//! (stronger incentive) and lower thresholds (easier to unlock).

use accu_experiments::heatmap::{paper_axes, run_heatmap};
use accu_experiments::{Cli, ExperimentScale, Telemetry};

fn main() {
    let cli = Cli::parse();
    let scale = ExperimentScale::from_cli(&cli);
    let mut tel = Telemetry::from_cli(&cli, "fig7");
    println!(
        "Fig. 7: #cautious-friends heat map (Twitter, ABM w_D=w_I=0.5, {})",
        scale.describe()
    );
    let (benefits, thresholds) = paper_axes();
    let hm = run_heatmap(&scale, &benefits, &thresholds, &mut tel);
    println!();
    let table = hm.cautious_table();
    table.print();
    println!();
    tel.write_csv(&table, "fig7_twitter");

    let rows = hm.cautious.len();
    let cols = hm.cautious[0].len();
    println!(
        "\ncorners: (B_f=20, θ=10%) → {:.1}, (B_f=60, θ=10%) → {:.1}, \
         (B_f=20, θ=50%) → {:.1}, (B_f=60, θ=50%) → {:.1}",
        hm.cautious[0][0],
        hm.cautious[rows - 1][0],
        hm.cautious[0][cols - 1],
        hm.cautious[rows - 1][cols - 1]
    );
    println!("(expect the most cautious friends at high B_f + loose thresholds)");

    if let Err(e) = tel.report() {
        eprintln!("telemetry write failed: {e}");
    }
}
