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

use accu_experiments::heatmap::{paper_axes, run_heatmap};
use accu_experiments::{Cli, ExperimentScale, Telemetry};

fn main() {
    let cli = Cli::parse();
    let scale = ExperimentScale::from_cli(&cli);
    let mut tel = Telemetry::from_cli(&cli, "fig6");
    println!(
        "Figs. 6 and 7: benefit and #cautious-friends heat maps (Twitter, ABM w_D=w_I=0.5, {})",
        scale.describe()
    );
    let (benefits, thresholds) = paper_axes();
    let hm = run_heatmap(&scale, &benefits, &thresholds, &mut tel);
    println!("\nFig. 6: benefit");
    let table = hm.benefit_table();
    table.print();
    println!();
    tel.write_csv(&table, "fig6_twitter");

    // Shape checks the paper calls out.
    let rows = hm.benefit.len();
    let cols = hm.benefit[0].len();
    let top_row_trend = hm.benefit[rows - 1][0] >= hm.benefit[rows - 1][cols - 1];
    println!(
        "\nhigh B_f row: benefit {} from loose (10%) to tight (50%) thresholds",
        if top_row_trend {
            "decreases"
        } else {
            "increases (unexpected)"
        }
    );
    let col_trend = hm.benefit[rows - 1][0] >= hm.benefit[0][0];
    println!(
        "loose-threshold column: benefit {} with higher cautious B_f",
        if col_trend {
            "increases"
        } else {
            "decreases (unexpected)"
        }
    );

    println!("\nFig. 7: #cautious friends");
    let table = hm.cautious_table();
    table.print();
    println!();
    tel.write_csv(&table, "fig7_twitter");
    let c = &hm.cautious;
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
