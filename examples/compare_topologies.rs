//! Compare topology families on goodness *and* deployability.
//!
//! ```sh
//! cargo run --release --example compare_topologies [target_servers]
//! ```
//!
//! A compact version of experiment E6: builds a fat-tree, a Jellyfish
//! expander, an Xpander, and a leaf-spine at (approximately) the same
//! server count, runs the full pipeline on each, and prints the comparison
//! table plus the Pareto front — the paper's §4.2 "why aren't expanders in
//! wide use?" question, answerable in one command.

use physnet::core::compare::comparison_matrix;
use physnet::prelude::*;

fn main() {
    let target: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(512);
    let speed = Gbps::new(100.0);

    let specs = vec![
        DesignSpec::new("fat-tree", compare::fat_tree_near(target, speed)),
        DesignSpec::new("leaf-spine", compare::leaf_spine_near(target, speed)),
        DesignSpec::new("jellyfish", compare::jellyfish_near(target, speed, 7)),
        DesignSpec::new("xpander", compare::xpander_near(target, speed, 7)),
    ];

    println!("evaluating {} designs at ≈{target} servers…\n", specs.len());
    // The matrix evaluates through the batch engine: one worker per core,
    // identical output at any job count.
    let (matrix, failures) =
        comparison_matrix(&specs, &BatchOptions::default(), &BatchControl::default());
    if let Some((name, e)) = failures.first() {
        eprintln!("{name}: {e}");
        std::process::exit(1);
    }
    let reports = matrix.reports();

    println!("{}", matrix.table());

    let scores = matrix.scores(&Weights::default());
    let front = matrix.pareto();
    println!("scores (higher better):");
    for (i, r) in reports.iter().enumerate() {
        println!(
            "  {:<11} {:>5.2}{}",
            r.name,
            scores[i],
            if front.contains(&i) {
                "  [pareto-optimal]"
            } else {
                ""
            }
        );
    }
}
