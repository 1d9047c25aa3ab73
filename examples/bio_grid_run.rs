//! The paper's pilot application end-to-end: a proteome-wide sliding-
//! window similarity search (§5.1) — computed for real on the `gm-exec`
//! thread pool — plus the grid-market simulation of the same workload at
//! testbed scale.
//!
//! ```sh
//! cargo run --release --example bio_grid_run
//! ```

use gm_exec::ThreadPool;
use gridmarket::bio::workload::BioWorkload;
use gridmarket::bio::{partition, scan_chunk, Proteome, ScanConfig};
use gridmarket::scenario::{Scenario, UserSetup};
use std::sync::Arc;

fn main() {
    // ---- Part 1: actually run the similarity scan on a small synthetic
    // proteome, chunked exactly like the grid job would be.
    let proteome = Arc::new(Proteome::synthesize(60, 2006));
    println!(
        "synthesized proteome: {} proteins, {} residues",
        proteome.len(),
        proteome.total_residues()
    );
    let chunks = partition(&proteome, 6);
    println!("partitioned into {} chunks (bag-of-tasks)", chunks.len());

    let pool = ThreadPool::with_default_parallelism();
    let cfg = ScanConfig { window: 20, step: 20 };
    let t0 = std::time::Instant::now();
    let reports = {
        let proteome = Arc::clone(&proteome);
        pool.par_map(chunks, move |chunk| {
            let scores = scan_chunk(&proteome, &chunk, &cfg);
            (chunk.index, scores)
        })
    };
    let elapsed = t0.elapsed();

    let mut all_scores: Vec<i32> = Vec::new();
    for (idx, scores) in &reports {
        let max = scores.iter().map(|s| s.best_score).max().unwrap_or(0);
        println!("  chunk {idx}: {} windows scanned, best score {max}", scores.len());
        all_scores.extend(scores.iter().map(|s| s.best_score));
    }
    all_scores.sort_unstable();
    let median = all_scores.get(all_scores.len() / 2).copied().unwrap_or(0);
    println!(
        "scan complete on {} threads in {:.2?}; median best-window score {median}",
        pool.threads(),
        elapsed
    );
    println!(
        "high-similarity windows (score > 60): {}\n",
        all_scores.iter().filter(|&&s| s > 60).count()
    );

    // ---- Part 2: the same workload shape on the simulated grid market
    // (5 competing users, testbed scale scaled down for a fast demo).
    let workload = BioWorkload {
        subjobs: 6,
        chunk_minutes: 20.0,
        deadline_minutes: 120,
    };
    println!(
        "grid workload: {} chunks x {:.0} min/chunk = {:.1} CPU-hours per user",
        workload.subjobs,
        workload.chunk_minutes,
        workload.total_cpu_hours()
    );

    let mut scenario = Scenario::builder()
        .seed(2006)
        .hosts(10)
        .chunk_minutes(workload.chunk_minutes)
        .deadline_minutes(workload.deadline_minutes)
        .horizon_hours(12);
    for i in 0..5 {
        scenario = scenario.user(
            UserSetup::new(if i < 2 { 100.0 } else { 500.0 })
                .subjobs(workload.subjobs)
                .label(&format!("user{}", i + 1)),
        );
    }
    let result = scenario.run().expect("scenario");
    println!("\n{}", gridmarket::report::render_users(&result.users));
    println!("{}", result.monitor);
}
