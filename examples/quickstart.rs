//! Quickstart: generate a LANL-like failure trace, run the paper's core
//! statistics on it, and print the headline findings.
//!
//! ```sh
//! cargo run -p hpcfail --example quickstart
//! ```

use hpcfail::analysis::{repair, rootcause, tbf};
use hpcfail::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A seeded synthetic trace of system 20 (the 49-node, 6152-proc
    //    NUMA flagship the paper uses as its running example).
    let system = SystemId::new(20);
    let trace = hpcfail::synth::scenario::system_trace(system, 42)?;
    let index = trace.index();
    println!(
        "generated {} failure records for system {system}",
        trace.len()
    );

    // 2. Root causes (paper Fig. 1): hardware dominates.
    let breakdown = rootcause::CauseBreakdown::from_view(&index.all());
    println!("\nroot causes (fraction of failures):");
    for cause in RootCause::ALL {
        println!(
            "  {cause:<12} {:>5.1}%",
            breakdown.fraction_of_failures(cause) * 100.0
        );
    }

    // 3. Time between failures (paper Fig. 6(d)): Weibull with
    //    decreasing hazard wins, exponential loses.
    let (_, late) = tbf::paper_era_split();
    let analysis = tbf::analyze_indexed(&index, tbf::View::SystemWide(system), Some(late))?;
    println!("\nsystem-wide time between failures, 2000-2005:");
    println!("  gaps analyzed     {}", analysis.n);
    println!("  C^2               {:.2}", analysis.c2);
    if let Some(shape) = analysis.weibull_shape {
        println!("  weibull shape     {shape:.2} (paper: 0.78)");
    }
    println!("  hazard trend      {}", analysis.hazard_trend);
    for candidate in &analysis.fits.candidates {
        println!(
            "  fit {:<12} NLL {:.0}",
            candidate.family.name(),
            candidate.nll
        );
    }

    // 4. Repair times (paper Table 2 / Fig. 7(a)): lognormal best.
    let report = repair::fit_all_repairs_indexed(&index)?;
    let best = report.best().expect("fits available");
    println!(
        "\nrepair-time best fit: {} (paper: lognormal)",
        best.family.name()
    );
    Ok(())
}
