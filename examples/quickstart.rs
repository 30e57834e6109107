//! Quickstart: define one benchmark, run it on two systems, look at the
//! assimilated results — the paper's Figure 1 workflow in ~30 lines.
//!
//! ```bash
//! cargo run --example quickstart
//! ```

use benchkit::prelude::*;

fn main() {
    // 1. Define the benchmark once, system-independently (Principle 2):
    //    BabelStream in its OpenMP-style model, 2^27 elements (large enough
    //    to defeat every L3 in the catalog — see the Milan discussion in
    //    §3.1 of the paper).
    let case = cases::babelstream(parkern::Model::Omp, 1 << 27);

    // 2. Run it on two simulated systems from the catalog. Each run goes
    //    through the full pipeline: spec → concretize → build → submit →
    //    run → sanity → FOM extraction → perflog.
    let study = Study::new("quickstart", SuiteRunner::new(&["archer2", "csd3"])).with_case(case);
    let results = study.run();
    println!(
        "ran {} combinations ({} skipped, {} failed)\n",
        results.report.n_ran(),
        results.report.n_skipped(),
        results.report.n_failed()
    );

    // 3. The assimilated frame: one row per Figure of Merit per run (P6).
    let frame = results.frame();
    println!("{frame}");

    // 4. Efficiency, not runtime (Principle 1): compare each system's
    //    Triad bandwidth against its theoretical peak from Table 1.
    let peaks = [("archer2", 409_600.0), ("csd3", 282_000.0)];
    for (system, peak) in peaks {
        let triad = results
            .mean_fom("babelstream_omp", system, "Triad")
            .expect("both systems support OpenMP");
        println!(
            "{system:<8} Triad {:>10.0} MB/s = {:.1}% of theoretical peak",
            triad,
            100.0 * triad / peak
        );
    }

    // 5. And the portable summary: the Pennycook PP metric across the set.
    let set = results.efficiency_set("babelstream_omp", "Triad", &peaks);
    println!(
        "\nPerformance portability (harmonic mean of efficiencies): {:.3}",
        set.pp()
    );
}
