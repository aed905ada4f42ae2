//! One-shot experiment report: every paper-versus-measured number in a single
//! machine-readable dump.
//!
//! This is the paper-reproduction record (see the README's "Workspace
//! map"): it re-derives the headline quantity of every table and figure
//! (without the expensive sweeps of the dedicated binaries) and prints a
//! JSON array of [`psq_bench::ExperimentRecord`]s followed by a summary of
//! the worst relative deviation per experiment.
//!
//! Run with `cargo run --release -p psq-bench --bin report`.

use psq_bench::{records_to_json, ExperimentRecord};
use psq_bounds::{hybrid::HybridAccounting, theorem2};
use psq_classical::analysis;
use psq_partial::{algorithm::PartialSearch, example12, optimizer};

fn main() {
    let mut records = Vec::new();

    // ---- Table 1 -----------------------------------------------------------
    for (i, &k) in optimizer::PAPER_TABLE_KS.iter().enumerate() {
        let row = optimizer::table_row(k);
        records.push(ExperimentRecord {
            id: format!("table1/K={k}/upper"),
            description: "optimised upper-bound coefficient of sqrt(N)".into(),
            paper: Some(optimizer::PAPER_UPPER_COEFFICIENTS[i]),
            measured: row.upper,
            unit: "coefficient".into(),
        });
        records.push(ExperimentRecord {
            id: format!("table1/K={k}/lower"),
            description: "Theorem-2 lower-bound coefficient of sqrt(N)".into(),
            paper: Some(optimizer::PAPER_LOWER_COEFFICIENTS[i]),
            measured: row.lower,
            unit: "coefficient".into(),
        });
    }

    // ---- Figure 1 ----------------------------------------------------------
    let example = example12::run(5);
    records.push(ExperimentRecord {
        id: "figure1/queries".into(),
        description: "queries used by the 12-item partial search".into(),
        paper: Some(2.0),
        measured: example.queries as f64,
        unit: "queries".into(),
    });
    records.push(ExperimentRecord {
        id: "figure1/block-probability".into(),
        description: "probability of identifying the correct block".into(),
        paper: Some(1.0),
        measured: example.block_probability,
        unit: "probability".into(),
    });
    records.push(ExperimentRecord {
        id: "figure1/target-probability".into(),
        description: "probability of recovering the target item itself".into(),
        paper: Some(0.75),
        measured: example.target_probability,
        unit: "probability".into(),
    });

    // ---- Theorem 1 ---------------------------------------------------------
    let n = (1u64 << 40) as f64;
    for &k in &[64.0, 1024.0] {
        let run = PartialSearch::new().run_reduced(n, k);
        let ck = psq_partial::model::Model::savings_constant(run.queries as f64 / n.sqrt());
        records.push(ExperimentRecord {
            id: format!("theorem1/K={k}/savings-constant-scaled"),
            description: "c_K * sqrt(K) for the executed algorithm at N = 2^40 (paper: >= 0.42)"
                .into(),
            paper: Some(0.42),
            measured: ck * k.sqrt(),
            unit: "dimensionless (>= paper value)".into(),
        });
        records.push(ExperimentRecord {
            id: format!("theorem1/K={k}/error"),
            description: "failure probability scaled by sqrt(N) (paper: O(1))".into(),
            paper: None,
            measured: (1.0 - run.success_probability) * n.sqrt(),
            unit: "dimensionless".into(),
        });
    }

    // ---- Theorem 2 ---------------------------------------------------------
    for &k in &[2.0, 8.0, 32.0] {
        records.push(ExperimentRecord {
            id: format!("theorem2/K={k}/consistency-slack"),
            description: "upper bound pushed through the reduction minus pi/4 (must be >= 0)"
                .into(),
            paper: None,
            measured: theorem2::consistency_slack(optimizer::optimal_epsilon(k).coefficient, k),
            unit: "coefficient".into(),
        });
    }

    // ---- Theorem 3 / Appendix B -------------------------------------------
    let audit_n = 100usize;
    let audit_t = psq_math::angle::optimal_grover_iterations(audit_n as f64) as usize;
    let audit = HybridAccounting::evaluate(audit_n, audit_t);
    records.push(ExperimentRecord {
        id: "appendixB/tightness".into(),
        description: "implied lower bound / actual queries for optimal Grover at N = 100".into(),
        paper: None,
        measured: audit.tightness(),
        unit: "ratio (1.0 = bound is tight)".into(),
    });
    records.push(ExperimentRecord {
        id: "appendixB/chain-holds".into(),
        description: "1 if every inequality of the Lemma 1-3 chain holds numerically".into(),
        paper: Some(1.0),
        measured: if audit.chain_holds(1e-9) { 1.0 } else { 0.0 },
        unit: "boolean".into(),
    });

    // ---- Appendix A --------------------------------------------------------
    for &k in &[2.0, 4.0, 8.0] {
        let n = 1e6;
        records.push(ExperimentRecord {
            id: format!("appendixA/K={k}/relative-cost"),
            description: "classical randomized partial search cost / (N/2)".into(),
            paper: Some(1.0 - 1.0 / (k * k)),
            measured: analysis::randomized_partial_expected_queries(n, k) / (n / 2.0),
            unit: "fraction of full-search cost".into(),
        });
    }

    // ---- Section 1.2 naive baseline ----------------------------------------
    for &k in &[8.0f64, 64.0] {
        records.push(ExperimentRecord {
            id: format!("section1.2/K={k}/naive-coefficient"),
            description: "naive block-elimination coefficient (paper: (pi/4)sqrt((K-1)/K))".into(),
            paper: Some(std::f64::consts::FRAC_PI_4 * ((k - 1.0) / k).sqrt()),
            measured: psq_partial::baseline::naive_coefficient(k),
            unit: "coefficient".into(),
        });
    }

    println!("{}", records_to_json(&records));

    let worst = records
        .iter()
        .filter_map(|r| r.relative_error().map(|e| (r.id.clone(), e)))
        .max_by(|a, b| a.1.total_cmp(&b.1));
    if let Some((id, err)) = worst {
        eprintln!("worst relative deviation from a paper-stated value: {err:.4} ({id})");
    }
}
