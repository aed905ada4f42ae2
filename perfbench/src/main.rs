//! The repository benchmark: three workloads over the partial-search
//! serving stack, every answer checked against a direct `Engine::run_job`
//! reference, every end-to-end metric printed by name and unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload route_light --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`). The exit code is non-zero when any
//! answer was wrong or missing. See `perfbench/README.md` for the workloads
//! and the layer → metric → workload map.

mod layers;
mod load;
mod sys;
mod tiers;
mod workloads;

use std::process::ExitCode;
use workloads::{Outcome, Run};

/// End-to-end metrics: (name, unit), reported by every workload untraced.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("capacity_rps", "results/s"),
    ("latency_p50_ms", "ms"),
    ("query_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: (name, unit), reported by every workload traced
/// (0 where the workload does not exercise the layer).
const PER_LAYER: [(&str, &str); 51] = [
    ("latency_p99_ms", "ms"),
    ("goodput_rps", "results/s"),
    ("fail_frac", "ratio"),
    ("loadgen.send_lag_p99_us", "us"),
    ("router.hop_p50_us", "us"),
    ("router.shed", "count"),
    ("router.errors", "count"),
    ("router.retries", "count"),
    ("router.duplicates_dropped", "count"),
    ("router.counter_mismatch", "count"),
    ("serve.protocol.parse_us", "us"),
    ("serve.protocol.encode_us", "us"),
    ("serve.protocol.job_line_us", "us"),
    ("serve.coalescer.batch_jobs_mean", "jobs"),
    ("serve.coalescer.dwell_mean_us", "us"),
    ("serve.session.overloaded", "count"),
    ("engine.planner.plan_mean_us", "us"),
    ("engine.planner.plan_cache_hit_frac", "ratio"),
    ("engine.cache.lookup_mean_us", "us"),
    ("engine.cache.hit_frac", "ratio"),
    ("engine.cache.evictions", "count"),
    ("engine.execute.reduced.mean_us", "us"),
    ("engine.execute.reduced.jobs", "count"),
    ("engine.execute.statevector.mean_us", "us"),
    ("engine.execute.statevector.jobs", "count"),
    ("engine.execute.circuit.mean_us", "us"),
    ("engine.execute.circuit.jobs", "count"),
    ("engine.execute.classical_deterministic.mean_us", "us"),
    ("engine.execute.classical_deterministic.jobs", "count"),
    ("engine.execute.classical_randomized.mean_us", "us"),
    ("engine.execute.classical_randomized.jobs", "count"),
    ("engine.execute.recursive.mean_us", "us"),
    ("engine.execute.recursive.jobs", "count"),
    ("engine.execute.sparse.mean_us", "us"),
    ("engine.execute.sparse.jobs", "count"),
    ("sim.statevector.gbps", "GB/s"),
    ("sim.fwht.gbps", "GB/s"),
    ("sim.roofline.copy_gbps", "GB/s"),
    ("sim.statevector.roofline_frac", "ratio"),
    ("parallel.scaling_eff", "ratio"),
    ("partial.queries_per_job_mean", "queries"),
    ("obs.hist_record_ns", "ns"),
    ("trace.overhead_frac", "ratio"),
    ("trace.self_share.client", "ratio"),
    ("trace.self_share.router", "ratio"),
    ("trace.self_share.coalesce", "ratio"),
    ("trace.self_share.plan", "ratio"),
    ("trace.self_share.cache", "ratio"),
    ("trace.self_share.execute_dense", "ratio"),
    ("trace.self_share.execute_sparse", "ratio"),
    ("trace.self_share.execute_other", "ratio"),
];

const WORKLOADS: [&str; 3] = ["route_light", "kernel_exact", "serve_mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn json_string(text: &str) -> String {
    serde_json::to_string(&serde::Value::String(text.to_string())).expect("strings serialise")
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(tiers::WORKER_FLAG) {
        return tiers::serve_worker();
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        nproc: sys::nproc(),
    };
    let mut outcome = Outcome::default();
    match args.workload.as_str() {
        "route_light" => workloads::route_light(&run, &mut outcome),
        "kernel_exact" => workloads::kernel_exact(&run, &mut outcome),
        _ => workloads::serve_mixed(&run, &mut outcome),
    }
    let (llc_level, llc_bytes) = sys::last_level_cache();
    if run.trace {
        let sizes = layers::kernels(llc_bytes, &mut outcome.layers);
        outcome.meta.extend(sizes);
    }

    let attempted: u64 = outcome.phases.iter().map(|p| p.attempted).sum();
    let failed: u64 = outcome.phases.iter().map(|p| p.failed()).sum();
    outcome
        .layers
        .insert("fail_frac".into(), failed as f64 / attempted.max(1) as f64);

    let mut meta = outcome.meta.clone();
    for (key, value) in [
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", run.nproc.to_string()),
        ("git_revision", sys::git_revision()),
        ("cpu_model", sys::cpu_model()),
        ("llc_level", llc_level.to_string()),
        ("llc_bytes", llc_bytes.to_string()),
        ("l2_bytes", sys::l2_cache().to_string()),
    ] {
        meta.insert(key.to_string(), value);
    }
    let meta_json: Vec<String> = meta
        .iter()
        .map(|(k, v)| format!("{}:{}", json_string(k), json_string(v)))
        .collect();
    println!("{{\"meta\":{{{}}}}}", meta_json.join(","));
    for phase in &outcome.phases {
        println!(
            "phase {:<16} sent {:>7} attempted {:>7} ok {:>7} wrong {} missing {} errors {:?} \
             elapsed {:.3} s goodput {:.1}/s",
            phase.name,
            phase.requests_sent,
            phase.attempted,
            phase.ok,
            phase.wrong,
            phase.missing,
            phase.errors,
            phase.elapsed_s,
            phase.goodput()
        );
    }

    let (names, values): (&[(&str, &str)], _) = if run.trace {
        (&PER_LAYER, &outcome.layers)
    } else {
        (&END_TO_END, &outcome.end_to_end)
    };
    for name in values.keys() {
        if !names.iter().any(|(known, _)| known == name) {
            eprintln!("perfbench: unlisted metric `{name}`");
        }
    }
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = values.get(*name).copied().unwrap_or(0.0);
            println!("{name:<48} {value:>16.6} {unit}");
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(name),
                number(value),
                json_string(unit)
            )
        })
        .collect();

    if run.trace {
        if let Err(e) = write_spans(&args.workload, &outcome) {
            eprintln!("perfbench: cannot write spans: {e}");
        }
    }
    let correct = failed == 0 && attempted > 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes the traced run's spans and per-layer table under `.bench_out/`.
fn write_spans(workload: &str, outcome: &Outcome) -> std::io::Result<()> {
    use std::io::Write;
    std::fs::create_dir_all(".bench_out")?;
    let mut file = std::io::BufWriter::new(std::fs::File::create(format!(
        ".bench_out/{workload}-spans.ndjson"
    ))?);
    for line in &outcome.spans {
        writeln!(file, "{line}")?;
    }
    for (name, value) in &outcome.layers {
        writeln!(
            file,
            "{{\"layer\":{},\"value\":{}}}",
            json_string(name),
            number(*value)
        )?;
    }
    file.flush()
}
