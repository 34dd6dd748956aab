//! The Odyssey benchmark: three workloads, end-to-end metrics with
//! tracing off, per-layer metrics from a separate traced run, and every
//! answer checked against a brute-force oracle.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cluster-hard-skew --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The line before it records the host. The exit code is 0 only when
//! every answer matched the oracle.

mod batch;
mod inputs;
mod probes;
mod report;
mod serve;
mod speed;
mod stats;
mod trace;

use report::{Host, Metrics, END_TO_END, LAYERS, PER_LAYER};
use stats::Outcomes;
use std::path::Path;
use trace::Tracer;

/// What a workload run produced.
pub struct Run {
    /// Every metric the workload measured.
    pub metrics: Metrics,
    /// Attempted and failed queries of the measured window.
    pub outcomes: Outcomes,
    /// Answers that disagreed with the oracle.
    pub mismatches: u64,
}

const WORKLOADS: &[&str] = &["cluster-hard-skew", "cluster-easy-split", "serve-open-loop"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let threads = match args.workload.as_str() {
        "cluster-hard-skew" => batch::HARD_SKEW.threads(),
        "cluster-easy-split" => batch::EASY_SPLIT.threads(),
        _ => serve::POOL_THREADS,
    };
    let host = Host::probe();
    if threads > host.available_parallelism {
        eprintln!(
            "perfbench: {} needs {threads} compute threads but only {} cores are available",
            args.workload, host.available_parallelism
        );
        std::process::exit(2);
    }
    println!(
        "{}",
        host.json(&args.workload, args.seed, threads, args.trace)
    );

    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let tracer = Tracer::new(args.trace);
    let mut run = match args.workload.as_str() {
        "cluster-hard-skew" => batch::run(&batch::HARD_SKEW, args.seed, args.seconds, &tracer),
        "cluster-easy-split" => batch::run(&batch::EASY_SPLIT, args.seed, args.seconds, &tracer),
        _ => serve::run(args.seed, args.seconds, &tracer, &out_dir),
    };

    let table = if args.trace {
        let spans = tracer.spans();
        let self_ns = trace::self_times(&spans);
        for layer in LAYERS {
            let ns = self_ns.get(layer).copied().unwrap_or(0);
            run.metrics
                .set(&format!("self_ms.{layer}"), ns as f64 / 1e6);
        }
        run.metrics.set("trace.spans", spans.len() as f64);
        let path = out_dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(&out_dir)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| tracer.write_json(&mut std::io::BufWriter::new(f)));
        match written {
            Ok(()) => eprintln!("spans: {} written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
        }
        PER_LAYER
    } else {
        END_TO_END
    };

    let correct = run.mismatches == 0;
    if !correct {
        eprintln!(
            "perfbench: {} answers disagreed with the brute-force oracle",
            run.mismatches
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.outcomes.attempted,
        run.outcomes.failed() + run.mismatches,
        run.metrics.json(table)
    );
    std::process::exit(if correct { 0 } else { 1 });
}
