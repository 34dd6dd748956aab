//! Metric names, host metadata and the result line.
//!
//! The metric tables here and `BENCHMARK.json` at the repository root
//! list the same names and units; a test keeps them in step.

use std::fmt::Write as _;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("p99_ms.interactive", "ms"),
    ("p99_ms.batch", "ms"),
    ("answered_frac", "frac"),
    ("mem_peak_mb", "MB"),
];

/// Layers a span can be charged to, for the `self_ms.*` metrics.
pub const LAYERS: &[&str] = &[
    "bench",
    "cluster",
    "partition",
    "index",
    "persist",
    "search",
    "distance",
    "engine",
    "sched",
    "service",
];

/// Per-layer metrics, reported by every workload in the traced run. A
/// layer that a workload does not reach reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("partition.imbalance", "frac"),
    ("index.build_s", "s"),
    ("index.bytes_per_series", "B"),
    ("index.leaves", "count"),
    ("persist.load_s", "s"),
    ("approx.us", "us"),
    ("approx.seed_ratio", "ratio"),
    ("exact.ms.p50", "ms"),
    ("exact.ms.p99", "ms"),
    ("knn.ms.p50", "ms"),
    ("dtw.ms.p50", "ms"),
    ("exact.lb_node_per_query", "count"),
    ("exact.lb_series_per_query", "count"),
    ("exact.real_dist_per_query", "count"),
    ("exact.prune_ratio", "frac"),
    ("exact.traversal_share", "frac"),
    ("distance.lb_series_ns", "ns"),
    ("distance.ed_ns", "ns"),
    ("distance.dtw_ns", "ns"),
    ("engine.qps", "1/s"),
    ("sched.mape_holdout", "frac"),
    ("cluster.batch_s.ed", "s"),
    ("cluster.batch_s.knn", "s"),
    ("cluster.batch_s.dtw", "s"),
    ("cluster.node_imbalance", "frac"),
    ("cluster.steals_attempted", "count"),
    ("cluster.steal_success_ratio", "frac"),
    ("cluster.bsf_broadcasts_per_query", "count"),
    ("cluster.sim_over_wall", "ratio"),
    ("service.sojourn_ms.p50", "ms"),
    ("service.sojourn_ms.p99", "ms"),
    ("service.submit_us.p99", "us"),
    ("service.max_in_flight", "count"),
    ("service.reject_frac", "frac"),
    ("service.degraded_frac", "frac"),
    ("loadgen.lag_ms.p99", "ms"),
    ("failed_frac", "frac"),
    ("self_ms.bench", "ms"),
    ("self_ms.cluster", "ms"),
    ("self_ms.partition", "ms"),
    ("self_ms.index", "ms"),
    ("self_ms.persist", "ms"),
    ("self_ms.search", "ms"),
    ("self_ms.distance", "ms"),
    ("self_ms.engine", "ms"),
    ("self_ms.sched", "ms"),
    ("self_ms.service", "ms"),
    ("trace.overhead_frac", "frac"),
    ("trace.spans", "count"),
];

/// Metric values collected by a run, by name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(String, f64)>,
}

impl Metrics {
    /// Sets (or overwrites) `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name.to_string(), value)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The `metrics` object for `table`: every name in the table, with
    /// its unit. A name the run did not set is a bug in the workload.
    pub fn json(&self, table: &[(&str, &str)]) -> String {
        let mut out = String::from("{");
        for (i, (name, unit)) in table.iter().enumerate() {
            let v = self
                .get(name)
                .unwrap_or_else(|| panic!("workload did not report metric {name}"));
            assert!(v.is_finite(), "metric {name} is not finite: {v}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(v)
            );
        }
        out.push('}');
        out
    }
}

/// A JSON number with all its digits (integers without a fraction).
pub fn num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// The host a result was measured on.
#[derive(Debug, Clone)]
pub struct Host {
    /// Online CPUs of the machine.
    pub nproc: usize,
    /// CPUs this process may run on (affinity and quota).
    pub available_parallelism: usize,
    /// Distance-kernel dispatch in effect (`avx2` or `scalar`).
    pub simd: &'static str,
    /// Source revision, when the checkout knows it.
    pub git_rev: String,
}

impl Host {
    /// Probes the current host.
    pub fn probe() -> Self {
        let available_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        let nproc = std::fs::read_to_string("/proc/cpuinfo")
            .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
            .ok()
            .filter(|&n| n > 0)
            .unwrap_or(available_parallelism);
        Host {
            nproc,
            available_parallelism,
            simd: odyssey_core::distance::simd::dispatch_name(),
            git_rev: git_rev(),
        }
    }

    /// The metadata line printed before the result.
    pub fn json(&self, workload: &str, seed: u64, threads: usize, trace: bool) -> String {
        format!(
            "{{\"host\": {{\"nproc\": {}, \"available_parallelism\": {}, \"simd\": \"{}\", \
             \"git_rev\": \"{}\"}}, \"workload\": \"{workload}\", \"seed\": {seed}, \
             \"threads\": {threads}, \"trace\": {trace}}}",
            self.nproc, self.available_parallelism, self.simd, self.git_rev
        )
    }
}

/// `git rev-parse HEAD`, or `unknown` outside a git checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty() && s.chars().all(|c| c.is_ascii_hexdigit()))
        .unwrap_or_else(|| "unknown".to_string())
}

/// CPU time the hypervisor stole from this machine so far, in clock
/// ticks summed over CPUs (0 where the kernel does not report it).
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s.lines().next()?.strip_prefix("cpu ")?.to_string();
            cpu.split_whitespace().nth(7)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Returns the heap's free pages to the OS, then restarts the
/// high-water RSS count from the current RSS, so input generation and
/// the oracle (and the garbage they leave in the allocator) do not count
/// towards `mem_peak_mb`.
pub fn reset_peak_rss() {
    trim_heap();
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!(
            "perfbench: cannot reset the peak RSS ({e}); mem_peak_mb includes input generation"
        );
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointer and only releases
    // memory its allocator (the one `std` allocates from) holds free.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}

/// High-water resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names listed under `key` in `BENCHMARK.json`, in file order.
    fn listed(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list closes")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |f: &str| {
                    let at = entry.find(&format!("\"{f}\"")).expect("field present");
                    let rest = &entry[at + f.len() + 2..];
                    let rest = &rest[rest.find('"').expect("value opens") + 1..];
                    rest[..rest.find('"').expect("value closes")].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&json, "end_to_end"), own(END_TO_END));
        assert_eq!(listed(&json, "per_layer"), own(PER_LAYER));
        for layer in LAYERS {
            let name = format!("self_ms.{layer}");
            assert!(PER_LAYER.iter().any(|&(n, _)| n == name), "{name} missing");
        }
    }

    #[test]
    fn steal_ticks_never_go_backwards() {
        let a = steal_ticks();
        assert!(steal_ticks() >= a);
    }

    #[test]
    fn metrics_json_lists_the_table_in_order() {
        let mut m = Metrics::default();
        m.set("b", 2.5);
        m.set("a", 1.0);
        m.set("a", 3.0);
        assert_eq!(
            m.json(&[("a", "s"), ("b", "ms")]),
            "{\"a\": {\"value\": 3, \"unit\": \"s\"}, \"b\": {\"value\": 2.5, \"unit\": \"ms\"}}"
        );
    }

    #[test]
    #[should_panic(expected = "did not report metric c")]
    fn missing_metric_is_a_bug() {
        Metrics::default().json(&[("c", "s")]);
    }
}
