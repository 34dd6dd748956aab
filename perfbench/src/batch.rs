//! The closed-loop cluster workloads: one client issues requests to an
//! `OdysseyCluster` back to back, each request one or more batch calls,
//! and waits for every answer before sending the next.

use crate::inputs::{self, brute_force_all, matches, subseed, Expected, QueryPool, DTW_WINDOW, K};
use crate::probes::{self, ProbeQueries};
use crate::report::{peak_rss_mb, reset_peak_rss, Metrics};
use crate::speed::{probe_ms, slowdown};
use crate::stats::{fastest, mean, median, tail, Outcomes};
use crate::trace::Tracer;
use crate::Run;
use odyssey_cluster::{ClusterConfig, OdysseyCluster, Replication, SchedulerKind};
use odyssey_core::index::{Index, IndexConfig};
use odyssey_core::search::engine::QueryKind;
use odyssey_core::series::DatasetBuffer;
use odyssey_service::LatencyClass;
use odyssey_workloads::WorkloadKind;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One batch call of a request: `hard + easy` queries of one kind.
#[derive(Debug, Clone, Copy)]
pub struct CallShape {
    kind: QueryKind,
    hard: usize,
    easy: usize,
}

const fn call(kind: QueryKind, hard: usize, easy: usize) -> CallShape {
    CallShape { kind, hard, easy }
}

/// A request: its class and its calls, run in order.
#[derive(Debug, Clone, Copy)]
pub struct RequestShape {
    class: LatencyClass,
    calls: &'static [CallShape],
}

/// A closed-loop cluster workload.
#[derive(Debug)]
pub struct Spec {
    /// Series in the collection.
    pub n_series: usize,
    /// Simulated nodes (one compute thread each).
    pub nodes: usize,
    /// Replication strategy.
    pub replication: Replication,
    /// A node running at reduced speed, if any.
    pub slow_node: Option<(usize, f64)>,
    /// Noise of the near-duplicate (easy) queries.
    pub easy_noise: f32,
    /// The requests of one round.
    pub round: &'static [RequestShape],
    /// Rounds of distinct requests; every pass runs each request once.
    pub rounds: usize,
    /// Set-ups per run (their median is `setup_s`).
    pub setup_reps: usize,
    /// Time of the host-speed probe over this collection on the
    /// reference host (2-core AVX2 VM), in ms: closed-loop timings are
    /// scaled to it.
    pub probe_ref_ms: f64,
}

impl Spec {
    /// Compute threads the workload runs on.
    pub fn threads(&self) -> usize {
        self.nodes * THREADS_PER_NODE
    }

    fn config(&self) -> ClusterConfig {
        let mut c = ClusterConfig::new(self.nodes)
            .with_replication(self.replication)
            .with_scheduler(SchedulerKind::PredictDn)
            .with_work_stealing(true)
            .with_threads_per_node(THREADS_PER_NODE)
            .with_segments(inputs::SEGMENTS)
            .with_leaf_capacity(inputs::LEAF_CAPACITY);
        if let Some((node, speed)) = self.slow_node {
            c = c.with_node_speed(node, speed);
        }
        c
    }
}

const THREADS_PER_NODE: usize = 1;
const ED: QueryKind = QueryKind::Exact;
const KNN: QueryKind = QueryKind::Knn(K);
const DTW: QueryKind = QueryKind::Dtw(DTW_WINDOW);

/// `cluster-hard-skew`: mixed-difficulty ED, k-NN and a little DTW on
/// two FULL replicas, one at half speed, beyond the last-level cache.
/// Interactive requests carry two thirds of the queries, so p50 sits
/// inside their (narrow) latency mode rather than between the modes.
/// One DTW query per batch request, a close near-duplicate: DTW cost
/// varies steeply with the query's distance to its neighbours, so a
/// larger or noisier share would make the batch tail a draw of the DTW
/// queries.
pub const HARD_SKEW: Spec = Spec {
    n_series: 262_144,
    nodes: 2,
    replication: Replication::Full,
    slow_node: Some((1, 0.5)),
    easy_noise: 0.1,
    round: &[
        RequestShape {
            class: LatencyClass::Interactive,
            calls: &[call(ED, 2, 6)],
        },
        RequestShape {
            class: LatencyClass::Interactive,
            calls: &[call(ED, 2, 6)],
        },
        RequestShape {
            class: LatencyClass::Interactive,
            calls: &[call(ED, 2, 6)],
        },
        RequestShape {
            class: LatencyClass::Interactive,
            calls: &[call(ED, 2, 6)],
        },
        RequestShape {
            class: LatencyClass::Batch,
            calls: &[call(ED, 2, 6), call(KNN, 2, 6), call(DTW, 0, 1)],
        },
    ],
    // 40 distinct requests (32 interactive, 8 batch), a pass of about
    // 4 s on a 2-core AVX2 host: five passes in a 20 s run.
    rounds: 8,
    setup_reps: 3,
    probe_ref_ms: 15.5,
};

/// `cluster-easy-split`: near-duplicate ED 1-NN queries on two
/// EQUALLY-SPLIT nodes over a cache-resident collection.
pub const EASY_SPLIT: Spec = Spec {
    n_series: 50_000,
    nodes: 2,
    replication: Replication::EquallySplit,
    slow_node: None,
    easy_noise: 0.05,
    round: &[
        RequestShape {
            class: LatencyClass::Interactive,
            calls: &[call(ED, 0, 8)],
        },
        RequestShape {
            class: LatencyClass::Interactive,
            calls: &[call(ED, 0, 8)],
        },
        RequestShape {
            class: LatencyClass::Interactive,
            calls: &[call(ED, 0, 8)],
        },
        RequestShape {
            class: LatencyClass::Interactive,
            calls: &[call(ED, 0, 8)],
        },
        RequestShape {
            class: LatencyClass::Batch,
            calls: &[call(ED, 0, 64)],
        },
    ],
    // 200 distinct requests (160 interactive, 40 batch), a pass of
    // about 2 s on a 2-core AVX2 host: ten passes in a 20 s run.
    rounds: 40,
    setup_reps: 5,
    probe_ref_ms: 12.5,
};

/// A generated batch call with its oracle answers.
struct Call {
    kind: QueryKind,
    rows: Vec<Vec<f32>>,
    queries: DatasetBuffer,
    expected: Vec<Expected>,
}

struct Request {
    class: LatencyClass,
    calls: Vec<Call>,
}

impl Request {
    fn len(&self) -> usize {
        self.calls.iter().map(|c| c.rows.len()).sum()
    }
}

/// What one cluster call returned.
struct CallOut {
    kind: QueryKind,
    wall: Duration,
    answers: Vec<Vec<f64>>,
    partial: u64,
    steals_attempted: u64,
    steals_successful: u64,
    bsf_broadcasts: u64,
    per_node_units: Vec<u64>,
    makespan_s: f64,
}

fn run_call(cluster: &OdysseyCluster, c: &Call, tracer: &Tracer, req: u64) -> CallOut {
    let t = Instant::now();
    let nn = |r: odyssey_cluster::BatchReport, wall| CallOut {
        kind: c.kind,
        wall,
        answers: r.answers.iter().map(|a| vec![a.distance]).collect(),
        partial: r.coverage.iter().filter(|c| !c.is_complete()).count() as u64,
        steals_attempted: r.steals_attempted,
        steals_successful: r.steals_successful,
        bsf_broadcasts: r.bsf_broadcasts,
        makespan_s: r.makespan_seconds(THREADS_PER_NODE),
        per_node_units: r.per_node_units,
    };
    match c.kind {
        QueryKind::Exact => {
            let r = tracer.span("cluster", "answer_batch", req, || {
                cluster.answer_batch(&c.queries)
            });
            nn(r, t.elapsed())
        }
        QueryKind::Dtw(w) => {
            let r = tracer.span("cluster", "answer_batch_dtw", req, || {
                cluster.answer_batch_dtw(&c.queries, w)
            });
            nn(r, t.elapsed())
        }
        QueryKind::Knn(k) => {
            let r = tracer.span("cluster", "answer_batch_knn", req, || {
                cluster.answer_batch_knn(&c.queries, k)
            });
            CallOut {
                kind: c.kind,
                wall: t.elapsed(),
                answers: r
                    .answers
                    .iter()
                    .map(|a| a.neighbors.iter().map(|&(d_sq, _)| d_sq.sqrt()).collect())
                    .collect(),
                partial: r.coverage.iter().filter(|c| !c.is_complete()).count() as u64,
                steals_attempted: 0,
                steals_successful: 0,
                bsf_broadcasts: 0,
                makespan_s: 0.0,
                per_node_units: r.per_node_units,
            }
        }
    }
}

/// Latencies and counters of one measured stretch: complete passes over
/// the distinct requests. Latency samples are per request: every query
/// of a request waits for the whole request.
#[derive(Default)]
struct Window {
    measured: Duration,
    /// `passes[p][r]`: latency of request `r` in pass `p`, in ms.
    passes: Vec<Vec<f64>>,
    /// Host-speed probes in ms: before the first pass and after each.
    probes: Vec<f64>,
    queries: usize,
    outcomes: Outcomes,
    mismatches: u64,
    cluster: ClusterAgg,
}

/// Cluster-layer counters summed over the calls of a stretch.
#[derive(Default)]
struct ClusterAgg {
    walls: Vec<(QueryKind, f64)>,
    units: Vec<u64>,
    steals_attempted: u64,
    steals_successful: u64,
    broadcasts: u64,
    nn_queries: usize,
    sim_s: f64,
    nn_wall_s: f64,
}

impl Window {
    /// Each distinct request's fastest pass, scaled to the reference
    /// host's speed.
    fn best_ms(&self, probe_ref_ms: f64) -> Vec<f64> {
        let slowdown = slowdown(&self.probes, probe_ref_ms);
        fastest(&self.passes)
            .iter()
            .map(|ms| ms / slowdown)
            .collect()
    }
}

impl ClusterAgg {
    fn add(&mut self, c: &CallOut) {
        self.walls.push((c.kind, c.wall.as_secs_f64()));
        self.units
            .resize(self.units.len().max(c.per_node_units.len()), 0);
        for (u, &x) in self.units.iter_mut().zip(&c.per_node_units) {
            *u += x;
        }
        self.steals_attempted += c.steals_attempted;
        self.steals_successful += c.steals_successful;
        if !matches!(c.kind, QueryKind::Knn(_)) {
            self.broadcasts += c.bsf_broadcasts;
            self.nn_queries += c.answers.len();
            self.sim_s += c.makespan_s;
            self.nn_wall_s += c.wall.as_secs_f64();
        }
    }
}

/// Fewest passes a run makes over its distinct requests.
const MIN_PASSES: usize = 3;

/// Runs passes over all `requests` until another pass would end past
/// `seconds` of request time, and at least [`MIN_PASSES`], probing the
/// host's speed around each pass; answers are checked between requests,
/// off the clock.
fn measure(
    cluster: &OdysseyCluster,
    requests: &[Request],
    seconds: f64,
    tracer: &Tracer,
    probe: &dyn Fn() -> f64,
) -> Window {
    let mut w = Window {
        probes: vec![probe()],
        ..Window::default()
    };
    loop {
        let pass_start = w.measured;
        let mut pass = Vec::with_capacity(requests.len());
        for (r, req) in requests.iter().enumerate() {
            let id = (w.passes.len() * requests.len() + r) as u64;
            let t = Instant::now();
            let outs: Vec<CallOut> = tracer.span("bench", "request", id, || {
                req.calls
                    .iter()
                    .map(|c| run_call(cluster, c, tracer, id))
                    .collect()
            });
            let lat = t.elapsed();
            pass.push(lat.as_secs_f64() * 1e3);
            w.measured += lat;
            w.queries += req.len();
            w.outcomes.attempted += req.len() as u64;
            for (c, out) in req.calls.iter().zip(&outs) {
                w.outcomes.partial += out.partial;
                w.mismatches += c
                    .expected
                    .iter()
                    .zip(&out.answers)
                    .filter(|(want, got)| !matches(got, want))
                    .count() as u64;
                w.mismatches += c.expected.len().abs_diff(out.answers.len()) as u64;
                w.cluster.add(out);
            }
        }
        w.passes.push(pass);
        w.probes.push(probe());
        let last = w.measured - pass_start;
        if w.passes.len() >= MIN_PASSES && (w.measured + last).as_secs_f64() > seconds {
            return w;
        }
    }
}

fn generate(spec: &Spec, data: &DatasetBuffer, seed: u64) -> Vec<Request> {
    let shapes: Vec<&RequestShape> = (0..spec.rounds).flat_map(|_| spec.round.iter()).collect();
    let calls = || shapes.iter().flat_map(|r| r.calls.iter());
    let is_dtw = |c: &CallShape| matches!(c.kind, QueryKind::Dtw(_));
    let hard_n = calls().map(|c| c.hard).sum();
    let easy_n = calls().filter(|c| !is_dtw(c)).map(|c| c.easy).sum();
    let dtw_n = calls().filter(|c| is_dtw(c)).map(|c| c.easy).sum();
    let mut hard = QueryPool::new(data, hard_n, WorkloadKind::Hard, subseed(seed, 10));
    let easy_kind = |noise| WorkloadKind::Easy { noise };
    let mut easy = QueryPool::new(data, easy_n, easy_kind(spec.easy_noise), subseed(seed, 11));
    // Closer near-duplicates for DTW, whose cost grows steeply with
    // the distance to the nearest neighbour.
    let mut dtw = QueryPool::new(data, dtw_n, easy_kind(inputs::DTW_NOISE), subseed(seed, 12));
    shapes
        .iter()
        .map(|r| Request {
            class: r.class,
            calls: r
                .calls
                .iter()
                .map(|c| {
                    let easy = if is_dtw(c) { &mut dtw } else { &mut easy };
                    let rows = inputs::stratified(c.hard, c.easy, &mut hard, easy);
                    Call {
                        kind: c.kind,
                        queries: DatasetBuffer::from_series(&rows),
                        rows,
                        expected: Vec::new(),
                    }
                })
                .collect(),
        })
        .collect()
}

fn fill_oracle(index: &Index, requests: &mut [Request]) {
    let all: Vec<(&[f32], QueryKind)> = requests
        .iter()
        .flat_map(|r| r.calls.iter())
        .flat_map(|c| c.rows.iter().map(move |q| (q.as_slice(), c.kind)))
        .collect();
    let mut expected = brute_force_all(index, &all).into_iter();
    for c in requests.iter_mut().flat_map(|r| r.calls.iter_mut()) {
        c.expected = expected.by_ref().take(c.rows.len()).collect();
    }
}

/// Makes sleeps of this thread and of every thread it starts from now
/// on end on time. By default Linux lets a sleep run up to 50 µs late so
/// that timers can be merged; the slow node is paced by sleeps of 20 µs,
/// so that slack, and the timer traffic of whatever else runs on the
/// host, would set its speed instead of its configured speed.
#[cfg(target_os = "linux")]
fn precise_sleeps() {
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes an integer and touches no memory.
    if unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) } != 0 {
        eprintln!("perfbench: cannot set the timer slack; sleeps may end late");
    }
}

#[cfg(not(target_os = "linux"))]
fn precise_sleeps() {}

/// Runs a closed-loop cluster workload.
pub fn run(spec: &Spec, seed: u64, seconds: f64, tracer: &Tracer) -> Run {
    precise_sleeps();
    let data = inputs::dataset(spec.n_series, subseed(seed, 0));
    let mut requests = generate(spec, &data, seed);
    let config = spec.config();
    let mut m = Metrics::default();

    // The oracle over the whole collection, off every clock. The traced
    // run keeps it for its probes; otherwise it is dropped before the
    // peak-RSS count starts.
    let oracle = Arc::new(Index::build(
        data.clone(),
        IndexConfig::new(inputs::SERIES_LEN)
            .with_segments(inputs::SEGMENTS)
            .with_leaf_capacity(inputs::LEAF_CAPACITY),
        spec.threads(),
    ));
    fill_oracle(&oracle, &mut requests);
    let probe_index = tracer.enabled().then_some(oracle);
    reset_peak_rss();

    // Set-up: generated data to a warm cluster (index build, node
    // pools, first-use calibration), several times.
    let mut setup_s = Vec::new();
    let mut cluster = None;
    for _ in 0..spec.setup_reps {
        drop(cluster.take());
        let t = Instant::now();
        let c = tracer.span("cluster", "build", 0, || {
            OdysseyCluster::build(&data, config.clone())
        });
        for call in &requests[0].calls {
            run_call(&c, call, tracer, 0);
        }
        setup_s.push(t.elapsed().as_secs_f64());
        cluster = Some(c);
    }
    let cluster = cluster.expect("at least one set-up");
    let groups = cluster.topology().n_groups();
    let threads = spec.threads();
    let probe = || probe_ms(data.raw(), inputs::SERIES_LEN, threads);

    let run = if tracer.enabled() {
        // Untraced and traced halves: their difference is the tracing
        // overhead; the traced half gives the cluster metrics.
        let quiet = Tracer::new(false);
        let plain = measure(&cluster, &requests, seconds / 2.0, &quiet, &probe);
        let traced = measure(&cluster, &requests, seconds / 2.0, tracer, &probe);
        let total = |w: &Window| w.best_ms(spec.probe_ref_ms).iter().sum::<f64>();
        m.set("trace.overhead_frac", total(&traced) / total(&plain) - 1.0);
        cluster_metrics(&traced.cluster, &mut m);
        m.set(
            "partition.imbalance",
            tracer.span("partition", "apply", 0, || {
                config.partitioning.apply(&data, groups).imbalance()
            }),
        );
        let b = cluster.build_report();
        m.set("index.build_s", b.max_wall_index_time().as_secs_f64());
        let bytes: usize = b.per_chunk_index_bytes.iter().sum();
        m.set(
            "index.bytes_per_series",
            bytes as f64 / spec.n_series as f64,
        );
        m.set(
            "index.leaves",
            (0..groups)
                .map(|g| cluster.chunk_index(g).leaf_count())
                .sum::<usize>() as f64,
        );
        let rows = |kind: QueryKind| -> Vec<Vec<f32>> {
            requests
                .iter()
                .flat_map(|r| r.calls.iter())
                .filter(|c| c.kind == kind)
                .flat_map(|c| c.rows.iter().cloned())
                .collect()
        };
        let (ed, knn, dtw) = (rows(ED), rows(KNN), rows(DTW));
        probes::run(
            probe_index.as_ref().expect("kept for tracing"),
            &ProbeQueries {
                ed: &ed,
                knn: &knn,
                dtw: &dtw,
            },
            tracer,
            &mut m,
        );
        let mut merged = plain;
        merged.outcomes.attempted += traced.outcomes.attempted;
        merged.outcomes.partial += traced.outcomes.partial;
        merged.mismatches += traced.mismatches;
        merged
    } else {
        measure(&cluster, &requests, seconds, tracer, &probe)
    };

    // Steady metrics: each distinct request's fastest pass, at the
    // reference host's speed.
    let best = run.best_ms(spec.probe_ref_ms);
    let latencies = |class: Option<LatencyClass>| -> Vec<f64> {
        requests
            .iter()
            .zip(&best)
            .filter(|(r, _)| class.is_none_or(|c| r.class == c))
            .map(|(_, &ms)| ms)
            .collect()
    };
    let (all, interactive, batch) = (
        latencies(None),
        latencies(Some(LatencyClass::Interactive)),
        latencies(Some(LatencyClass::Batch)),
    );
    m.set("setup_s", median(&setup_s));
    let set_queries: usize = requests.iter().map(Request::len).sum();
    m.set("qps", set_queries as f64 / (all.iter().sum::<f64>() / 1e3));
    m.set("p50_ms", median(&all));
    let names = ["p99_ms", "p99_ms.interactive", "p99_ms.batch"];
    let mut tail_q = Vec::new();
    for (name, v) in names.into_iter().zip([&all, &interactive, &batch]) {
        let (value, q) = tail(v, 0.99);
        m.set(name, value);
        tail_q.push(q);
    }
    m.set(
        "answered_frac",
        1.0 - run.outcomes.failed_frac().unwrap_or(1.0),
    );
    m.set("failed_frac", run.outcomes.failed_frac().unwrap_or(1.0));
    m.set("mem_peak_mb", peak_rss_mb());
    for name in SERVICE_ONLY {
        m.set(name, 0.0);
    }
    let pass_s: Vec<f64> = run
        .passes
        .iter()
        .map(|p| (p.iter().sum::<f64>() / 1e3 * 100.0).round() / 100.0)
        .collect();
    eprintln!(
        "samples: {} queries over {:.2} s in {} passes of {} distinct requests \
         ({} interactive, {} batch); pass seconds {:?}; host probe ms {:?}; \
         tail percentiles {:?}; setup samples {:?}",
        run.queries,
        run.measured.as_secs_f64(),
        run.passes.len(),
        all.len(),
        interactive.len(),
        batch.len(),
        pass_s,
        run.probes,
        tail_q,
        setup_s,
    );
    Run {
        metrics: m,
        outcomes: run.outcomes,
        mismatches: run.mismatches,
    }
}

/// Metrics of layers this workload does not reach.
const SERVICE_ONLY: &[&str] = &[
    "persist.load_s",
    "service.sojourn_ms.p50",
    "service.sojourn_ms.p99",
    "service.submit_us.p99",
    "service.max_in_flight",
    "service.reject_frac",
    "service.degraded_frac",
    "loadgen.lag_ms.p99",
];

fn cluster_metrics(agg: &ClusterAgg, m: &mut Metrics) {
    for (name, kind) in [
        ("cluster.batch_s.ed", ED),
        ("cluster.batch_s.knn", KNN),
        ("cluster.batch_s.dtw", DTW),
    ] {
        let v: Vec<f64> = agg
            .walls
            .iter()
            .filter(|w| w.0 == kind)
            .map(|w| w.1)
            .collect();
        m.set(name, if v.is_empty() { 0.0 } else { median(&v) });
    }
    let units: Vec<f64> = agg.units.iter().map(|&u| u as f64).collect();
    let mu = mean(&units);
    let (max, min) = units
        .iter()
        .fold((0.0f64, f64::INFINITY), |(a, b), &x| (a.max(x), b.min(x)));
    m.set(
        "cluster.node_imbalance",
        if mu > 0.0 { (max - min) / mu } else { 0.0 },
    );
    let (attempted, successful) = (agg.steals_attempted, agg.steals_successful);
    m.set("cluster.steals_attempted", attempted as f64);
    m.set(
        "cluster.steal_success_ratio",
        if attempted > 0 {
            successful as f64 / attempted as f64
        } else {
            0.0
        },
    );
    m.set(
        "cluster.bsf_broadcasts_per_query",
        agg.broadcasts as f64 / agg.nn_queries.max(1) as f64,
    );
    m.set(
        "cluster.sim_over_wall",
        if agg.nn_wall_s > 0.0 {
            agg.sim_s / agg.nn_wall_s
        } else {
            0.0
        },
    );
}
