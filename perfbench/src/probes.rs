//! Per-layer probes of the traced run: direct calls into the index,
//! search, distance, engine and scheduler layers on one index, each
//! inside a span of its layer.

use crate::inputs::{DTW_WINDOW, K};
use crate::report::Metrics;
use crate::stats::{median, tail};
use crate::trace::Tracer;
use odyssey_core::distance::{dtw_banded, euclidean_sq, keogh_envelope, lb_keogh_sq};
use odyssey_core::index::Index;
use odyssey_core::search::dtw_search::dtw_search;
use odyssey_core::search::engine::{BatchEngine, BatchQuery, QueryKind};
use odyssey_core::search::exact::{exact_search, SearchParams};
use odyssey_core::search::knn::knn_search;
use odyssey_sched::{mape, QueryCostPredictor};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Compute threads every probe may use.
const THREADS: usize = 2;
/// Queries per probe, at most.
const MAX_ED: usize = 48;
const MAX_KNN: usize = 16;
const MAX_DTW: usize = 4;
/// Series per distance-kernel probe pass, and passes.
const KERNEL_SERIES: usize = 4096;
const KERNEL_PASSES: usize = 8;

/// Query sets the probes draw from (the workload's own queries).
pub struct ProbeQueries<'a> {
    /// Euclidean 1-NN queries.
    pub ed: &'a [Vec<f32>],
    /// k-NN queries.
    pub knn: &'a [Vec<f32>],
    /// DTW queries; the ED queries stand in when the workload has none.
    pub dtw: &'a [Vec<f32>],
}

/// Runs every probe on `index` and sets the `approx.*`, `exact.*`,
/// `knn.*`, `dtw.*`, `distance.*`, `engine.*` and `sched.*` metrics.
pub fn run(index: &Arc<Index>, q: &ProbeQueries, tracer: &Tracer, m: &mut Metrics) {
    let ed = &q.ed[..q.ed.len().min(MAX_ED)];
    let knn = &q.knn[..q.knn.len().min(MAX_KNN)];
    let dtw = if q.dtw.is_empty() { q.ed } else { q.dtw };
    let dtw = &dtw[..dtw.len().min(MAX_DTW)];
    let params = SearchParams::new(THREADS);

    // Approximate seed (index layer).
    let approx_us: Vec<f64> = ed
        .iter()
        .map(|query| {
            let t = Instant::now();
            black_box(tracer.span("index", "approx_search", 0, || index.approx_search(query)));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    m.set("approx.us", median(&approx_us));

    // Exact 1-NN search with its work counters.
    let mut exact_ms = Vec::new();
    let (mut lb_node, mut lb_series, mut real, mut trav, mut total) = (0u64, 0u64, 0u64, 0.0, 0.0);
    let mut seed_ratio = Vec::new();
    let mut samples = Vec::new();
    for (i, query) in ed.iter().enumerate() {
        let t = Instant::now();
        let out = tracer.span("search", "exact_search", i as u64, || {
            exact_search(index, query, &params)
        });
        exact_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let s = &out.stats;
        lb_node += s.lb_node_computations;
        lb_series += s.lb_series_computations;
        real += s.real_distance_computations;
        trav += s.traversal_time.as_secs_f64();
        total += s.elapsed.as_secs_f64();
        if out.answer.distance > 0.0 {
            seed_ratio.push(s.initial_bsf / out.answer.distance);
        }
        samples.push((s.initial_bsf, s.elapsed.as_secs_f64()));
    }
    let n = ed.len().max(1) as f64;
    m.set("exact.ms.p50", median(&exact_ms));
    m.set("exact.ms.p99", tail(&exact_ms, 0.99).0);
    m.set("exact.lb_node_per_query", lb_node as f64 / n);
    m.set("exact.lb_series_per_query", lb_series as f64 / n);
    m.set("exact.real_dist_per_query", real as f64 / n);
    m.set(
        "exact.prune_ratio",
        1.0 - real as f64 / (n * index.num_series() as f64),
    );
    m.set(
        "exact.traversal_share",
        if total > 0.0 { trav / total } else { 0.0 },
    );
    m.set(
        "approx.seed_ratio",
        if seed_ratio.is_empty() {
            1.0
        } else {
            median(&seed_ratio)
        },
    );

    // Figure 4's predictor: fit on the first half of the (initial BSF,
    // time) samples, score on the second half.
    let mape_holdout = tracer.span("sched", "predictor_holdout", 0, || {
        let (fit, hold) = samples.split_at(samples.len() / 2);
        if fit.len() < 2 || hold.is_empty() {
            return 0.0;
        }
        let (x, y): (Vec<f64>, Vec<f64>) = fit.iter().copied().unzip();
        mape(&QueryCostPredictor::train(&x, &y), hold).unwrap_or(0.0)
    });
    m.set("sched.mape_holdout", mape_holdout);

    let timed =
        |layer: &'static str, op: &'static str, queries: &[Vec<f32>], f: &dyn Fn(&[f32])| {
            let ms: Vec<f64> = queries
                .iter()
                .enumerate()
                .map(|(i, query)| {
                    let t = Instant::now();
                    tracer.span(layer, op, i as u64, || f(query));
                    t.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            if ms.is_empty() {
                0.0
            } else {
                median(&ms)
            }
        };
    let knn_ms = timed("search", "knn_search", knn, &|query| {
        black_box(knn_search(index, query, K, &params));
    });
    m.set("knn.ms.p50", knn_ms);
    let dtw_ms = timed("search", "dtw_search", dtw, &|query| {
        black_box(dtw_search(index, query, DTW_WINDOW, &params));
    });
    m.set("dtw.ms.p50", dtw_ms);

    // Distance kernels over consecutive indexed series.
    let query = &ed[0];
    let env = keogh_envelope(query, DTW_WINDOW);
    let n_series = index.num_series().min(KERNEL_SERIES);
    let kernel_ns = |op: &'static str, passes: usize, f: &dyn Fn(&[f32]) -> f64| {
        tracer.span("distance", op, 0, || {
            let t = Instant::now();
            let mut acc = 0.0;
            for _ in 0..passes {
                for id in 0..n_series {
                    acc += f(index.series_by_id(id as u32));
                }
            }
            black_box(acc);
            t.elapsed().as_nanos() as f64 / (passes * n_series) as f64
        })
    };
    m.set(
        "distance.ed_ns",
        kernel_ns("euclidean_sq", KERNEL_PASSES, &|s| euclidean_sq(query, s)),
    );
    m.set(
        "distance.lb_series_ns",
        kernel_ns("lb_keogh_sq", KERNEL_PASSES, &|s| {
            lb_keogh_sq(&env, s, f64::INFINITY).unwrap_or(0.0)
        }),
    );
    m.set(
        "distance.dtw_ns",
        kernel_ns("dtw_banded", 1, &|s| {
            dtw_banded(query, s, DTW_WINDOW, f64::INFINITY).unwrap_or(0.0)
        }),
    );

    // The resident-pool engine on the same queries and index.
    let engine = BatchEngine::new(Arc::clone(index), THREADS);
    let batch: Vec<BatchQuery> = ed
        .iter()
        .map(|q| BatchQuery::new(q, QueryKind::Exact))
        .collect();
    let order: Vec<usize> = (0..batch.len()).collect();
    let out = tracer.span("engine", "run_batch", 0, || {
        engine.run_batch(&batch, &order, &params)
    });
    m.set(
        "engine.qps",
        batch.len() as f64 / out.wall.as_secs_f64().max(1e-9),
    );
}
