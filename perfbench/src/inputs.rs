//! Seeded inputs and the brute-force oracle every answer is checked
//! against.

use odyssey_core::index::Index;
use odyssey_core::search::dtw_search::dtw_brute_force;
use odyssey_core::search::engine::{BatchAnswer, QueryKind};
use odyssey_core::search::knn::knn_brute_force;
use odyssey_core::series::DatasetBuffer;
use odyssey_workloads::{noisy_walk, QueryWorkload, WorkloadKind};

/// Length of every series and query.
pub const SERIES_LEN: usize = 128;
/// iSAX segments of every index.
pub const SEGMENTS: usize = 16;
/// Leaf capacity of every index.
pub const LEAF_CAPACITY: usize = 256;
/// Neighbours of every k-NN query.
pub const K: usize = 10;
/// Sakoe-Chiba half-width of every DTW query (5% of the length).
pub const DTW_WINDOW: usize = 6;
/// Noise of the near-duplicate DTW queries.
pub const DTW_NOISE: f32 = 0.005;

/// Relative tolerance when comparing a distance with the oracle's.
const TOLERANCE: f64 = 1e-6;

/// A derived seed for one input stream of a run (splitmix64).
pub fn subseed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seismic-like collection of `n` series, generated in two halves on
/// two threads.
pub fn dataset(n: usize, seed: u64) -> DatasetBuffer {
    let half = n / 2;
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| noisy_walk(half, SERIES_LEN, subseed(seed, 1)));
        let b = noisy_walk(n - half, SERIES_LEN, subseed(seed, 2));
        (a.join().expect("generator thread"), b)
    });
    let mut raw = a.raw().to_vec();
    raw.extend_from_slice(b.raw());
    DatasetBuffer::from_vec(raw, SERIES_LEN)
}

/// Draws queries of one difficulty: `Hard` (independent white noise,
/// pruning collapses) or near-duplicates of indexed series with the
/// given noise.
pub struct QueryPool {
    rows: QueryWorkload,
    next: usize,
}

impl QueryPool {
    /// `n` queries of `kind` over `data`.
    pub fn new(data: &DatasetBuffer, n: usize, kind: WorkloadKind, seed: u64) -> Self {
        QueryPool {
            rows: QueryWorkload::generate(data, n, kind, seed),
            next: 0,
        }
    }

    /// The next unused query.
    pub fn take(&mut self) -> Vec<f32> {
        let q = self.rows.query(self.next).to_vec();
        self.next += 1;
        q
    }
}

/// `hard + easy` queries drawn from the two pools, the hard ones
/// spread evenly through the batch.
pub fn stratified(
    hard: usize,
    easy: usize,
    hard_pool: &mut QueryPool,
    easy_pool: &mut QueryPool,
) -> Vec<Vec<f32>> {
    let n = hard + easy;
    (0..n)
        .map(|i| {
            // Position i is hard when it crosses a multiple of n/hard.
            let is_hard = hard > 0 && (i * hard) / n != ((i + 1) * hard) / n;
            if is_hard {
                hard_pool.take()
            } else {
                easy_pool.take()
            }
        })
        .collect()
}

/// The oracle's distances: one for 1-NN queries, `k` for k-NN.
pub type Expected = Vec<f64>;

/// Brute-force answer of `query` under `kind` over `index`.
pub fn brute_force(index: &Index, query: &[f32], kind: QueryKind) -> Expected {
    match kind {
        QueryKind::Exact => vec![index.brute_force(query).distance],
        QueryKind::Knn(k) => knn_brute_force(index, query, k)
            .neighbors
            .iter()
            .map(|&(d_sq, _)| d_sq.sqrt())
            .collect(),
        QueryKind::Dtw(w) => vec![dtw_brute_force(index, query, w).distance],
    }
}

/// Brute-force answers of every `(query, kind)`, on two threads.
pub fn brute_force_all(index: &Index, queries: &[(&[f32], QueryKind)]) -> Vec<Expected> {
    let mid = queries.len() / 2;
    let (lo, hi) = queries.split_at(mid);
    let run = |part: &[(&[f32], QueryKind)]| -> Vec<Expected> {
        part.iter()
            .map(|&(q, kind)| brute_force(index, q, kind))
            .collect()
    };
    std::thread::scope(|s| {
        let a = s.spawn(|| run(lo));
        let b = run(hi);
        let mut out = a.join().expect("oracle thread");
        out.extend(b);
        out
    })
}

/// Distances of a program answer, in the oracle's shape.
pub fn distances(answer: &BatchAnswer) -> Vec<f64> {
    match answer {
        BatchAnswer::Nn(a) => vec![a.distance],
        BatchAnswer::Knn(k) => k.neighbors.iter().map(|&(d_sq, _)| d_sq.sqrt()).collect(),
    }
}

/// Whether `got` matches the oracle distance by distance. Ids are not
/// compared: equal distances may legitimately resolve to either id.
pub fn matches(got: &[f64], want: &Expected) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| (g - w).abs() <= TOLERANCE * w.abs().max(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stratified_spreads_hard_queries() {
        let data = dataset(64, 3);
        let mut hard = QueryPool::new(&data, 8, WorkloadKind::Hard, 1);
        let mut easy = QueryPool::new(&data, 8, WorkloadKind::Easy { noise: 0.0 }, 2);
        let batch = stratified(2, 6, &mut hard, &mut easy);
        assert_eq!(batch.len(), 8);
        assert_eq!((hard.next, easy.next), (2, 6));
    }

    #[test]
    fn oracle_agrees_with_itself_and_rejects_wrong_answers() {
        let data = dataset(400, 5);
        let index = Index::build(
            data.clone(),
            odyssey_core::IndexConfig::new(SERIES_LEN)
                .with_segments(SEGMENTS)
                .with_leaf_capacity(32),
            1,
        );
        let q = data.series(17).to_vec();
        let all = brute_force_all(
            &index,
            &[
                (&q, QueryKind::Exact),
                (&q, QueryKind::Knn(3)),
                (&q, QueryKind::Dtw(DTW_WINDOW)),
            ],
        );
        assert_eq!(all[0], vec![0.0]);
        assert_eq!(all[1].len(), 3);
        assert_eq!(all[2], vec![0.0]);
        assert!(matches(&[0.0], &all[0]));
        assert!(!matches(&[0.01], &all[0]));
        assert!(!matches(&all[1][..2], &all[1]));
    }

    #[test]
    fn dataset_is_seeded() {
        assert_eq!(dataset(10, 9).raw(), dataset(10, 9).raw());
        assert_ne!(dataset(10, 9).raw(), dataset(10, 8).raw());
        assert_ne!(subseed(1, 1), subseed(1, 2));
    }
}
