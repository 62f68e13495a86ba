//! Criterion group for the feedback-stage hot paths — the operations that
//! run once per executed case and used to dominate campaign wall time:
//! n-gram memory probes, affinity analysis, coverage classification
//! (sparse walk vs word scan), the parallel coverage-sync publish, and
//! synthesis against a saturated sequence store.
//!
//! `scripts/check_bench_gate.sh` does not consume these numbers (it gates
//! on the end-to-end ladder in `BENCH_throughput.json` at the repository
//! root); this group exists to localize a regression once the gate trips.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lego::affinity::{corpus_affinities, AffinityMap};
use lego::campaign::FuzzEngine;
use lego::fuzzer::{Config, LegoFuzzer};
use lego::ngram::{pack_window, NgramSet};
use lego::seeds::initial_corpus;
use lego::synthesis::SequenceStore;
use lego_coverage::{CovMap, CovRecorder, CoverageSink, GlobalCoverage, SiteId};
use lego_sqlast::{Dialect, StmtKind};
use std::time::Duration;

/// A deterministic stream of n-gram windows over the full kind alphabet,
/// shaped like real feedback traffic (mostly repeats, few novel keys).
fn window_stream(n: usize) -> Vec<Vec<StmtKind>> {
    let all = StmtKind::all();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    (0..n)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let a = all[(x >> 33) as usize % all.len()];
            let b = all[(x >> 17) as usize % all.len()];
            if x & 1 == 0 {
                vec![a, b]
            } else {
                vec![a, b, all[(x >> 5) as usize % all.len()]]
            }
        })
        .collect()
}

fn run_of(sites: usize, stride: u64) -> CovMap {
    let mut rec = CovRecorder::new();
    for i in 0..sites as u64 {
        rec.hit(SiteId::from_raw(i.wrapping_mul(stride)));
    }
    rec.into_map()
}

fn bench_ngram(c: &mut Criterion) {
    let windows = window_stream(4096);
    c.bench_function("feedback/ngram_insert_4096_windows", |b| {
        b.iter(|| {
            let mut set = NgramSet::new();
            for w in &windows {
                set.insert(pack_window(black_box(w)));
            }
            set.len()
        })
    });
    let mut warm = NgramSet::new();
    for w in &windows {
        warm.insert(pack_window(w));
    }
    c.bench_function("feedback/ngram_probe_4096_windows", |b| {
        b.iter(|| windows.iter().filter(|w| warm.contains(pack_window(black_box(w)))).count())
    });
}

fn bench_affinity(c: &mut Criterion) {
    let corpus = initial_corpus(Dialect::Postgres);
    c.bench_function("feedback/affinity_analyze_seed_corpus", |b| {
        b.iter(|| {
            let mut map = AffinityMap::new();
            let mut found = 0usize;
            for case in &corpus {
                found += map.analyze(black_box(case)).len();
            }
            found
        })
    });
    c.bench_function("feedback/corpus_affinities_seed_corpus", |b| {
        b.iter(|| corpus_affinities(black_box(&corpus)).len())
    });
}

fn bench_classify(c: &mut Criterion) {
    let sparse_run = run_of(300, 2654435761);
    let dense_run = run_of(20_000, 0x9e3779b97f4a7c15);
    let mut warm = GlobalCoverage::new();
    warm.merge(&sparse_run);
    c.bench_function("feedback/merge_sparse_300_edges_warm", |b| {
        // The steady-state path: the run is already covered, merge must
        // answer "nothing new" as fast as possible.
        b.iter(|| {
            let mut g = warm.clone();
            g.merge_sparse(black_box(&sparse_run))
        })
    });
    let mut warm_dense = GlobalCoverage::new();
    warm_dense.merge(&dense_run);
    c.bench_function("feedback/merge_words_dense_warm", |b| {
        b.iter(|| {
            let mut g = warm_dense.clone();
            g.merge_words(black_box(&dense_run))
        })
    });
    let shard = warm_dense.clone();
    c.bench_function("feedback/union_with_dense_shard", |b| {
        b.iter(|| {
            let mut g = GlobalCoverage::new();
            g.union_with(black_box(&shard));
            g.edges_covered()
        })
    });
}

fn bench_sink(c: &mut Criterion) {
    let run = run_of(600, 2654435761);
    c.bench_function("feedback/sink_publish_no_novelty", |b| {
        // The lock-free fast path a worker hits every epoch without new
        // coverage: a 128-word dirty-bitmap scan, zero atomic writes.
        let sink = CoverageSink::new();
        let mut shard = GlobalCoverage::new();
        shard.merge(&run);
        sink.publish_dirty(&mut shard);
        b.iter(|| black_box(sink.publish_dirty(&mut shard)))
    });
    c.bench_function("feedback/sink_publish_fresh_shard", |b| {
        let sink = CoverageSink::new();
        b.iter(|| {
            let mut shard = GlobalCoverage::new();
            shard.merge(black_box(&run));
            sink.publish_dirty(&mut shard)
        })
    });
}

fn bench_engine_feedback(c: &mut Criterion) {
    c.bench_function("feedback/lego_feedback_accepted_case", |b| {
        // Full per-case feedback cost on corpus admission: n-gram recording,
        // affinity analysis, synthesis triggers, pool insert (Arc bump).
        let mut fz = LegoFuzzer::new(Dialect::Postgres, Config::default());
        let mut db = lego_dbms::Dbms::new(Dialect::Postgres);
        let case = fz.next_case();
        db.reset();
        let report = db.execute_case(&case);
        b.iter(|| fz.feedback(black_box(&case), &report, true))
    });
}

fn bench_saturated_store(c: &mut Criterion) {
    // Past the store cap every new affinity used to re-run a full, unpruned
    // Algorithm 3 descent that could record nothing. Fill the store from a
    // dense graph over 24 kinds (346k sequences of length ≤ 5 reachable, above
    // the cap) with one edge held back, then time discovering that edge.
    let kinds: Vec<StmtKind> = StmtKind::all().into_iter().take(24).collect();
    let held_back = (kinds[0], kinds[1]);
    let mut map = AffinityMap::new();
    let mut store = SequenceStore::new(5, &kinds[..1]);
    for &a in &kinds {
        for &b in &kinds {
            if (a, b) != held_back {
                map.insert(a, b);
                store.on_new_affinity(a, b, &map, usize::MAX);
            }
        }
    }
    assert!(store.is_full(), "the dense graph must fill the store ({} sequences)", store.len());
    map.insert(held_back.0, held_back.1);
    let limit = Config::default().synth_limit_per_affinity;
    c.bench_function("feedback/synthesis_saturated_store", |b| {
        b.iter(|| store.on_new_affinity(held_back.0, held_back.1, black_box(&map), limit).len())
    });
}

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .configure_from_args()
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_ngram, bench_affinity, bench_classify, bench_sink, bench_engine_feedback,
        bench_saturated_store
}
criterion_main!(benches);
