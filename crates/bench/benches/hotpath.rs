//! Criterion microbenchmarks of the evaluation hot path: the exact
//! per-evaluation operations the SURF search loop performs millions of
//! times — config decode, kernel timing, memoized evaluation — each with
//! the allocating or unmemoized baseline next to the fast path, so
//! regressions in either show up as a ratio, not just a number; the
//! surrogate's pool scoring, one-shot and per round; and the rest of a
//! cold tce search's surrogate work: one tune's eight forest refits, and
//! its pool transposed from configuration codes next to the row path.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use barracuda::prelude::*;
use barracuda::{EvalCache, TunerEvaluator};
use surf::{ExtraTrees, ForestParams, ParallelEvaluator, SurfParams, TransposedPool};

fn bench_config_decode(c: &mut Criterion) {
    let w = kernels::table2_benchmarks()
        .into_iter()
        .find(|w| w.name == "tce")
        .unwrap();
    let tuner = WorkloadTuner::build(&w);
    let st = &tuner.statements[0];
    let total: u128 = st.total();

    // Allocating baseline: a fresh Configuration per id.
    c.bench_function("hotpath/decode_alloc_tce_statement", |b| {
        let mut i = 0u128;
        b.iter(|| {
            i = (i + 7919) % total;
            black_box(st.decode(black_box(i)))
        })
    });

    // Zero-allocation path used by the memoized evaluator: raw version
    // split plus mixed-radix digits into a reused scratch vector.
    c.bench_function("hotpath/decode_zero_alloc_tce_statement", |b| {
        let mut i = 0u128;
        let mut choices: Vec<usize> = Vec::new();
        b.iter(|| {
            i = (i + 7919) % total;
            let (v, local) = st.decode_raw(black_box(i));
            st.variants[v].space.choices_into(local, &mut choices);
            black_box((v, choices.len()))
        })
    });
}

fn bench_kernel_timing(c: &mut Criterion) {
    let w = kernels::lg3(12, 512);
    let tuner = WorkloadTuner::build(&w);
    let st = &tuner.statements[0];
    let space = &st.variants[0].space;
    let cfg = space.config(0);
    let kernels = tcr::mapping::map_program(&st.variants[0].program, space, &cfg, false)
        .unwrap_or_else(|e| panic!("config 0 must map: {e}"));
    let arch = gpusim::k20();

    // Full breakdown: clones the kernel name and builds a KernelTiming.
    c.bench_function("hotpath/time_kernel_breakdown", |b| {
        b.iter(|| {
            black_box(gpusim::time_kernel(
                black_box(&kernels[0]),
                black_box(&arch),
            ))
        })
    });

    // Fast path the per-op memo layer stores: just the seconds.
    c.bench_function("hotpath/kernel_time_s_fast", |b| {
        b.iter(|| {
            black_box(gpusim::kernel_time_s(
                black_box(&kernels[0]),
                black_box(&arch),
            ))
        })
    });
}

fn bench_predict(c: &mut Criterion) {
    // Forest and pool shaped like a real SURF iteration on eqn1.
    let w = kernels::eqn1(10);
    let tuner = WorkloadTuner::build(&w);
    let arch = gpusim::gtx980();
    let pool = tuner.pool(512, 3);
    let xs: Vec<Vec<f64>> = pool.iter().map(|&id| tuner.features(id)).collect();
    let ys: Vec<f64> = pool
        .iter()
        .map(|&id| tuner.gpu_seconds(id, &arch))
        .collect();
    let params = ForestParams {
        n_trees: 30,
        min_samples_leaf: 2,
        k_features: Some(48),
        seed: 1,
    };
    let model = ExtraTrees::fit(&xs, &ys, params);

    // One-shot path: `predict_batch` transposes the rows into a fresh
    // pool and scores every row by partition.
    c.bench_function("hotpath/predict_batch_512", |b| {
        b.iter(|| black_box(model.predict_batch(black_box(&xs))))
    });

    // Search-loop path: the pool is transposed once, outside the rounds,
    // and each round re-scores the rows still remaining with the round's
    // forest. A round leaves ten rows fewer, as a batch of ten would,
    // until the set is refilled.
    let transposed = TransposedPool::from_rows(xs.len(), &xs);
    let all: Vec<u32> = (0..xs.len() as u32).collect();
    c.bench_function("hotpath/round_partition_shrinking_512", |b| {
        let mut live = all.len();
        let mut out: Vec<f64> = Vec::new();
        b.iter(|| {
            live = if live > 10 { live - 10 } else { all.len() };
            model.predict_rows(black_box(&transposed), black_box(&all[..live]), &mut out);
            black_box(out.len())
        })
    });
}

fn bench_memoized_eval(c: &mut Criterion) {
    let w = kernels::table2_benchmarks()
        .into_iter()
        .find(|w| w.name == "tce")
        .unwrap();
    let tuner = WorkloadTuner::build(&w);
    let arch = gpusim::k20();
    let total = tuner.total_space();

    // Unmemoized whole-configuration evaluation (map + validate + time).
    c.bench_function("hotpath/eval_tce_unmemoized", |b| {
        let mut i = 0u128;
        b.iter(|| {
            i = (i + 104_729) % total;
            black_box(tuner.gpu_seconds(black_box(i), &arch))
        })
    });

    // Same ids through the per-op memo layer with a warm cache: every op
    // digit has been seen, so the evaluation is pure cache hits plus a sum.
    let cache = EvalCache::new();
    let ids: Vec<u128> = (0..256u128).map(|k| (k * 104_729) % total).collect();
    for &id in &ids {
        let _ = tuner.try_gpu_seconds_memo(id, &arch, &cache);
    }
    c.bench_function("hotpath/eval_tce_memoized_warm", |b| {
        let mut k = 0usize;
        b.iter(|| {
            k = (k + 1) % ids.len();
            black_box(
                tuner
                    .try_gpu_seconds_memo(black_box(ids[k]), &arch, &cache)
                    .ok(),
            )
        })
    });
}

fn bench_fit_and_pool(c: &mut Criterion) {
    // A captured tce training set: the first 120 evaluations of a
    // paper-parameter search over its 20,000-id pool.
    let w = kernels::builtin("tce").unwrap();
    let tuner = WorkloadTuner::build(&w);
    let arch = gpusim::k20();
    let params = TuneParams::paper();
    let cache = EvalCache::new();
    let evaluator = TunerEvaluator::new(&tuner, &arch, &cache, &params);
    let pool = tuner.pool(params.pool_cap, params.seed);
    let surf_params = SurfParams {
        max_evals: 120,
        patience: None,
        ..params.surf
    };
    let run = surf::surf_search_serial(&pool, &evaluator, surf_params).unwrap();
    let xs: Vec<Vec<f64>> = run
        .evaluated
        .iter()
        .map(|&(id, _)| tuner.features(id))
        .collect();
    let ys: Vec<f64> = run.evaluated.iter().map(|&(_, y)| y).collect();

    // One 130-evaluation tune's refits: the paper forest on the first 50,
    // 60, ..., 120 samples.
    c.bench_function("hotpath/fit_tce_eight_refits", |b| {
        b.iter(|| {
            for n in (50..=120).step_by(10) {
                black_box(ExtraTrees::fit(&xs[..n], &ys[..n], params.surf.forest));
            }
        })
    });

    // The pool the first scoring pass transposes: written from the ids'
    // configuration codes, and the row path that featurizes every id and
    // transposes the rows.
    c.bench_function("hotpath/pool_tce_20k_from_codes", |b| {
        b.iter(|| black_box(evaluator.transposed_pool(black_box(&pool))))
    });
    c.bench_function("hotpath/pool_tce_20k_from_rows", |b| {
        b.iter(|| {
            let rows = black_box(&pool).iter().map(|&id| evaluator.features(id));
            black_box(TransposedPool::from_rows(pool.len(), rows))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets =
    bench_config_decode,
    bench_kernel_timing,
    bench_predict,
    bench_memoized_eval,
    bench_fit_and_pool,
}
criterion_main!(benches);
