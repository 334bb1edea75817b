//! `serve-small`: the model `train-small` builds, trained during set-up
//! and served from a one-worker `Server` to one closed-loop caller.
//!
//! Set-up (timed `SETUPS` times; `setup_s` is the median) is training,
//! publish, recover and server start. The caller then replays a fixed
//! round of reads (seeded shuffles of every protein, see
//! [`read_sequence`]) until the run's seconds are spent, timing every
//! request. Every answer is compared bit for bit with `predict_into` on
//! the same artifact, computed before the clock starts. The caller and
//! the worker are pinned to one core.

use crate::trace::{Rounds, Trace};
use crate::train::{
    direct_predictions, rediscover, same_ranking, small_fixture, train_once, training_layers,
};
use crate::{out_dir, peak_rss_mib, Args, Outcome};
use lamo_serve::{ServeConfig, Server};
use par_util::RunContext;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Trainings timed per run.
const SETUPS: usize = 2;
/// Requests per round (at least); every run replays whole rounds.
const ROUND: usize = 4096;

pub fn run(args: &Args, trace: &mut Trace) -> Outcome {
    let mut out = Outcome::default();
    let store_dir = out_dir().join(format!("serve-store-{}", std::process::id()));
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut served = None;
    for _ in 0..SETUPS {
        // Drop the previous set-up's server before timing the next one.
        drop(served.take());
        crate::release_free_memory();
        crate::unpin_current_thread();
        let start = Instant::now();
        let (data, _) = small_fixture(trace);
        let trained = match train_once(&data, &store_dir, trace) {
            Ok(t) => t,
            Err(e) => {
                out.attempted += 1;
                out.failed += 1;
                out.problems.push(e);
                return out;
            }
        };
        let artifact = Arc::new(trained.recovered.clone());
        // The caller (this thread) and the worker share one core, so a
        // read's hand-off is a context switch, not a cross-core wake-up
        // whose cost depends on how idle the other core is.
        crate::pin_current_thread(0);
        let server = Server::start(
            Arc::clone(&artifact),
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            Arc::new(RunContext::unbounded()),
        );
        setup_times.push(start.elapsed().as_secs_f64());
        served = Some((data, trained, artifact, server));
    }
    let _ = std::fs::remove_dir_all(&store_dir);
    let (data, trained, artifact, server) = served.expect("SETUPS > 0");

    let proteins = read_sequence(artifact.protein_count(), ROUND, args.seed);
    let mut scratch = function_prediction::PredictScratch::new();
    let expected: Vec<Vec<(u32, f64)>> = proteins
        .iter()
        .map(|&p| artifact.predict_into(p, &mut scratch).0.to_vec())
        .collect();

    let mut latencies = Rounds::default();
    let mut wrong = 0u64;
    let clock = Instant::now();
    while latencies.samples == 0 || clock.elapsed().as_secs_f64() < args.seconds {
        for (&p, want) in proteins.iter().zip(&expected) {
            let t = Instant::now();
            let answer = server.query(p);
            latencies.push(t.elapsed().as_secs_f64() * 1e6);
            match answer {
                Ok(got) if got.epoch == 0 && same_ranking(&got.ranked, want) => {}
                Ok(_) => wrong += 1,
                Err(_) => out.failed += 1,
            }
        }
        latencies.end_round();
    }
    crate::unpin_current_thread();
    let peak = peak_rss_mib();
    let stats = server.stats();
    server.shutdown();

    let reads = latencies.samples;
    out.attempted += reads;
    out.check(wrong == 0, || {
        format!("{wrong} served answers differ from predict_into")
    });
    out.check(stats.answered == reads - out.failed, || {
        format!("server answered {} of {reads} reads", stats.answered)
    });
    let read_p50 = latencies.p50();
    out.metric("setup_s", crate::trace::median(&setup_times));
    out.metric("peak_rss_mib", peak);
    // The operation is one read.
    out.ops(latencies.rate(), read_p50 / 1e3, latencies.p99() / 1e3);

    if trace.enabled() {
        let growth = rediscover(&data, trace);
        training_layers(&data, &trained, &growth, trace, &mut out);
        let (ok, predict_us, postings) = direct_predictions(&artifact, proteins.iter().copied());
        out.check(ok, || "direct predictions returned a short ranking".into());
        out.layer("function_prediction.predict_p50_us", predict_us.0);
        out.layer("function_prediction.predict_p99_us", predict_us.1);
        out.layer("function_prediction.postings_per_read_p50", postings.0);
        out.layer("function_prediction.postings_per_read_p99", postings.1);
        out.layer("par_util.handoff_p50_us", read_p50 - predict_us.0);
        out.layer("lamo_serve.answered", stats.answered as f64);
        out.layer("lamo_serve.swaps", stats.swaps as f64);
    }
    out
}

/// A uniform read sequence: whole seeded shuffles of every protein,
/// at least `min_len` reads long. Each protein is read equally often,
/// so the tail percentiles always fall on the same hub proteins and the
/// seed changes only the order.
pub fn read_sequence(proteins: usize, min_len: usize, seed: u64) -> Vec<usize> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(min_len + proteins);
    while out.len() < min_len {
        let mut pass: Vec<usize> = (0..proteins).collect();
        for i in (1..pass.len()).rev() {
            pass.swap(i, rng.gen_range(0..=i));
        }
        out.extend(pass);
    }
    out
}
