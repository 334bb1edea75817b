//! `train-small`: batch training of the paper's model on the small
//! yeast fixture (420 vertices, 720 edges), and the training step the
//! `serve-small` set-up reuses.
//!
//! One training is the program's own entry points, timed as one:
//! `MotifFinder::find` (discovery of sizes 3–8, then uniqueness against
//! 8 null networks), `label_all_namespaces` at σ = 5, the category view,
//! `ModelArtifact::build`, a publish to a fresh `ArtifactStore` and its
//! recovery. After the clock, discovery runs once more through
//! `grow_frequent_subgraphs` for the checks; a traced run also repeats
//! uniqueness and labeling one layer call at a time, so each layer gets
//! its own span.

use crate::trace::{median, percentile, Trace};
use crate::{out_dir, peak_rss_mib, Args, Outcome};
use function_prediction::{
    CategoryView, FunctionPredictor, LabeledMotifPredictor, PredictionContext,
};
use go_ontology::{Namespace, TermId};
use lamo_serve::{read_artifact, write_artifact, ArtifactStore, ModelArtifact};
use lamofinder::{ClusteringConfig, FlatMotifs, LaMoFinder, LaMoFinderConfig, LabeledMotif};
use lamofinder_bench::{finder_config, label_all_namespaces, top_categories, yeast, Scale};
use motif_finder::{
    count_occurrences_capped, grow_frequent_subgraphs, uniqueness_scores, FinderReport,
    GrowthReport, Motif, MotifFinder,
};
use par_util::RunContext;
use ppi_graph::random::degree_preserving_shuffle;
use ppi_graph::{Graph, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::time::Instant;
use synthetic_data::YeastDataset;

/// The paper evaluates against the top 13 functional categories.
pub const N_CATEGORIES: usize = 13;
/// Support threshold σ of the small-scale labeling
/// (`lamofinder_bench::label_namespace` at `Scale::Small`).
const SIGMA: usize = 5;
/// Informative-class threshold at the same scale.
const MIN_DIRECT: usize = 5;
/// Fixture generations timed per run; `setup_s` is their median. One
/// takes about a millisecond, and with the median of 5 runs spread by
/// 25–44%.
const SETUPS: usize = 51;

/// Everything one training produced.
pub struct Trained {
    pub secs: f64,
    pub motifs: Vec<Motif>,
    pub report: FinderReport,
    pub labeled: Vec<LabeledMotif>,
    pub categories: Vec<TermId>,
    pub functions: Vec<Vec<usize>>,
    pub built: ModelArtifact,
    pub recovered: ModelArtifact,
}

/// `lamofinder_bench::label_namespace`'s configuration at `Scale::Small`.
fn label_config(namespace: Namespace) -> LaMoFinderConfig {
    LaMoFinderConfig {
        namespace,
        clustering: ClusteringConfig {
            sigma: SIGMA,
            ..Default::default()
        },
        informative: go_ontology::InformativeConfig {
            min_direct: MIN_DIRECT,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn label_span(namespace: Namespace) -> &'static str {
    match namespace {
        Namespace::BiologicalProcess => "lamofinder.label_motifs.bp",
        Namespace::MolecularFunction => "lamofinder.label_motifs.mf",
        Namespace::CellularComponent => "lamofinder.label_motifs.cc",
    }
}

/// Train from the fixture in memory to a recovered, validated artifact
/// published in a fresh store at `store_dir`.
pub fn train_once(
    data: &YeastDataset,
    store_dir: &Path,
    trace: &mut Trace,
) -> Result<Trained, String> {
    // A previous training's store is removed before the clock starts.
    let _ = std::fs::remove_dir_all(store_dir);
    let start = Instant::now();
    let finder = MotifFinder::new(finder_config(Scale::Small));
    let (motifs, report) = trace.span("motif_finder.MotifFinder::find", || {
        finder.find(&data.network)
    });
    let labeled = trace.span("lamofinder_bench.label_all_namespaces", || {
        label_all_namespaces(&data.ontology, &data.annotations, &motifs, Scale::Small)
    });
    let categories = top_categories(&data.annotations, N_CATEGORIES);
    let view = trace.span("function_prediction.CategoryView::new", || {
        CategoryView::new(&data.ontology, &data.annotations, &categories)
    });
    let ctx = PredictionContext {
        network: &data.network,
        functions: &view.functions,
        n_categories: view.n_categories(),
        category_terms: &view.categories,
    };
    let built = trace.span("lamo_serve.ModelArtifact::build", || {
        ModelArtifact::build(&labeled, &ctx)
    });
    let calm = RunContext::unbounded();
    let store = ArtifactStore::open(store_dir).map_err(|e| format!("store open: {e}"))?;
    trace
        .span("lamo_serve.ArtifactStore::publish", || {
            store.publish(&built, &calm)
        })
        .map_err(|e| format!("store publish: {e}"))?;
    let recovery = trace
        .span("lamo_serve.ArtifactStore::recover", || store.recover())
        .map_err(|e| format!("store recover: {e}"))?;
    recovery
        .artifact
        .validate()
        .map_err(|e| format!("recovered artifact invalid: {e}"))?;
    let secs = start.elapsed().as_secs_f64();

    Ok(Trained {
        secs,
        motifs,
        report,
        labeled,
        categories: view.categories.clone(),
        functions: view.functions,
        built,
        recovered: recovery.artifact,
    })
}

/// Discovery alone, as `MotifFinder::find` runs it, under its own span.
/// Every frequent class, not only the motifs, is needed by the checks.
pub fn rediscover(data: &YeastDataset, trace: &mut Trace) -> GrowthReport {
    trace.span("motif_finder.grow_frequent_subgraphs", || {
        grow_frequent_subgraphs(&data.network, &finder_config(Scale::Small).growth)
    })
}

/// Generate the small fixture, timed under the synthetic-data span.
pub fn small_fixture(trace: &mut Trace) -> (YeastDataset, f64) {
    let t = Instant::now();
    let data = yeast(Scale::Small);
    let secs = t.elapsed().as_secs_f64();
    trace.record("synthetic_data.YeastDataset::generate", t, secs);
    (data, secs)
}

pub fn run(args: &Args, trace: &mut Trace) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut fixture = None;
    for _ in 0..SETUPS {
        let (data, secs) = small_fixture(trace);
        setup_times.push(secs);
        fixture = Some(data);
    }
    let data = fixture.expect("SETUPS > 0");
    let store_dir = out_dir().join(format!("train-store-{}", std::process::id()));

    let mut train_times = Vec::new();
    let mut last = None;
    for _ in 0..crate::planned_rounds(args.seconds) {
        // Only the newest training is kept for the checks; its
        // predecessor is freed before the next one starts.
        last = None;
        crate::release_free_memory();
        out.attempted += 1;
        match train_once(&data, &store_dir, trace) {
            Ok(t) => {
                train_times.push(t.secs);
                last = Some(t);
            }
            Err(e) => {
                out.failed += 1;
                out.problems.push(e);
                break;
            }
        }
    }
    let peak = peak_rss_mib();
    let _ = std::fs::remove_dir_all(&store_dir);

    out.metric("setup_s", median(&setup_times));
    out.metric("peak_rss_mib", peak);
    let mut millis: Vec<f64> = train_times.iter().map(|s| s * 1e3).collect();
    millis.sort_unstable_by(f64::total_cmp);
    // A run makes a few trainings (3 at 15 s), which have no tail: the
    // tail metric is their median.
    let p50 = percentile(&millis, 0.5);
    out.ops(
        millis.len() as f64 / train_times.iter().sum::<f64>(),
        p50,
        p50,
    );
    if let Some(trained) = last {
        check_and_split(&data, &trained, trace, &mut out);
    }
    out
}

/// The batch-training probe of a traced run whose workload trains
/// nothing in batch (`revise-yeast`): one training on the small fixture,
/// checked and split by layer as `train-small` does it.
pub fn probe(out: &mut Outcome) {
    let mut trace = Trace::new(true);
    let (data, _) = small_fixture(&mut trace);
    let store_dir = out_dir().join(format!("probe-store-{}", std::process::id()));
    let trained = train_once(&data, &store_dir, &mut trace);
    let _ = std::fs::remove_dir_all(&store_dir);
    match trained {
        Ok(t) => check_and_split(&data, &t, &mut trace, out),
        Err(e) => out.problems.push(e),
    }
}

/// After the clock: the training's output checks and, when tracing,
/// its per-layer split and direct predictions for every protein.
fn check_and_split(data: &YeastDataset, trained: &Trained, trace: &mut Trace, out: &mut Outcome) {
    let growth = rediscover(data, trace);
    check_training(data, trained, &growth, out);
    if trace.enabled() {
        training_layers(data, trained, &growth, trace, out);
        let (ranks_ok, predict_us, postings) =
            direct_predictions(&trained.recovered, 0..data.network.vertex_count());
        out.check(ranks_ok, || {
            "direct predictions returned a short ranking".into()
        });
        out.layer("function_prediction.predict_p50_us", predict_us.0);
        out.layer("function_prediction.predict_p99_us", predict_us.1);
        out.layer("function_prediction.postings_per_read_p50", postings.0);
        out.layer("function_prediction.postings_per_read_p99", postings.1);
    }
}

/// Triangles and induced open 3-paths, counted from the adjacency.
fn size3_counts(g: &Graph) -> (usize, usize) {
    let mut triangles = 0usize;
    let mut wedges = 0usize;
    for v in 0..g.vertex_count() {
        let nv = g.neighbors(VertexId(v as u32));
        wedges += nv.len() * nv.len().saturating_sub(1) / 2;
        for &u in nv.iter().filter(|&&u| u as usize > v) {
            let nu = g.neighbors(VertexId(u));
            // Common neighbours w > u, by a sorted merge.
            let (mut i, mut j) = (0, 0);
            while i < nv.len() && j < nu.len() {
                match nv[i].cmp(&nu[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        triangles += usize::from(nv[i] > u);
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
    }
    // Each triangle closes three wedges.
    (triangles, wedges - 3 * triangles)
}

/// Rank a score row by descending score, ascending category on ties.
pub fn rank_row(scores: &[f64]) -> Vec<(u32, f64)> {
    let mut ranked: Vec<(u32, f64)> = scores
        .iter()
        .enumerate()
        .map(|(c, &s)| (c as u32, s))
        .collect();
    ranked.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("finite scores")
            .then(a.0.cmp(&b.0))
    });
    ranked
}

/// Bitwise equality of two rankings.
pub fn same_ranking(a: &[(u32, f64)], b: &[(u32, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

fn check_training(data: &YeastDataset, t: &Trained, growth: &GrowthReport, out: &mut Outcome) {
    let (triangles, paths) = size3_counts(&data.network);
    let mut size3: Vec<(usize, usize)> = growth
        .classes
        .iter()
        .filter(|c| c.pattern.vertex_count() == 3)
        .map(|c| (c.pattern.edge_count(), c.frequency))
        .collect();
    size3.sort_unstable();
    out.check(size3 == vec![(2, paths), (3, triangles)], || {
        format!("size-3 class frequencies {size3:?}; adjacency gives {paths} open paths, {triangles} triangles")
    });
    // The trained motifs are frequent classes of that same discovery.
    out.check(t.report.frequent_classes == growth.classes.len(), || {
        format!(
            "find() saw {} frequent classes, discovery alone {}",
            t.report.frequent_classes,
            growth.classes.len()
        )
    });
    let strays = t
        .motifs
        .iter()
        .filter(|m| {
            !growth.classes.iter().any(|c| {
                c.pattern == m.pattern
                    && c.frequency == m.frequency
                    && c.occurrences == m.occurrences
            })
        })
        .count();
    out.check(strays == 0, || {
        format!("{strays} motifs are not frequent classes of the discovery")
    });
    let threshold = finder_config(Scale::Small).uniqueness_threshold;
    for m in &t.motifs {
        let u = m.uniqueness.unwrap_or(-1.0);
        out.check((threshold..=1.0).contains(&u), || {
            format!("motif uniqueness {u} outside [{threshold}, 1]")
        });
    }
    for lm in &t.labeled {
        out.check(lm.support() >= SIGMA, || {
            format!("labeled motif support {} < σ = {SIGMA}", lm.support())
        });
    }
    out.check(t.recovered == t.built, || {
        "recovered artifact differs from the built one".into()
    });
    out.check(t.recovered.validate().is_ok(), || {
        "recovered artifact fails validate()".into()
    });

    // Full-scan Eq. 5 for every protein, ranked here, bit for bit.
    let ctx = PredictionContext {
        network: &data.network,
        functions: &t.functions,
        n_categories: t.categories.len(),
        category_terms: &t.categories,
    };
    let oracle = LabeledMotifPredictor::new(t.labeled.clone()).predict_all(&ctx);
    let mut scratch = function_prediction::PredictScratch::new();
    let mismatches = (0..data.network.vertex_count())
        .filter(|&p| {
            !same_ranking(
                t.recovered.predict_into(p, &mut scratch).0,
                &rank_row(&oracle[p]),
            )
        })
        .count();
    out.check(mismatches == 0, || {
        format!("{mismatches} proteins rank differently from the full scan")
    });
}

/// Time `predict_into` on `proteins` against `artifact`: returns
/// (every ranking full length, (p50, p99) µs, (p50, p99) postings).
pub fn direct_predictions(
    artifact: &ModelArtifact,
    proteins: impl IntoIterator<Item = usize>,
) -> (bool, (f64, f64), (f64, f64)) {
    let mut scratch = function_prediction::PredictScratch::new();
    let mut micros = Vec::new();
    let mut postings = Vec::new();
    let mut ok = true;
    for p in proteins {
        let t = Instant::now();
        let (ranked, consumed) = artifact.predict_into(p, &mut scratch);
        micros.push(t.elapsed().as_secs_f64() * 1e6);
        ok &= ranked.len() == artifact.n_categories();
        postings.push(consumed as f64);
    }
    micros.sort_unstable_by(f64::total_cmp);
    postings.sort_unstable_by(f64::total_cmp);
    (
        ok,
        (percentile(&micros, 0.5), percentile(&micros, 0.99)),
        (percentile(&postings, 0.5), percentile(&postings, 0.99)),
    )
}

/// Per-layer metrics of the training step. The measured trainings
/// call `MotifFinder::find` and `label_all_namespaces` whole; here
/// uniqueness and each namespace's labeling run again one layer call at
/// a time on `growth` (the discovery [`rediscover`] repeated), and must
/// give the trained motifs and labels back.
pub fn training_layers(
    data: &YeastDataset,
    t: &Trained,
    growth: &GrowthReport,
    trace: &mut Trace,
    out: &mut Outcome,
) {
    let config = finder_config(Scale::Small);
    let patterns: Vec<(&Graph, usize)> = growth
        .classes
        .iter()
        .map(|c| (&c.pattern, c.frequency))
        .collect();
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let scores = trace.span("motif_finder.uniqueness_scores", || {
        uniqueness_scores(&data.network, &patterns, &config.uniqueness, &mut rng)
    });
    let kept: Vec<(&Graph, usize, f64)> = patterns
        .iter()
        .zip(&scores)
        .filter(|(_, &s)| s >= config.uniqueness_threshold)
        .map(|(&(g, f), &s)| (g, f, s))
        .collect();
    let same_motifs = kept.len() == t.motifs.len()
        && kept
            .iter()
            .zip(&t.motifs)
            .all(|(k, m)| *k.0 == m.pattern && k.1 == m.frequency && Some(k.2) == m.uniqueness);
    out.check(same_motifs, || {
        "uniqueness_scores on the discovery does not give find()'s motifs".into()
    });

    let mut labeled = Vec::new();
    let mut sv_plane_pairs = 0;
    for namespace in Namespace::ALL {
        let labeler = trace.span("lamofinder.LaMoFinder::new", || {
            LaMoFinder::new(&data.ontology, &data.annotations, label_config(namespace))
        });
        labeled.extend(trace.span(label_span(namespace), || labeler.label_motifs(&t.motifs)));
        sv_plane_pairs += labeler.kernel_stats().sv_plane_pairs;
    }
    out.check(
        FlatMotifs::from_motifs(&labeled) == FlatMotifs::from_motifs(&t.labeled),
        || "per-namespace labeling differs from label_all_namespaces".into(),
    );

    let (null_tests, undecided) = recount_null_tests(data, &patterns, &scores, out);
    out.layer(
        "synthetic_data.generate_s",
        trace.median("synthetic_data.YeastDataset::generate"),
    );
    out.layer(
        "motif_finder.grow_s",
        trace.median("motif_finder.grow_frequent_subgraphs"),
    );
    out.layer(
        "motif_finder.frequent_classes",
        t.report.frequent_classes as f64,
    );
    out.layer(
        "motif_finder.truncated_levels",
        t.report.truncated_levels.len() as f64,
    );
    out.layer(
        "motif_finder.uniqueness_s",
        trace.median("motif_finder.uniqueness_scores"),
    );
    out.layer("motif_finder.null_tests", null_tests as f64);
    out.layer("motif_finder.null_tests_undecided", undecided as f64);
    out.layer("motif_finder.motifs", t.motifs.len() as f64);
    // The three labelers of one training, together.
    let new_s: f64 = trace.durations("lamofinder.LaMoFinder::new").iter().sum();
    out.layer("lamofinder.new_s", new_s);
    out.layer(
        "lamofinder.label_s.bp",
        trace.median("lamofinder.label_motifs.bp"),
    );
    out.layer(
        "lamofinder.label_s.mf",
        trace.median("lamofinder.label_motifs.mf"),
    );
    out.layer(
        "lamofinder.label_s.cc",
        trace.median("lamofinder.label_motifs.cc"),
    );
    out.layer("lamofinder.labeled_motifs", t.labeled.len() as f64);
    out.layer("lamofinder.sv_plane_pairs", sv_plane_pairs as f64);
    out.layer(
        "function_prediction.category_view_s",
        trace.median("function_prediction.CategoryView::new"),
    );
    out.layer(
        "lamo_serve.artifact_build_s",
        trace.median("lamo_serve.ModelArtifact::build"),
    );
    out.layer(
        "lamo_serve.store_publish_p50_ms",
        trace.median("lamo_serve.ArtifactStore::publish") * 1e3,
    );
    out.layer(
        "lamo_serve.store_recover_ms",
        trace.median("lamo_serve.ArtifactStore::recover") * 1e3,
    );
    let (bytes, encode_ms, decode_ms) = codec_times(&t.recovered);
    out.layer("lamo_serve.artifact_bytes", bytes as f64);
    out.layer("lamo_serve.encode_ms", encode_ms);
    out.layer("lamo_serve.decode_ms", decode_ms);
}

/// Median encode and decode times of `artifact` over a few repetitions,
/// with its encoded size.
pub fn codec_times(artifact: &ModelArtifact) -> (usize, f64, f64) {
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    let mut size = 0;
    for _ in 0..5 {
        let t = Instant::now();
        let bytes = write_artifact(artifact);
        encode.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let back = read_artifact(&bytes);
        decode.push(t.elapsed().as_secs_f64() * 1e3);
        assert!(back.is_ok(), "an encoded artifact decodes");
        size = bytes.len();
    }
    (size, median(&encode), median(&decode))
}

/// Re-run the uniqueness test through the public shuffle and capped
/// count, with the null seeds `uniqueness_scores` draws from the finder
/// seed. Counts the tests that ran out of node budget without reaching
/// the cap, and checks every class's score against the recounted wins.
/// Returns `(tests, undecided)`.
fn recount_null_tests(
    data: &YeastDataset,
    patterns: &[(&Graph, usize)],
    scores: &[f64],
    out: &mut Outcome,
) -> (usize, usize) {
    let config = finder_config(Scale::Small).uniqueness;
    let mut rng = SmallRng::seed_from_u64(finder_config(Scale::Small).seed);
    let seeds: Vec<u64> = (0..config.n_random).map(|_| rng.gen()).collect();
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(seeds.len());
    // Per worker: wins per class and undecided tests.
    let partials: Vec<(Vec<usize>, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let (seeds, config, network) = (&seeds, &config, &data.network);
                scope.spawn(move || {
                    let mut wins = vec![0usize; patterns.len()];
                    let mut undecided = 0usize;
                    for &seed in seeds.iter().skip(w).step_by(threads) {
                        let mut null_rng = SmallRng::seed_from_u64(seed);
                        let null = degree_preserving_shuffle(
                            network,
                            config.swaps_per_edge,
                            &mut null_rng,
                        );
                        for (i, &(pattern, freq)) in patterns.iter().enumerate() {
                            let r = count_occurrences_capped(
                                &null,
                                pattern,
                                freq + 1,
                                config.node_budget,
                            );
                            wins[i] += usize::from(r.count <= freq);
                            undecided += usize::from(r.budget_exhausted && r.count <= freq);
                        }
                    }
                    (wins, undecided)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("recount worker"))
            .collect()
    });
    let mut undecided = 0;
    let mut wins = vec![0usize; patterns.len()];
    for (w, u) in partials {
        undecided += u;
        wins.iter_mut().zip(w).for_each(|(a, b)| *a += b);
    }
    let off = scores
        .iter()
        .zip(&wins)
        .filter(|(&score, &w)| score != w as f64 / config.n_random as f64)
        .count();
    out.check(off == 0, || {
        format!("{off} uniqueness scores disagree with the null-network recount")
    });
    (patterns.len() * seeds.len(), undecided)
}
