//! End-to-end benchmark for the trained, served and revised LaMoFinder
//! model. See README.md for the workloads, metrics and checks.
//!
//! ```text
//! lamobench --workload <train-small|serve-small|revise-yeast>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones, and the line before it carries the end-to-end
//! metrics measured with tracing on. Spans go to
//! `target/lamobench/trace-<workload>.json`.
//!
//! Every workload reports every metric of both lists. The end-to-end
//! ones are the workload's set-up, memory and its own operation (a
//! training, a read or a revision). A per-layer metric of a layer the
//! workload does not exercise comes from a probe run after the clock
//! ([`train::probe`], [`revise::probe`]), never a placeholder 0.

mod revise;
mod serve;
mod trace;
mod train;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Every end-to-end metric, with its unit, in report order. Each
/// workload reports all of them; the `op_*` ones are its operation.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
];

/// Every per-layer metric, with its unit. A traced run reports all of
/// them, from the workload itself or from a probe.
const PER_LAYER: [(&str, &str); 38] = [
    ("synthetic_data.generate_s", "s"),
    ("motif_finder.grow_s", "s"),
    ("motif_finder.frequent_classes", "count"),
    ("motif_finder.truncated_levels", "count"),
    ("motif_finder.uniqueness_s", "s"),
    ("motif_finder.null_tests", "count"),
    ("motif_finder.null_tests_undecided", "count"),
    ("motif_finder.motifs", "count"),
    ("motif_finder.census_dirty_roots", "count"),
    ("motif_finder.census_retracted", "count"),
    ("motif_finder.census_inserted", "count"),
    ("lamofinder.new_s", "s"),
    ("lamofinder.label_s.bp", "s"),
    ("lamofinder.label_s.mf", "s"),
    ("lamofinder.label_s.cc", "s"),
    ("lamofinder.labeled_motifs", "count"),
    ("lamofinder.sv_plane_pairs", "count"),
    ("lamofinder.labels_reused", "count"),
    ("lamofinder.labels_relabeled", "count"),
    ("function_prediction.category_view_s", "s"),
    ("function_prediction.predict_p50_us", "us"),
    ("function_prediction.predict_p99_us", "us"),
    ("function_prediction.postings_per_read_p50", "count"),
    ("function_prediction.postings_per_read_p99", "count"),
    ("function_prediction.segments_reused", "count"),
    ("function_prediction.segments_rebuilt", "count"),
    ("lamo_serve.artifact_build_s", "s"),
    ("lamo_serve.artifact_bytes", "bytes"),
    ("lamo_serve.encode_ms", "ms"),
    ("lamo_serve.decode_ms", "ms"),
    ("lamo_serve.store_recover_ms", "ms"),
    ("lamo_serve.apply_delta_p50_ms", "ms"),
    ("lamo_serve.apply_delta_p99_ms", "ms"),
    ("lamo_serve.store_publish_p50_ms", "ms"),
    ("lamo_serve.swap_p50_us", "us"),
    ("lamo_serve.answered", "count"),
    ("lamo_serve.swaps", "count"),
    ("par_util.handoff_p50_us", "us"),
];

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Output-check failures; empty means correct.
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics as `(name, unit, value)`, in report order.
    pub end_to_end: Vec<(&'static str, &'static str, f64)>,
    /// Per-layer values by name (filled in traced runs).
    pub per_layer: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Record a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        let unit = END_TO_END
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not an end-to-end metric"))
            .1;
        self.end_to_end.push((name, unit, value));
    }

    /// The workload's operation: its rate, median latency and tail
    /// latency. The tail is the p99 where a run has at least 1000
    /// samples, so that ten lie beyond it, and the median where it has
    /// fewer than forty, which have no tail.
    pub fn ops(&mut self, per_s: f64, p50_ms: f64, tail_ms: f64) {
        self.metric("ops_per_s", per_s);
        self.metric("op_p50_ms", p50_ms);
        self.metric("op_tail_ms", tail_ms);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.per_layer.insert(name, value);
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Peak resident set size of this process in MiB: the kernel's
/// high-water mark that `/proc/self/status` shows as VmHWM, read through
/// `getrusage` so the benchmark reads no file outside its checkout.
pub fn peak_rss_mib() -> f64 {
    let mut usage = RUsage {
        times: [0; 4],
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a writable `struct rusage` (144 bytes on 64-bit
    // Linux); RUSAGE_SELF (0) only fills it in.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    usage.maxrss_kib as f64 / 1024.0
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs of
/// which the first is `ru_maxrss` in KiB.
#[repr(C)]
struct RUsage {
    times: [i64; 4],
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    /// libc: resource usage of this process (`who` 0 = RUSAGE_SELF).
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    /// glibc: return free heap memory to the operating system.
    fn malloc_trim(pad: usize) -> i32;
    /// glibc: the calling thread's CPU mask (pid 0 = this thread).
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    /// glibc: pin the calling thread to `mask`.
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A `cpu_set_t`: 1024 CPU bits.
type CpuMask = [u64; 16];

/// The CPUs this process may run on, in ascending order, as read
/// before any thread was pinned.
fn allowed_cpus() -> &'static [usize] {
    static CPUS: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    CPUS.get_or_init(|| {
        let mut mask: CpuMask = [0; 16];
        // SAFETY: the mask is a writable cpu_set_t-sized buffer.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..1024)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    })
}

/// Pin the calling thread to the `slot`-th allowed CPU (wrapping), so
/// a reader and a server worker always meet on the same core instead
/// of wherever the scheduler puts them. Threads spawned afterwards
/// inherit the pin. Does nothing if the mask cannot be read or set.
pub fn pin_current_thread(slot: usize) {
    let cpus = allowed_cpus();
    if cpus.is_empty() {
        return;
    }
    let cpu = cpus[slot % cpus.len()];
    let mut mask: CpuMask = [0; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: the mask is a valid cpu_set_t-sized buffer.
    unsafe {
        sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr());
    }
}

/// Undo [`pin_current_thread`]: allow every CPU the process may use.
pub fn unpin_current_thread() {
    let cpus = allowed_cpus();
    if cpus.is_empty() {
        return;
    }
    let mut mask: CpuMask = [0; 16];
    for &c in cpus {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: as above.
    unsafe {
        sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr());
    }
}

/// Hand memory freed by a finished round back to the operating system,
/// so the next round's resident peak is its own rather than the last
/// round's plus allocator fragmentation. Without it `peak_rss_mib`
/// grows with the number of rounds a run fits.
pub fn release_free_memory() {
    // SAFETY: malloc_trim only releases memory the allocator holds
    // free; it touches no live allocation.
    unsafe {
        malloc_trim(0);
    }
}

/// Rounds a run of `seconds` makes in `train-small` and `revise-yeast`:
/// an odd number, two more for every 14 s, so 14–27 s plan 3 (a round
/// is 7–12 s on a 2-core host). The count depends on `--seconds` alone,
/// never on how fast the program ran, so a median over rounds is always
/// a middle value and a slower program is measured on the same rounds.
pub fn planned_rounds(seconds: f64) -> usize {
    2 * (seconds / 14.0).floor() as usize + 1
}

/// Run `probe` into an outcome of its own and take from it the
/// per-layer metrics `out` lacks, with any failed check it made.
fn fill_from_probe(out: &mut Outcome, probe: fn(&mut Outcome)) {
    let mut probed = Outcome::default();
    probe(&mut probed);
    out.problems
        .extend(probed.problems.into_iter().map(|p| format!("probe: {p}")));
    for (name, value) in probed.per_layer {
        out.per_layer.entry(name).or_insert(value);
    }
}

/// Scratch directory for stores and trace output, inside the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from("target").join("lamobench")
}

fn metrics_json(entries: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = entries
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("lamobench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("lamobench: cannot create {}: {e}", out_dir().display());
        return ExitCode::from(2);
    }
    // Read the CPU mask before any thread is pinned.
    allowed_cpus();
    let mut trace = trace::Trace::new(args.trace);
    let mut outcome = match args.workload.as_str() {
        "train-small" => train::run(&args, &mut trace),
        "serve-small" => serve::run(&args, &mut trace),
        "revise-yeast" => revise::run(&args, &mut trace),
        other => {
            eprintln!("lamobench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        if !outcome.per_layer.contains_key("motif_finder.grow_s") {
            fill_from_probe(&mut outcome, train::probe);
        }
        if !outcome
            .per_layer
            .contains_key("lamo_serve.apply_delta_p50_ms")
        {
            fill_from_probe(&mut outcome, revise::probe);
        }
    }
    // A metric missing from either list is a fault of the benchmark.
    let missing: Vec<&str> = if args.trace {
        PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| !outcome.per_layer.contains_key(n))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| !outcome.end_to_end.iter().any(|(m, _, _)| m == n))
            .collect()
    };
    for problem in &outcome.problems {
        eprintln!("lamobench: CHECK FAILED: {problem}");
    }
    if !missing.is_empty() {
        eprintln!("lamobench: metrics not measured: {missing:?}");
        return ExitCode::from(1);
    }
    let correct = outcome.problems.is_empty();

    let metrics = if args.trace {
        let trace_path = out_dir().join(format!("trace-{}.json", args.workload));
        if let Err(e) = trace.write(&trace_path) {
            eprintln!("lamobench: cannot write {}: {e}", trace_path.display());
        }
        println!(
            "{{\"traced_end_to_end\": {}}}",
            metrics_json(&outcome.end_to_end)
        );
        let layers: Vec<(&str, &str, f64)> = PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, outcome.per_layer[name]))
            .collect();
        metrics_json(&layers)
    } else {
        metrics_json(&outcome.end_to_end)
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.attempted, outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
