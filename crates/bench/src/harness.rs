//! Minimal in-repo micro-benchmark harness (criterion replacement).
//!
//! The workspace builds fully offline, so the benchmarks cannot depend on
//! an external harness. This module provides the small slice of criterion
//! we actually use: named benchmark functions, a warmup phase, repeated
//! timed samples, and median/p95 reporting, plus machine-readable JSON.
//!
//! Modes:
//! - `cargo bench` passes `--bench` to the binary → full mode
//!   (measured samples sized for stable medians).
//! - `cargo test --benches` passes `--test`, and a bare run passes
//!   nothing → quick smoke mode (1 warmup + 3 samples) so the benchmarks
//!   double as cheap integration tests.
//! - `--mode smoke|full` picks the mode explicitly, overriding the flags
//!   cargo passes (`kooza_bench --mode smoke` in CI, for example).
//! - `KOOZA_BENCH_JSON=<path>` additionally writes the results as a JSON
//!   array to `<path>`.
//! - Every measured sample is preceded by one timed run of a fixed
//!   calibration loop (see [`calibration`]), so the loop sees the same
//!   host and cache conditions as the bench. Each result reports the
//!   median of its own calibration timings as `calibration_nanos`.
//! - `--baseline <json>` loads a previously archived BENCH_*.json report
//!   and, after the run, prints per-bench speedups against it with a
//!   regression flag; the diff is also embedded in the JSON report. Each
//!   side's median is first divided by that side's `calibration_nanos`,
//!   so a host that runs everything 2x slower reads as no change, while
//!   code that got 2x slower still does. An archive whose results lack
//!   `calibration_nanos` is rejected.
//! - `KOOZA_BENCH_TOLERANCE=<f64>` loosens/tightens the regression
//!   threshold for the `--baseline` diff (default `0.95`;
//!   `scripts/verify.sh`'s hot-path gate uses `0.7`).
//!
//! A positional (non-flag) command-line argument acts as a substring
//! filter on benchmark names, matching cargo's usual filtering UX.

use std::time::Instant;

use kooza_json::{Json, ToJson};

/// One benchmark's measured timings, in nanoseconds per sample.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name as passed to [`Harness::bench_function`].
    pub name: String,
    /// Number of measured samples (excluding warmup).
    pub samples: usize,
    /// Fastest sample.
    pub min_nanos: f64,
    /// Median sample.
    pub median_nanos: f64,
    /// 95th-percentile sample.
    pub p95_nanos: f64,
    /// Mean over samples.
    pub mean_nanos: f64,
    /// Bytes processed per iteration, for throughput benches
    /// ([`Harness::bench_throughput`]); `None` for plain timing benches.
    pub bytes: Option<u64>,
    /// Median of the [`calibration`] timings taken just before each
    /// sample: the yardstick `--baseline` divides `median_nanos` by.
    pub calibration_nanos: f64,
}

impl BenchResult {
    /// Median throughput in MB/s (decimal megabytes), if this is a
    /// throughput benchmark.
    pub fn mb_per_sec(&self) -> Option<f64> {
        let bytes = self.bytes?;
        if self.median_nanos <= 0.0 {
            return None;
        }
        // bytes/ns → MB/s: multiply by 1e9 (ns→s), divide by 1e6 (B→MB).
        Some(bytes as f64 * 1_000.0 / self.median_nanos)
    }
}

impl ToJson for BenchResult {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("samples".into(), Json::U64(self.samples as u64)),
            ("min_nanos".into(), Json::F64(self.min_nanos)),
            ("median_nanos".into(), Json::F64(self.median_nanos)),
            ("p95_nanos".into(), Json::F64(self.p95_nanos)),
            ("mean_nanos".into(), Json::F64(self.mean_nanos)),
            ("calibration_nanos".into(), Json::F64(self.calibration_nanos)),
        ];
        if let Some(bytes) = self.bytes {
            fields.push(("bytes".into(), Json::U64(bytes)));
            fields.push((
                "mb_per_sec".into(),
                self.mb_per_sec().map(Json::F64).unwrap_or(Json::Null),
            ));
        }
        Json::Object(fields)
    }
}

/// A benchmark whose calibrated speedup against the baseline falls below
/// `REGRESSION_TOLERANCE` counts as a regression: 5% slack absorbs
/// ordinary same-host timer noise.
///
/// `KOOZA_BENCH_TOLERANCE=<f64>` overrides it per run.
/// `scripts/verify.sh`'s hot-path gate diffs a fresh run against an
/// archive measured on another day, maybe on another host, and sets
/// `0.7`: the calibration ratio cancels the host's speed, and the
/// tolerance absorbs the run-to-run noise that is left.
const REGRESSION_TOLERANCE: f64 = 0.95;

/// The fixed workload timed before every sample: sorts 16k pseudo-random
/// words. Branchy comparisons over a cache-resident array are what the
/// event queue and the fabric's flow table spend their time on, so a
/// host that slows those down slows this down too, but the loop shares
/// no code with either and never changes with them.
pub fn calibration() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut words: Vec<u64> = (0..16_384)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    words.sort_unstable();
    words[words.len() / 2]
}

/// The effective regression tolerance for this run (see
/// [`REGRESSION_TOLERANCE`]).
fn regression_tolerance() -> f64 {
    std::env::var("KOOZA_BENCH_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|t| t.is_finite() && *t > 0.0)
        .unwrap_or(REGRESSION_TOLERANCE)
}

/// One benchmark compared against a `--baseline` report.
#[derive(Debug, Clone)]
pub struct BaselineDiff {
    /// Benchmark name present in both reports.
    pub name: String,
    /// Median from the baseline report, nanoseconds.
    pub baseline_median_nanos: f64,
    /// Median from this run, nanoseconds.
    pub median_nanos: f64,
    /// `(baseline / its calibration) / (current / its calibration)`:
    /// above 1.0 means the code under test got faster.
    pub speedup: f64,
    /// Whether this run is slower than the baseline beyond the tolerance.
    pub regression: bool,
}

impl ToJson for BaselineDiff {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("baseline_median_nanos".into(), Json::F64(self.baseline_median_nanos)),
            ("median_nanos".into(), Json::F64(self.median_nanos)),
            ("speedup".into(), Json::F64(self.speedup)),
            ("regression".into(), Json::Bool(self.regression)),
        ])
    }
}

/// One archived result loaded by `--baseline`: name, median ns and
/// calibration ns.
type BaselineRow = (String, f64, f64);

/// Collects and runs benchmarks; create with [`Harness::from_args`].
pub struct Harness {
    full: bool,
    filter: Option<String>,
    /// `(path, rows)` from `--baseline`, if given.
    baseline: Option<(String, Vec<BaselineRow>)>,
    /// Shard count the cluster benches ran with, stamped into `meta`.
    shards: Option<u64>,
    /// Network topology the cluster benches ran with (`--topology`
    /// syntax, e.g. `rack:4:2`), stamped into `meta`.
    topology: Option<String>,
    /// Free-form `notes` appended to the JSON report: derived,
    /// deterministic measurements (simulated completion curves, sweep
    /// tables) that wall-clock samples cannot express.
    notes: Vec<(String, Json)>,
    results: Vec<BenchResult>,
}

impl Harness {
    /// Builds a harness from the process arguments (see module docs for
    /// the flags cargo passes) and the `KOOZA_BENCH_*` environment.
    pub fn from_args() -> Self {
        let mut saw_bench = false;
        let mut saw_test = false;
        let mut explicit_mode: Option<bool> = None;
        let mut filter = None;
        let mut baseline_path: Option<String> = None;
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--bench" => saw_bench = true,
                "--test" => saw_test = true,
                "--mode" => {
                    let mode = args.next().unwrap_or_default();
                    explicit_mode = Some(match mode.as_str() {
                        "full" => true,
                        "smoke" | "quick" => false,
                        other => panic!("--mode expects smoke|full, got {other:?}"),
                    });
                }
                "--baseline" => {
                    baseline_path =
                        Some(args.next().unwrap_or_else(|| panic!("--baseline expects a path")));
                }
                a if a.starts_with('-') => {} // ignore unknown flags (e.g. --nocapture)
                a => filter = Some(a.to_string()),
            }
        }
        // `--test` wins over `--bench` whatever the order: cargo appends
        // `--bench` to bench-target invocations, so `cargo bench -- --test`
        // sees both and should still smoke-run. An explicit `--mode` beats
        // both cargo flags.
        let full = explicit_mode.unwrap_or(saw_bench && !saw_test);
        let baseline = baseline_path.map(|path| {
            let rows = load_baseline(&path)
                .unwrap_or_else(|e| panic!("loading --baseline {path}: {e}"));
            (path, rows)
        });
        Harness {
            full,
            filter,
            baseline,
            shards: None,
            topology: None,
            notes: Vec::new(),
            results: Vec::new(),
        }
    }

    /// Whether this run is in full (measured) mode rather than smoke
    /// mode — benches use it to size their inputs (e.g. the million-
    /// request cluster runs shrink to a few thousand requests in smoke).
    pub fn is_full(&self) -> bool {
        self.full
    }

    /// Stamps the shard count the cluster benches ran with into the JSON
    /// report's `meta` object, next to the cores/threads/samples stamps —
    /// archived BENCH_*.json files must say what sharding they measured.
    pub fn set_shards(&mut self, shards: u64) {
        self.shards = Some(shards);
    }

    /// Stamps the network topology the cluster benches ran with into the
    /// JSON report's `meta` object, in `--topology` syntax (`none`,
    /// `rack:4:2`, ...) — archived BENCH_*.json files must say which
    /// fabric they measured.
    pub fn set_topology(&mut self, topology: &str) {
        self.topology = Some(topology.to_string());
    }

    /// Attaches a named JSON value to the report's `notes` object —
    /// for deterministic derived measurements (e.g. a simulated incast
    /// completion-time curve) that belong next to the wall-clock samples
    /// in an archived BENCH_*.json.
    pub fn note(&mut self, key: &str, value: Json) {
        self.notes.push((key.to_string(), value));
    }

    /// Number of warmup iterations before measurement starts.
    fn warmup_iters(&self) -> usize {
        if self.full { 10 } else { 1 }
    }

    /// Number of measured samples.
    fn sample_count(&self) -> usize {
        if self.full { 30 } else { 3 }
    }

    /// Runs one named benchmark. The closure receives a [`Bencher`] and
    /// must call [`Bencher::iter`] or [`Bencher::iter_batched`] exactly
    /// once, mirroring criterion's `bench_function` contract.
    pub fn bench_function(&mut self, name: &str, f: impl FnOnce(&mut Bencher)) {
        self.run_bench(name, None, f);
    }

    /// Like [`Harness::bench_function`], but tags the result with the
    /// number of bytes each iteration processes, so the report carries a
    /// derived MB/s figure (the unit ingest benches are compared in).
    pub fn bench_throughput(&mut self, name: &str, bytes: u64, f: impl FnOnce(&mut Bencher)) {
        self.run_bench(name, Some(bytes), f);
    }

    fn run_bench(&mut self, name: &str, bytes: Option<u64>, f: impl FnOnce(&mut Bencher)) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        let mut b = Bencher {
            warmup: self.warmup_iters(),
            samples: self.sample_count(),
            durations: Vec::new(),
            calibration: Vec::new(),
        };
        f(&mut b);
        assert!(
            !b.durations.is_empty(),
            "benchmark {name} never called iter()/iter_batched()"
        );
        b.calibration.sort_unstable();
        let calibration_nanos = b.calibration[b.calibration.len() / 2] as f64;
        let mut sorted = b.durations;
        sorted.sort_unstable();
        let n = sorted.len();
        let median_nanos = sorted[n / 2] as f64;
        let p95_nanos = sorted[((n as f64 * 0.95) as usize).min(n - 1)] as f64;
        let mean_nanos = sorted.iter().sum::<u64>() as f64 / n as f64;
        let result = BenchResult {
            name: name.to_string(),
            samples: n,
            min_nanos: sorted[0] as f64,
            median_nanos,
            p95_nanos,
            mean_nanos,
            bytes,
            calibration_nanos,
        };
        let throughput = result
            .mb_per_sec()
            .map(|mbps| format!("  {mbps:>8.1} MB/s"))
            .unwrap_or_default();
        println!(
            "{:<32} median {:>14}  p95 {:>14}  ({} samples, calibration {}){throughput}",
            result.name,
            fmt_nanos(result.median_nanos),
            fmt_nanos(result.p95_nanos),
            result.samples,
            fmt_nanos(result.calibration_nanos)
        );
        self.results.push(result);
    }

    /// Calibrated speedup of each benchmark present in both this run and
    /// the `--baseline` report, in this run's execution order.
    fn baseline_diffs(&self) -> Vec<BaselineDiff> {
        let Some((_, rows)) = &self.baseline else { return Vec::new() };
        self.results
            .iter()
            .filter_map(|r| {
                let (_, baseline_median_nanos, baseline_calibration_nanos) =
                    rows.iter().find(|(name, ..)| *name == r.name)?;
                let speedup = if r.median_nanos > 0.0 {
                    (baseline_median_nanos / baseline_calibration_nanos)
                        / (r.median_nanos / r.calibration_nanos)
                } else {
                    f64::INFINITY
                };
                Some(BaselineDiff {
                    name: r.name.clone(),
                    baseline_median_nanos: *baseline_median_nanos,
                    median_nanos: r.median_nanos,
                    speedup,
                    regression: speedup < regression_tolerance(),
                })
            })
            .collect()
    }

    /// The full JSON report: a `meta` stamp describing the machine and
    /// run configuration (so archived BENCH_*.json files are comparable),
    /// plus the per-benchmark `results` array.
    fn report_json(&self) -> Json {
        let detected_cores =
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) as u64;
        let total_samples: u64 = self.results.iter().map(|r| r.samples as u64).sum();
        let meta = Json::Object(vec![
            ("mode".into(), Json::str(if self.full { "full" } else { "quick" })),
            ("detected_cores".into(), Json::U64(detected_cores)),
            ("resolved_threads".into(), Json::U64(kooza_exec::resolved_threads() as u64)),
            ("warmup_iters".into(), Json::U64(self.warmup_iters() as u64)),
            ("samples_per_bench".into(), Json::U64(self.sample_count() as u64)),
            ("total_samples".into(), Json::U64(total_samples)),
        ]);
        let meta = match (self.shards, meta) {
            (Some(shards), Json::Object(mut fields)) => {
                fields.push(("shards".into(), Json::U64(shards)));
                Json::Object(fields)
            }
            (_, meta) => meta,
        };
        let meta = match (&self.topology, meta) {
            (Some(topology), Json::Object(mut fields)) => {
                fields.push(("topology".into(), Json::str(topology.clone())));
                Json::Object(fields)
            }
            (_, meta) => meta,
        };
        let mut report = vec![
            ("meta".into(), meta),
            (
                "results".into(),
                Json::Array(self.results.iter().map(ToJson::to_json).collect()),
            ),
        ];
        if !self.notes.is_empty() {
            report.push(("notes".into(), Json::Object(self.notes.clone())));
        }
        if let Some((path, _)) = &self.baseline {
            let diffs = self.baseline_diffs();
            report.push((
                "baseline".into(),
                Json::Object(vec![
                    ("path".into(), Json::str(path.clone())),
                    ("diffs".into(), Json::Array(diffs.iter().map(ToJson::to_json).collect())),
                ]),
            ));
        }
        Json::Object(report)
    }

    /// Prints the closing summary (and the `--baseline` diff, if any) and
    /// writes the JSON report if `KOOZA_BENCH_JSON` is set. Call once,
    /// after all benchmarks.
    pub fn finish(self) {
        let mode = if self.full { "full" } else { "quick" };
        println!(
            "\n{} benchmark(s) done ({mode} mode{})",
            self.results.len(),
            if self.full { "" } else { "; run `cargo bench` or pass `--mode full` for stable numbers" }
        );
        if let Some((path, _)) = &self.baseline {
            let diffs = self.baseline_diffs();
            println!("\nvs baseline {path} (speedups relative to the calibration loop):");
            let mut regressions = 0usize;
            for d in &diffs {
                println!(
                    "{:<32} {:>14} -> {:>14}  {:>6.2}x{}",
                    d.name,
                    fmt_nanos(d.baseline_median_nanos),
                    fmt_nanos(d.median_nanos),
                    d.speedup,
                    if d.regression { "  REGRESSION" } else { "" }
                );
                regressions += usize::from(d.regression);
            }
            if diffs.is_empty() {
                println!("(no benchmark names in common with the baseline)");
            } else if regressions == 0 {
                println!("no regressions against the baseline");
            } else {
                println!("{regressions} regression(s) against the baseline");
            }
        }
        if let Ok(path) = std::env::var("KOOZA_BENCH_JSON") {
            std::fs::write(&path, kooza_json::to_string(&self.report_json()))
                .unwrap_or_else(|e| panic!("writing {path}: {e}"));
            println!("wrote JSON report to {path}");
        }
    }
}

/// Reads `(name, median_nanos, calibration_nanos)` rows from an archived
/// BENCH_*.json report (either the full `{meta, results}` object or a
/// bare results array).
fn load_baseline(path: &str) -> Result<Vec<BaselineRow>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string());
    let json = kooza_json::parse(&text?).map_err(|e| e.to_string())?;
    let results = match json.get("results") {
        Some(r) => r,
        None => &json,
    };
    let array = results
        .as_array()
        .ok_or_else(|| "baseline has no results array".to_string())?;
    let mut rows = Vec::with_capacity(array.len());
    for entry in array {
        let name = entry
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| "baseline result missing name".to_string())?;
        let median = entry
            .get("median_nanos")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("baseline result {name} missing median_nanos"))?;
        let calibration = entry.get("calibration_nanos").and_then(Json::as_f64).ok_or_else(|| {
            format!("baseline result {name} has no calibration_nanos; regenerate the archive")
        })?;
        rows.push((name.to_string(), median, calibration));
    }
    Ok(rows)
}

/// Timing context handed to each benchmark body.
pub struct Bencher {
    warmup: usize,
    samples: usize,
    durations: Vec<u64>,
    /// One [`calibration`] timing per measured sample, taken just before it.
    calibration: Vec<u64>,
}

impl Bencher {
    /// Times `routine` once per sample, after the warmup runs. Keep any
    /// result observable with [`std::hint::black_box`] in the caller.
    pub fn iter<R>(&mut self, mut routine: impl FnMut() -> R) {
        for _ in 0..self.warmup {
            std::hint::black_box(routine());
        }
        for _ in 0..self.samples {
            self.calibrate();
            let start = Instant::now();
            std::hint::black_box(routine());
            self.durations.push(start.elapsed().as_nanos() as u64);
        }
    }

    /// Like [`Bencher::iter`], but rebuilds the input with `setup` before
    /// every run, outside the timed region — for routines that consume or
    /// mutate their input.
    pub fn iter_batched<S, R>(
        &mut self,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> R,
    ) {
        for _ in 0..self.warmup {
            let input = setup();
            std::hint::black_box(routine(input));
        }
        for _ in 0..self.samples {
            let input = setup();
            self.calibrate();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            self.durations.push(start.elapsed().as_nanos() as u64);
        }
    }

    /// Times one run of the [`calibration`] loop.
    fn calibrate(&mut self) {
        let start = Instant::now();
        std::hint::black_box(calibration());
        self.calibration.push(start.elapsed().as_nanos() as u64);
    }
}

/// Human-readable duration with ns/µs/ms/s units.
fn fmt_nanos(nanos: f64) -> String {
    if nanos < 1_000.0 {
        format!("{nanos:.0} ns")
    } else if nanos < 1_000_000.0 {
        format!("{:.2} µs", nanos / 1_000.0)
    } else if nanos < 1_000_000_000.0 {
        format!("{:.2} ms", nanos / 1_000_000.0)
    } else {
        format!("{:.2} s", nanos / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_one_duration_per_sample() {
        let mut b =
            Bencher { warmup: 2, samples: 5, durations: Vec::new(), calibration: Vec::new() };
        let mut calls = 0u32;
        b.iter(|| calls += 1);
        assert_eq!(calls, 7); // 2 warmup + 5 measured
        assert_eq!(b.durations.len(), 5);
        assert_eq!(b.calibration.len(), 5);
    }

    #[test]
    fn iter_batched_reruns_setup_every_sample() {
        let mut b =
            Bencher { warmup: 1, samples: 4, durations: Vec::new(), calibration: Vec::new() };
        let mut setups = 0u32;
        b.iter_batched(
            || {
                setups += 1;
                vec![1u8; 8]
            },
            |mut v| {
                v.push(2);
                v
            },
        );
        assert_eq!(setups, 5); // 1 warmup + 4 measured
        assert_eq!(b.durations.len(), 4);
        assert_eq!(b.calibration.len(), 4);
    }

    #[test]
    fn fmt_nanos_picks_units() {
        assert_eq!(fmt_nanos(500.0), "500 ns");
        assert_eq!(fmt_nanos(1_500.0), "1.50 µs");
        assert_eq!(fmt_nanos(2_500_000.0), "2.50 ms");
        assert_eq!(fmt_nanos(3_000_000_000.0), "3.00 s");
    }

    fn result(name: &str, median_nanos: f64, calibration_nanos: f64) -> BenchResult {
        BenchResult {
            name: name.into(),
            samples: 30,
            min_nanos: median_nanos / 2.0,
            median_nanos,
            p95_nanos: median_nanos * 1.5,
            mean_nanos: median_nanos,
            bytes: None,
            calibration_nanos,
        }
    }

    #[test]
    fn report_json_carries_meta_stamp() {
        let harness = Harness {
            full: true,
            filter: None,
            baseline: None,
            shards: Some(4),
            topology: Some("rack:4:2".into()),
            notes: vec![("incast".into(), Json::U64(7))],
            results: vec![result("demo", 2.0, 1.0)],
        };
        let json = harness.report_json();
        let meta = json.field("meta").unwrap();
        assert_eq!(meta.field("mode").unwrap().as_str(), Some("full"));
        assert!(meta.field("detected_cores").unwrap().as_f64().unwrap() >= 1.0);
        assert!(meta.field("resolved_threads").unwrap().as_f64().unwrap() >= 1.0);
        assert_eq!(meta.field("warmup_iters").unwrap().as_f64(), Some(10.0));
        assert_eq!(meta.field("samples_per_bench").unwrap().as_f64(), Some(30.0));
        assert_eq!(meta.field("total_samples").unwrap().as_f64(), Some(30.0));
        assert_eq!(meta.field("shards").unwrap().as_f64(), Some(4.0));
        assert_eq!(meta.field("topology").unwrap().as_str(), Some("rack:4:2"));
        let results = json.field("results").unwrap().as_array().unwrap();
        assert_eq!(results.len(), 1);
        let notes = json.field("notes").unwrap();
        assert_eq!(notes.field("incast").unwrap().as_f64(), Some(7.0));
    }

    /// A harness holding `results`, diffed against `baseline`; both are
    /// `(name, median, calibration)` rows.
    fn diffed(baseline: &[(&str, f64, f64)], results: &[(&str, f64, f64)]) -> Harness {
        Harness {
            full: true,
            filter: None,
            shards: None,
            topology: None,
            notes: vec![],
            baseline: Some((
                "old.json".into(),
                baseline.iter().map(|&(n, m, c)| (n.to_string(), m, c)).collect(),
            )),
            results: results.iter().map(|&(n, m, c)| result(n, m, c)).collect(),
        }
    }

    #[test]
    fn baseline_diffs_flag_regressions_with_tolerance() {
        let harness = diffed(
            &[
                ("faster", 2_000.0, 100.0),
                ("steady", 1_000.0, 100.0),
                ("slower", 1_000.0, 100.0),
                ("gone", 5.0, 100.0),
            ],
            &[
                ("faster", 1_000.0, 100.0),
                ("steady", 1_020.0, 100.0),
                ("slower", 1_500.0, 100.0),
                ("new_bench", 7.0, 100.0),
            ],
        );
        let diffs = harness.baseline_diffs();
        // Diffs cover the intersection, in this run's order.
        let names: Vec<&str> = diffs.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["faster", "steady", "slower"]);
        assert!((diffs[0].speedup - 2.0).abs() < 1e-12);
        assert!(!diffs[0].regression);
        // 2% slower sits inside the 5% noise tolerance.
        assert!(!diffs[1].regression, "speedup {}", diffs[1].speedup);
        // 50% slower is a regression.
        assert!(diffs[2].regression);
        let json = harness.report_json();
        let baseline = json.field("baseline").unwrap();
        assert_eq!(baseline.field("path").unwrap().as_str(), Some("old.json"));
        assert_eq!(baseline.field("diffs").unwrap().as_array().unwrap().len(), 3);
    }

    #[test]
    fn uniform_host_slowdown_is_not_a_regression() {
        // The bench and its calibration both run 2x slower: the host
        // changed, not the code.
        let harness =
            diffed(&[("hot_path", 5_000.0, 1_000.0)], &[("hot_path", 10_000.0, 2_000.0)]);
        let diffs = harness.baseline_diffs();
        assert!((diffs[0].speedup - 1.0).abs() < 1e-12, "speedup {}", diffs[0].speedup);
        assert!(!diffs[0].regression);
    }

    #[test]
    fn bench_only_slowdown_is_a_regression() {
        let harness =
            diffed(&[("hot_path", 5_000.0, 1_000.0)], &[("hot_path", 10_000.0, 1_000.0)]);
        let diffs = harness.baseline_diffs();
        assert!((diffs[0].speedup - 0.5).abs() < 1e-12, "speedup {}", diffs[0].speedup);
        assert!(diffs[0].regression);
    }

    #[test]
    fn load_baseline_reads_full_reports_and_bare_arrays() {
        let dir = std::env::temp_dir();
        let full = dir.join("kooza_bench_baseline_full_test.json");
        std::fs::write(
            &full,
            r#"{"meta":{"mode":"full"},"results":[{"name":"a","median_nanos":12.5,"calibration_nanos":4}]}"#,
        )
        .unwrap();
        let rows = load_baseline(full.to_str().unwrap()).unwrap();
        assert_eq!(rows, vec![("a".to_string(), 12.5, 4.0)]);
        let bare = dir.join("kooza_bench_baseline_bare_test.json");
        std::fs::write(&bare, r#"[{"name":"b","median_nanos":3,"calibration_nanos":2}]"#).unwrap();
        let rows = load_baseline(bare.to_str().unwrap()).unwrap();
        assert_eq!(rows, vec![("b".to_string(), 3.0, 2.0)]);
        assert!(load_baseline("/nonexistent/kooza.json").is_err());
        let _ = std::fs::remove_file(full);
        let _ = std::fs::remove_file(bare);
    }

    #[test]
    fn load_baseline_rejects_archive_without_calibration() {
        let path = std::env::temp_dir().join("kooza_bench_baseline_uncalibrated_test.json");
        std::fs::write(&path, r#"[{"name":"a","median_nanos":12.5}]"#).unwrap();
        let err = load_baseline(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("calibration_nanos"), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn throughput_results_carry_mb_per_sec() {
        let r = BenchResult { bytes: Some(1_000_000), ..result("ingest", 2_000.0, 500.0) };
        // 1 MB per iteration at 2 µs median = 500k MB/s.
        assert_eq!(r.mb_per_sec(), Some(500_000.0));
        let s = kooza_json::to_string(&r.to_json());
        assert!(s.contains("\"bytes\":1000000"), "{s}");
        assert!(s.contains("\"mb_per_sec\":500000"), "{s}");

        // Plain timing benches neither compute nor serialize throughput.
        let plain = BenchResult { bytes: None, ..r };
        assert_eq!(plain.mb_per_sec(), None);
        let s = kooza_json::to_string(&plain.to_json());
        assert!(!s.contains("mb_per_sec"), "{s}");

        let mut h = Harness {
            full: false,
            filter: None,
            baseline: None,
            shards: None,
            topology: None,
            notes: vec![],
            results: vec![],
        };
        h.bench_throughput("tp", 4096, |b| b.iter(|| std::hint::black_box(1 + 1)));
        assert_eq!(h.results.len(), 1);
        assert_eq!(h.results[0].bytes, Some(4096));
        assert!(h.results[0].calibration_nanos > 0.0);
    }

    #[test]
    fn results_serialize_to_json() {
        let r = BenchResult { samples: 3, ..result("demo", 2.0, 1.0) };
        let s = kooza_json::to_string(&r.to_json());
        assert!(s.starts_with("{\"name\":\"demo\",\"samples\":3,"), "{s}");
        assert!(s.contains("\"calibration_nanos\":1"), "{s}");
    }
}
