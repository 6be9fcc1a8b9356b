//! The KOOZA benchmark: one workload per run, timed end to end with
//! tracing off, or layer by layer with tracing on.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim_traced --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Every run repeats the workload's body for `--seconds` seconds and checks
//! each iteration's output digest: against the first iteration (the result
//! must repeat exactly) and, for the recorded seeds, against
//! `perfbench/expected.txt`. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` they
//! are the per-layer ones, from spans the benchmark records around its
//! calls into each layer and from the `kooza_obs` global counters.
//!
//! `--record <first>-<last>` prints one `expected.txt` line per seed instead.

mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use kooza_gfs::Cluster;
use spans::Recorder;
use workloads::{digest_hash, expected_digest, Output, Workload};

/// Shortest stretch of back-to-back set-ups timed as one sample.
const SETUP_SAMPLE_MIN: Duration = Duration::from_millis(2);
/// Most worker threads the benchmark asks for (never more than cores).
const MAX_THREADS: usize = 2;
/// Where traced runs write their spans, relative to the working directory.
const SPAN_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<(u64, u64)>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 25.0;
    let mut trace = false;
    let mut record = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => seconds = value.parse().map_err(|_| bad("seconds"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                }
            }
            "--record" => {
                let (a, b) = value.split_once('-').ok_or_else(|| bad("seed range"))?;
                record = Some((
                    a.parse().map_err(|_| bad("seed range"))?,
                    b.parse().map_err(|_| bad("seed range"))?,
                ));
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if record.is_none() && seed.is_none() {
        return Err("--seed is required".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(0),
        seconds,
        trace,
        record,
    })
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        let threads = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(MAX_THREADS);
        kooza_exec::set_thread_override(Some(threads));
        match args.record {
            Some((first, last)) => record(args.workload, first, last),
            None => run(&args, threads),
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints `expected.txt` lines for a range of seeds.
fn record(workload: Workload, first: u64, last: u64) -> Result<(), String> {
    let mut rec = Recorder::new(false);
    let mut cluster = workload.setup(&mut rec)?;
    for seed in first..=last {
        let output = workload.iterate(&mut cluster, workload.requests(), seed, &mut rec)?;
        println!(
            "{} {seed} {:016x}",
            workload.name(),
            digest_hash(&output.digest)
        );
    }
    Ok(())
}

/// Counts iterations and their failures, and remembers the reference output.
struct Checker {
    workload: Workload,
    requests: u64,
    reference: Option<Output>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    /// Runs one iteration under `catch_unwind`; a panic, an error or a
    /// digest mismatch counts as a failed iteration. Returns the wall time
    /// of a passing iteration.
    fn iterate(
        &mut self,
        cluster: &mut Cluster,
        seed: u64,
        rec: &mut Recorder,
    ) -> Option<Duration> {
        self.attempted += 1;
        let (workload, requests) = (self.workload, self.requests);
        let depth = rec.depth();
        let started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            workload.iterate(cluster, requests, seed, rec)
        }));
        let wall = started.elapsed();
        let problem = match result {
            Err(_) => {
                rec.unwind_to(depth);
                Some("iteration panicked".to_string())
            }
            Ok(Err(e)) => Some(e),
            Ok(Ok(output)) => match &self.reference {
                Some(reference) if *reference != output => Some(format!(
                    "output differs between iterations:\n  first: {}\n  now:   {}",
                    reference.digest, output.digest
                )),
                Some(_) => None,
                None => {
                    let hash = digest_hash(&output.digest);
                    println!(
                        "digest {} seed={seed} {hash:016x} {}",
                        workload.name(),
                        output.digest
                    );
                    let recorded = if requests == workload.requests() {
                        expected_digest(workload, seed)
                    } else {
                        None
                    };
                    let mismatch = recorded.filter(|&want| want != hash);
                    self.reference = Some(output);
                    mismatch.map(|want| {
                        format!("digest {hash:016x} differs from the recorded {want:016x}")
                    })
                }
            },
        };
        match problem {
            Some(problem) => {
                eprintln!(
                    "perfbench: {} iteration {} failed: {problem}",
                    workload.name(),
                    self.attempted
                );
                self.failed += 1;
                None
            }
            None => Some(wall),
        }
    }
}

fn run(args: &Args, threads: usize) -> Result<(), String> {
    let workload = args.workload;
    println!(
        "meta workload={} seed={} requests={}x{} nproc={} threads={} shards={} topology={} recorded_digest={}",
        workload.name(),
        args.seed,
        workload.streams(),
        workload.requests(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        kooza_exec::resolved_threads(),
        workload.shards(),
        workload.topology(),
        expected_digest(workload, args.seed).is_some(),
    );
    let mut rec = Recorder::new(false);
    let mut checker = prepare(workload, workload.requests(), args.seed, &mut rec)?;
    // The peak of one set-up and one iteration: later iterations repeat the
    // same work, and how many fit in the run depends on the host's speed.
    let peak_rss_mb = peak_rss_mb()?;
    let metrics = if args.trace {
        traced_metrics(args, threads, &mut checker, rec)?
    } else {
        let n = (checker.requests * workload.streams()) as f64;
        let (mut setups, mut walls) = (Vec::new(), Vec::new());
        let started = Instant::now();
        while started.elapsed().as_secs_f64() < args.seconds {
            let (setup_s, mut cluster) = setup_sample(workload, &mut rec)?;
            setups.push(setup_s);
            if let Some(wall) = checker.iterate(&mut cluster, args.seed, &mut rec) {
                walls.push(wall.as_secs_f64());
            }
        }
        let mut m = Metrics::default();
        m.put("setup_s", median(&setups), "s");
        m.put("requests_per_s", throughput(n, &walls), "1/s");
        m.put("peak_rss_mb", peak_rss_mb, "MB");
        m
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checker.failed == 0 && metrics.finite(),
        checker.attempted,
        checker.failed,
        metrics.to_json()
    );
    Ok(())
}

/// Starts the worker pool, then sets up and runs the warm-up iteration,
/// which fills caches and records the reference output.
fn prepare(
    workload: Workload,
    requests: u64,
    seed: u64,
    rec: &mut Recorder,
) -> Result<Checker, String> {
    kooza_exec::par_map(&[0u8, 1], |&x| x);
    let (_, mut cluster) = setup_sample(workload, rec)?;
    let mut checker = Checker {
        workload,
        requests,
        reference: None,
        attempted: 0,
        failed: 0,
    };
    checker.iterate(&mut cluster, seed, rec);
    Ok(checker)
}

/// Times back-to-back set-ups for at least [`SETUP_SAMPLE_MIN`]; returns
/// the seconds per set-up and the last cluster built. Every iteration
/// runs on a fresh cluster from its own sample, so the set-up samples
/// spread over the whole run.
fn setup_sample(workload: Workload, rec: &mut Recorder) -> Result<(f64, Cluster), String> {
    let started = Instant::now();
    let mut count = 0u32;
    loop {
        let cluster = workload.setup(rec)?;
        count += 1;
        if started.elapsed() >= SETUP_SAMPLE_MIN {
            return Ok((started.elapsed().as_secs_f64() / f64::from(count), cluster));
        }
    }
}

/// The traced run: alternates untraced and traced iterations for the
/// run's seconds. Traced iterations record spans and enable the
/// `kooza_obs` global sink; untraced ones give the baseline for the
/// tracing overhead.
fn traced_metrics(
    args: &Args,
    threads: usize,
    checker: &mut Checker,
    mut rec: Recorder,
) -> Result<Metrics, String> {
    let workload = checker.workload;
    let n = (checker.requests * workload.streams()) as f64;
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut self_times: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut coverage = Vec::new();
    let mut counters = None;
    let mut cpu_s = 0.0;
    let started = Instant::now();
    // At least one pair of iterations, then until the run's time is up.
    loop {
        let (_, mut cluster) = setup_sample(workload, &mut rec)?;
        if let Some(wall) = checker.iterate(&mut cluster, args.seed, &mut rec) {
            untraced.push(wall.as_secs_f64());
        }
        kooza_obs::global::enable();
        rec.set_enabled(true);
        let (_, mut cluster) = setup_sample(workload, &mut rec)?;
        let cpu_before = cpu_seconds()?;
        let (wall, root) = rec.span_indexed("iteration", |rec| {
            checker.iterate(&mut cluster, args.seed, rec)
        });
        let cpu_after = cpu_seconds()?;
        rec.set_enabled(false);
        let report = kooza_obs::global::report();
        kooza_obs::global::disable();
        if let (Some(wall), Some(root), Some(report)) = (wall, root, report) {
            traced.push(wall.as_secs_f64());
            cpu_s += cpu_after - cpu_before;
            coverage.push(rec.child_coverage(root));
            for (name, secs) in rec.self_times(root) {
                self_times.entry(name).or_default().push(secs);
            }
            counters = Some(report.metrics);
        }
        if started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    if let Err(e) = rec.check_nesting() {
        checker.failed += 1;
        eprintln!("perfbench: spans do not nest: {e}");
    }
    write_spans(args, &rec)?;

    let iterations = traced.len() as f64;
    let cluster_new: Vec<f64> = rec
        .spans()
        .iter()
        .filter(|s| s.name == "gfs.cluster_new")
        .map(|s| s.duration_ns() as f64 / 1e9)
        .collect();
    let layer = |name: &str| self_times.get(name).map_or(0.0, |v| median(v));
    let counters = counters.ok_or("no traced iteration passed its checks")?;
    let count = |name: &str| counters.counter(name).unwrap_or(0) as f64;
    let per_request = |name: &str| count(name) / n;
    let events = count("gfs.events_processed");
    let flows = count("net.fabric.flows");
    let table2 = checker
        .reference
        .as_ref()
        .and_then(|o| o.table2)
        .unwrap_or((0.0, 0.0));

    let mut m = Metrics::default();
    m.put("gfs.cluster_new_s", median(&cluster_new), "s");
    m.put("gfs.run_s", layer("gfs.run"), "s");
    m.put(
        "gfs.ns_per_event",
        if events > 0.0 {
            layer("gfs.run") * 1e9 / events
        } else {
            0.0
        },
        "ns",
    );
    m.put("gfs.events_per_request", events / n, "count");
    m.put("gfs.outcome_drop_s", layer("gfs.outcome_drop"), "s");
    m.put(
        "trace.spans_per_request",
        per_request("trace.ktc.write_spans"),
        "count",
    );
    m.put("trace.ktc_encode_s", layer("trace.ktc_encode"), "s");
    m.put("trace.ktc_decode_s", layer("trace.ktc_decode"), "s");
    m.put("shard.count", count("sim.shard.shards").max(1.0), "count");
    m.put("shard.windows", count("sim.shard.windows"), "count");
    m.put(
        "shard.messages_per_request",
        per_request("sim.shard.messages"),
        "count",
    );
    m.put("fabric.flows", flows, "count");
    m.put("fabric.rerates", count("net.fabric.rerates"), "count");
    m.put(
        "fabric.rerates_per_flow",
        if flows > 0.0 {
            count("net.fabric.rerates") / flows
        } else {
            0.0
        },
        "count",
    );
    m.put(
        "fault.timeouts_per_request",
        per_request("gfs.fault.timeouts"),
        "count",
    );
    m.put(
        "fault.retries_per_request",
        per_request("gfs.fault.retries"),
        "count",
    );
    m.put("core.assemble_s", layer("core.assemble"), "s");
    m.put("core.kooza_fit_s", layer("core.kooza_fit"), "s");
    m.put("core.inbreadth_fit_s", layer("core.inbreadth_fit"), "s");
    m.put("core.indepth_fit_s", layer("core.indepth_fit"), "s");
    m.put("core.generate_s", layer("core.generate"), "s");
    m.put("core.validate_s", layer("core.validate"), "s");
    m.put("core.crossexam_s", layer("core.crossexam"), "s");
    m.put("replay.events", count("replay.events"), "count");
    m.put("table2.feature_err_pct", table2.0, "%");
    m.put("table2.latency_err_pct", table2.1, "%");
    m.put("bench.check_s", layer("bench.check"), "s");
    m.put("bench.drop_s", layer("bench.drop"), "s");
    m.put("bench.glue_s", layer("iteration"), "s");
    m.put("bench.span_coverage_pct", median(&coverage) * 100.0, "%");
    m.put("trace.traced_requests_per_s", throughput(n, &traced), "1/s");
    m.put(
        "trace.overhead_pct",
        (throughput(n, &untraced) / throughput(n, &traced) - 1.0) * 100.0,
        "%",
    );
    m.put("host.cpu_s", cpu_s / iterations, "s");
    m.put(
        "host.cpu_per_wall",
        cpu_s / traced.iter().sum::<f64>(),
        "ratio",
    );
    m.put(
        "host.nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
        "count",
    );
    m.put("host.threads", threads as f64, "count");
    Ok(m)
}

fn write_spans(args: &Args, rec: &Recorder) -> Result<(), String> {
    let path = format!(
        "{SPAN_DIR}/spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    );
    std::fs::create_dir_all(SPAN_DIR)
        .and_then(|()| std::fs::write(&path, rec.to_jsonl()))
        .map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("perfbench: {} spans written to {path}", rec.spans().len());
    Ok(())
}

/// Metrics in output order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn finite(&self) -> bool {
        self.0.iter().all(|(_, v, _)| v.is_finite())
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Requests per wall second over all passing iterations: total requests
/// over total time. Host speed drifts over tens of seconds on shared
/// machines; this ratio of sums averages the drift within a run, where a
/// median of per-iteration rates with a dozen iterations jumps with it.
fn throughput(requests_per_iteration: f64, walls: &[f64]) -> f64 {
    requests_per_iteration * walls.len() as f64 / walls.iter().sum::<f64>()
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`), MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// User plus system CPU time of the whole process, seconds (Linux clock
/// ticks of 1/100 s).
fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // Fields after the parenthesised command name start at field 3 (state).
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or("malformed /proc/self/stat")
    };
    Ok((ticks(11)? + ticks(12)?) / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A smoke-sized traced run; its spans nest, or `checker.failed` counts it.
    fn traced_smoke(workload: Workload) -> Metrics {
        let args = Args {
            workload,
            seed: 5,
            seconds: 0.0,
            trace: true,
            record: None,
        };
        let _guard = workloads::tests::GLOBALS
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let requests = workloads::tests::smoke_requests(workload);
        let mut rec = Recorder::new(false);
        let mut checker = prepare(workload, requests, args.seed, &mut rec).expect("set-up");
        let metrics = traced_metrics(&args, 2, &mut checker, rec).expect("traced run");
        assert_eq!(
            checker.failed, 0,
            "every iteration passes and the spans nest"
        );
        metrics
    }

    fn names_listed_under(key: &str) -> Vec<&'static str> {
        let manifest = include_str!("../../BENCHMARK.json");
        let section = &manifest[manifest.find(key).expect("key in BENCHMARK.json")..];
        let section = &section[..section.find(']').expect("list end")];
        section
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').expect("closing quote")])
            .collect()
    }

    #[test]
    fn traced_run_reports_every_per_layer_metric() {
        let metrics = traced_smoke(Workload::SimRackFaults);
        let printed: Vec<_> = metrics.0.iter().map(|(name, _, _)| *name).collect();
        assert_eq!(printed, names_listed_under("\"per_layer\""));
        assert!(metrics.finite());
    }

    #[test]
    fn model_pipeline_layer_spans_cover_the_iteration() {
        let metrics = traced_smoke(Workload::ModelPipeline);
        let value = |name| metrics.0.iter().find(|m| m.0 == name).expect("printed").1;
        assert!(
            value("bench.span_coverage_pct") > 99.0,
            "{}",
            value("bench.span_coverage_pct")
        );
        assert!(value("core.kooza_fit_s") > 0.0 && value("replay.events") > 0.0);
        assert!(value("table2.feature_err_pct") <= workloads::TABLE2_FEATURE_BOUND_PCT);
    }

    #[test]
    fn untraced_metric_names_match_the_manifest() {
        assert_eq!(
            names_listed_under("\"end_to_end\""),
            ["setup_s", "requests_per_s", "peak_rss_mb"]
        );
        let workloads: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names_listed_under("\"workloads\""), workloads);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
