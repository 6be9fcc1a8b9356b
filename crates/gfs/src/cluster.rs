//! The event-driven GFS cluster simulation.
//!
//! Requests follow the paper's Figure 1: network in → CPU (lookup) →
//! memory (buffer access) → disk (unless the buffer cache hits) → CPU
//! (aggregate) → network out. Writes additionally replicate to secondary
//! chunkservers before acknowledging.
//!
//! Every request is instrumented (subject to Dapper-style 1-in-N trace
//! sampling): per-subsystem records plus a span tree land in a
//! [`TraceSet`]. Sampled requests pay a configurable CPU overhead per
//! span, so the overhead-vs-sampling-rate experiment (Dapper's "<1.5%")
//! has something real to measure.
//!
//! # One protocol, two deliveries
//!
//! The request protocol is written once, as the handlers of a shard
//! (`cluster/shard.rs`). A shard owns a contiguous range of chunkservers —
//! their station pools, hardware models and in-flight attempts — and
//! shard 0 also runs the **control plane**: the workload generator (the
//! only consumer of the workload RNG stream), the master (placement and
//! repair decisions), client metadata caches, attempt timeouts and the
//! outcome ledger. Every client↔server and control↔serving interaction
//! (`Attempt`, `Cancel`, `Rerep` one way; `Done`, `Commit`, `RerepDone`
//! the other) goes through one `send`, whose delivery is chosen by the
//! shard count alone:
//!
//! - **Direct** ([`Cluster::run`], and [`Cluster::run_sharded`] when the
//!   count clamps to 1): one shard over every server, placed by
//!   [`Master::place`]. `send` calls the receiving handler synchronously
//!   and the plain engine loop drains the heap.
//! - **Barrier** ([`Cluster::run_sharded`] with N>1 shards): one engine
//!   per shard over [`Master::place_grouped`]'s group-aligned placement,
//!   so write fanout and repair never leave a shard. `send` buffers into
//!   the shard's outbox; the shards advance in lockstep windows and
//!   messages are delivered at each barrier in canonical `(send time,
//!   sending shard, send seq)` order (see [`kooza_sim::ShardedEngine`]).
//!   All randomness lives on the control shard, so the output is
//!   byte-identical at any thread count for a fixed shard count.
//!
//! A Barrier run is a different deterministic simulation of the same
//! cluster: besides the placement, each hop lands at the next window
//! boundary. Three further divergences, all confined to fault runs, live
//! at the delivery boundary:
//!
//! - **(a) Cancel salvage** (`Shard::on_cancel`). When a timeout cancels an
//!   attempt, Direct folds its phases, phase start, CPU busy time,
//!   cache-hit and degraded flags back into the request, so a retried
//!   request's CPU and span tree include its cancelled attempts. Barrier
//!   drops them. Each attempt starts from the request's counters so far,
//!   so Direct CPU records stay cumulative.
//! - **(b) Replica set** (`Attempt::replicas`). Direct write fanout and
//!   stand-in dedup read the master's live placement; Barrier reads the
//!   snapshot taken at dispatch.
//! - **(c) Completion racing its timeout.** Direct cancels the timer the
//!   instant the attempt completes; under Barrier a completion delivered
//!   in the window its timeout fires arrives stale and the request
//!   retries. Nothing implements this: it is the delivery delay.

use kooza_sim::{shard_ranges, Fabric, ShardedEngine, SimDuration, SimTime, Tally};
use kooza_trace::TraceSet;

use crate::config::ClusterConfig;
use crate::fault::FaultPlan;
use crate::master::Master;
use shard::{Control, Delivery, Ev, Shard, ShardMsg};

mod shard;

/// The default shard count for a cluster: one shard per ~8 chunkservers,
/// capped at 8 — small clusters (including [`ClusterConfig::small`]) stay
/// on one shard. Derived from the configuration only, never from the
/// host, so "auto" is the same simulation on every machine.
/// [`Cluster::run_sharded`] further clamps with [`effective_shards`].
pub fn default_shards(config: &ClusterConfig) -> usize {
    (config.n_chunkservers / 8).clamp(1, 8)
}

/// The shard count a request actually runs with: every group must hold a
/// full replica set, so at most `n_chunkservers / replication` groups.
pub fn effective_shards(config: &ClusterConfig, requested: usize) -> usize {
    requested
        .min(config.n_chunkservers / config.replication.max(1))
        .max(1)
}

/// Window width for a configuration: ~50 mean request gaps, clamped to
/// [0.2 ms, 20 ms]. Wide enough that most events stay window-local,
/// narrow enough that the one-window hop latency stays small against
/// request service times. The simulation, not the host, decides the
/// barrier cadence.
fn window_width(config: &ClusterConfig) -> SimDuration {
    SimDuration::from_secs_f64(
        (config.workload.mean_interarrival_secs * 50.0).clamp(2.0e-4, 2.0e-2),
    )
}

/// The run's fault plan, if faults are armed. The horizon derives only
/// from the run parameters — never from elapsed wall time or event counts
/// — so the plan is identical at any thread count. Twice the expected
/// workload span plus slack covers retry-stretched tails.
fn fault_plan(cfg: &ClusterConfig, n_requests: u64) -> Option<FaultPlan> {
    cfg.faults.map(|f| {
        let horizon = SimDuration::from_secs_f64(
            n_requests as f64 * cfg.workload.mean_interarrival_secs * 2.0 + 120.0,
        );
        FaultPlan::generate(&f, cfg.n_chunkservers, horizon)
    })
}

/// One independent run specification for [`Cluster::run_trials`]: a
/// request count plus the workload seed driving it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trial {
    /// Requests to issue.
    pub n_requests: u64,
    /// Workload seed (controls arrivals, sizes, placement targets).
    pub seed: u64,
}

/// Summary of one completed request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestOutcome {
    /// Global request id.
    pub id: u64,
    /// `true` for reads, `false` for writes.
    pub is_read: bool,
    /// Request payload size, bytes.
    pub size: u64,
    /// End-to-end latency in nanoseconds.
    pub latency_nanos: u64,
    /// Whether the request's trace was sampled.
    pub sampled: bool,
    /// CPU busy time attributed to the request, nanoseconds.
    pub cpu_busy_nanos: u64,
    /// Whether the buffer cache absorbed the read.
    pub cache_hit: bool,
    /// Retry attempts the client made beyond the first.
    pub retries: u32,
    /// Whether the request rode through a fault: it retried or its disk
    /// I/O ran inside a degraded (post-recovery) window.
    pub faulted: bool,
    /// Whether the client abandoned the request after exhausting retries.
    pub failed: bool,
}

/// Fault-path counters for one run; all zeros when faults are disabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Chunkserver crash events delivered.
    pub crashes: u64,
    /// Chunkserver recovery events delivered.
    pub recoveries: u64,
    /// Client retry attempts issued.
    pub retries: u64,
    /// Attempt timeouts that fired.
    pub timeouts: u64,
    /// Retries that switched to a different chunkserver.
    pub failovers: u64,
    /// Client packets lost to link drops.
    pub link_drops: u64,
    /// Replica placements repaired (master-driven plus write-triggered).
    pub rereplications: u64,
    /// Requests abandoned after exhausting retries.
    pub requests_failed: u64,
    /// In-service and queued station jobs destroyed by crashes.
    pub jobs_lost: u64,
    /// Completed requests that retried or touched a degraded disk.
    pub degraded_requests: u64,
}

/// Aggregate simulation statistics.
#[derive(Debug, Clone)]
pub struct ClusterStats {
    /// Requests completed (excludes requests that failed under faults).
    pub completed: u64,
    /// Latency distribution (seconds).
    pub latency_secs: Tally,
    /// Simulated makespan, seconds.
    pub makespan_secs: f64,
    /// Per-chunkserver CPU utilization.
    pub cpu_utilization: Vec<f64>,
    /// Per-chunkserver disk utilization.
    pub disk_utilization: Vec<f64>,
    /// Buffer-cache hit ratio per chunkserver.
    pub cache_hit_ratio: Vec<f64>,
    /// Total CPU busy time across servers, seconds.
    pub total_cpu_busy_secs: f64,
    /// CPU time spent on tracing instrumentation, seconds.
    pub tracing_busy_secs: f64,
    /// Master CPU utilization (0 when the master path is disabled).
    pub master_utilization: f64,
    /// Client metadata-cache hit ratio (1 when the master path is disabled).
    pub metadata_hit_ratio: f64,
    /// Simulation events the engine processed.
    pub events_processed: u64,
    /// Deepest the engine's pending-event queue ever got.
    pub pending_high_water: u64,
    /// Requests dispatched to each chunkserver, by the primary of their
    /// last attempt; a request that never reached a server counts nowhere.
    pub requests_per_server: Vec<u64>,
    /// Deepest any of a chunkserver's station queues (CPU, disk, net in,
    /// net out) ever got, per server.
    pub queue_high_water_per_server: Vec<u64>,
    /// Fault-path counters (all zeros when `ClusterConfig::faults` is
    /// `None`).
    pub faults: FaultStats,
}

impl ClusterStats {
    /// Completed requests per simulated second.
    pub fn throughput_per_sec(&self) -> f64 {
        if self.makespan_secs > 0.0 {
            self.completed as f64 / self.makespan_secs
        } else {
            0.0
        }
    }

    /// Fraction of CPU work that went to tracing instrumentation.
    pub fn tracing_overhead_fraction(&self) -> f64 {
        if self.total_cpu_busy_secs > 0.0 {
            self.tracing_busy_secs / self.total_cpu_busy_secs
        } else {
            0.0
        }
    }
}

/// Everything a run produces.
#[derive(Debug)]
pub struct ClusterOutcome {
    /// The collected multi-subsystem trace (whole cluster).
    pub trace: TraceSet,
    /// Aggregate statistics.
    pub stats: ClusterStats,
    /// Per-request outcomes, completion order.
    pub requests: Vec<RequestOutcome>,
    /// The chunkserver each request was last dispatched to, by request
    /// id; `None` for a request that never reached a server.
    server_of: Vec<Option<usize>>,
}

impl ClusterOutcome {
    /// The trace split by the chunkserver that served each request, one
    /// set per chunkserver — §4: "Scaling to multiple servers in order to
    /// simulate real-application scenarios requires multiple instances of
    /// the model", and each instance trains on its own server's trace.
    ///
    /// Built on demand in one pass over each stream, so every set keeps
    /// the trace's time order. A server that served nothing gets an empty
    /// set.
    pub fn server_traces(&self) -> Vec<TraceSet> {
        let server = |rid: u64| {
            self.server_of[rid as usize].expect("records exist only for dispatched requests")
        };
        let mut sets = vec![TraceSet::new(); self.stats.requests_per_server.len()];
        for r in &self.trace.storage {
            sets[server(r.request_id)].storage.push(*r);
        }
        for r in &self.trace.cpu {
            sets[server(r.request_id)].cpu.push(*r);
        }
        for r in &self.trace.memory {
            sets[server(r.request_id)].memory.push(*r);
        }
        for r in &self.trace.network {
            sets[server(r.request_id)].network.push(*r);
        }
        for s in &self.trace.spans {
            sets[server(s.trace_id.0)].spans.push(s.clone());
        }
        sets
    }
}

/// The cluster simulator.
#[derive(Debug)]
pub struct Cluster {
    config: ClusterConfig,
    master: Master,
}

impl Cluster {
    /// Builds a cluster from a validated configuration.
    ///
    /// The configuration is borrowed and cloned exactly once, so callers
    /// can build many clusters (trial sweeps, per-rate sweeps) from one
    /// config without deep-copying it themselves.
    ///
    /// # Errors
    ///
    /// Returns [`crate::GfsError::InvalidConfig`] on bad parameters.
    pub fn new(config: &ClusterConfig) -> crate::Result<Self> {
        config.validate()?;
        // Placement is part of the cluster identity; derive its seed from
        // structure so `run(seed)` controls only the workload.
        let mut placement_rng =
            kooza_sim::rng::Rng64::new(0xC0FF_EE00 ^ config.n_chunkservers as u64);
        let master = Master::place(
            config.workload.n_chunks,
            config.n_chunkservers,
            config.replication,
            &mut placement_rng,
        )?;
        Ok(Cluster {
            config: config.clone(),
            master,
        })
    }

    /// Runs `trials.len()` independent simulations of `config` in
    /// parallel (one fresh cluster per trial) and returns the outcomes in
    /// trial order. Bit-identical to running each trial serially: every
    /// trial owns its own engine and RNG, and `kooza-exec` merges results
    /// in submission order.
    ///
    /// # Errors
    ///
    /// Returns [`crate::GfsError::InvalidConfig`] on bad parameters.
    pub fn run_trials(
        config: &ClusterConfig,
        trials: &[Trial],
    ) -> crate::Result<Vec<ClusterOutcome>> {
        config.validate()?;
        Ok(kooza_exec::par_map(trials, |t| {
            let mut cluster = Cluster::new(config).expect("config validated above");
            cluster.run(t.n_requests, t.seed)
        }))
    }

    /// The chunk-placement metadata.
    pub fn master(&self) -> &Master {
        &self.master
    }

    /// The configuration this cluster was built with.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Runs `n_requests` requests with the given workload seed, returning
    /// the trace, statistics and per-request outcomes. Deterministic:
    /// equal `(config, n_requests, seed)` gives identical outcomes.
    pub fn run(&mut self, n_requests: u64, seed: u64) -> ClusterOutcome {
        let cfg = &self.config;
        let all = 0..cfg.n_chunkservers;
        // Repairs rewrite placements during the run; the control plane
        // owns a copy so `run` stays idempotent on the cluster.
        let control = Control::new(
            cfg,
            n_requests,
            seed,
            self.master.clone(),
            vec![all.clone()],
        );
        let plan = fault_plan(cfg, n_requests);
        let mut shard = Shard::new(cfg, all, Delivery::Direct, plan, Some(control));
        shard.drain();
        self.assemble(vec![shard], None)
    }

    /// Runs `n_requests` requests with the given workload seed on
    /// `shards` time-windowed engines (Barrier delivery; see the module
    /// docs). `shards` is clamped so every shard's server group holds a
    /// full replica set; a request that clamps to 1 is [`Cluster::run`].
    ///
    /// Deterministic: equal `(config, n_requests, seed, shards)` gives
    /// identical outcomes at any worker-thread count.
    pub fn run_sharded(&mut self, n_requests: u64, seed: u64, shards: usize) -> ClusterOutcome {
        let cfg = &self.config;
        let n_shards = effective_shards(cfg, shards);
        if n_shards <= 1 {
            return self.run(n_requests, seed);
        }
        let ranges = shard_ranges(cfg.n_chunkservers, n_shards);
        // Group-aligned placement is part of the sharded cluster identity;
        // its seed derives from structure so `seed` controls only the
        // workload.
        let master = Master::place_grouped(
            cfg.workload.n_chunks,
            cfg.n_chunkservers,
            cfg.replication,
            n_shards,
            0xC0FF_EE00 ^ cfg.n_chunkservers as u64,
        )
        .expect("config validated and shards clamped");
        let plan = fault_plan(cfg, n_requests);
        let mut barrier: ShardedEngine<ShardMsg> = ShardedEngine::new(n_shards, window_width(cfg));
        let mut control = Some(Control::new(cfg, n_requests, seed, master, ranges.clone()));
        let mut shards: Vec<Shard> = barrier
            .outboxes()
            .into_iter()
            .zip(&ranges)
            .map(|(outbox, range)| {
                let delivery = Delivery::Barrier(outbox);
                Shard::new(cfg, range.clone(), delivery, plan.clone(), control.take())
            })
            .collect();

        // The window loop: step every shard (in parallel — each only
        // touches its own state), exchange mailboxes at the barrier in
        // canonical order, deliver at the boundary instant, repeat until
        // the cluster is quiescent. Fault transitions scheduled past that
        // point are abandoned, like the Direct early stop.
        loop {
            let until = barrier.window_end();
            kooza_exec::par_for_each_mut(&mut shards, |_, shard| shard.step(until));
            let inboxes = barrier.exchange(shards.iter_mut().filter_map(Shard::outbox));
            let delivered: usize = inboxes.iter().map(Vec::len).sum();
            for (shard, inbox) in shards.iter_mut().zip(inboxes) {
                for env in inbox {
                    shard.engine.schedule_at(until, Ev::Msg(Box::new(env.msg)));
                }
            }
            let settled = shards[0].control.as_ref().is_some_and(Control::settled);
            if delivered == 0 && settled && shards.iter().all(Shard::idle) {
                break;
            }
        }
        self.assemble(shards, Some(&barrier))
    }

    /// Assembles the outcome of finished shards: the control shard's trace
    /// (its records and every span) is moved out and the other shards'
    /// traces merge onto it in shard order (then time-sort), per-server
    /// stats come from each shard's disjoint range, and the request ledger
    /// from the control plane.
    fn assemble(
        &self,
        mut shards: Vec<Shard>,
        barrier: Option<&ShardedEngine<ShardMsg>>,
    ) -> ClusterOutcome {
        let n = self.config.n_chunkservers;
        let end = shards
            .iter()
            .map(|s| s.engine.now())
            .max()
            .expect("at least one shard");
        let mut ctl = shards[0]
            .control
            .take()
            .expect("shard 0 runs the control plane");
        let mut requests_per_server = vec![0u64; n];
        for &s in ctl.server_of.iter().flatten() {
            requests_per_server[s] += 1;
        }
        let mut cpu_utilization = vec![0.0; n];
        let mut disk_utilization = vec![0.0; n];
        let mut cache_hit_ratio = vec![0.0; n];
        let mut queue_high_water_per_server = vec![0u64; n];
        let mut total_cpu_busy = SimDuration::ZERO;
        let mut tracing_busy = SimDuration::ZERO;
        let mut events_processed = 0u64;
        let mut pending_high_water = 0u64;
        let mut fstats = ctl.fstats;
        let mut trace = std::mem::take(&mut shards[0].trace);
        for shard in &mut shards {
            for (s, server) in shard.range.clone().zip(&shard.servers) {
                cpu_utilization[s] = server.cpu_pool.utilization(end);
                disk_utilization[s] = server.disk_pool.utilization(end);
                cache_hit_ratio[s] = server.memory.hit_ratio();
                queue_high_water_per_server[s] = server.queue_high_water();
            }
            total_cpu_busy += shard.total_cpu_busy;
            tracing_busy += shard.tracing_busy;
            events_processed += shard.engine.processed();
            pending_high_water = pending_high_water.max(shard.engine.pending_high_water() as u64);
            fstats.jobs_lost += shard.jobs_lost;
            trace.merge(std::mem::take(&mut shard.trace));
        }
        let outcomes = std::mem::take(&mut ctl.outcomes);
        fstats.degraded_requests =
            outcomes.iter().filter(|o| o.faulted && !o.failed).count() as u64;
        let stats = ClusterStats {
            completed: outcomes.iter().filter(|o| !o.failed).count() as u64,
            latency_secs: ctl.latency.clone(),
            makespan_secs: end.as_secs_f64(),
            cpu_utilization,
            disk_utilization,
            cache_hit_ratio,
            total_cpu_busy_secs: total_cpu_busy.as_secs_f64(),
            tracing_busy_secs: tracing_busy.as_secs_f64(),
            master_utilization: ctl.master_pool.utilization(end),
            metadata_hit_ratio: ctl.metadata_hit_ratio(),
            events_processed,
            pending_high_water,
            requests_per_server,
            queue_high_water_per_server,
            faults: fstats,
        };
        self.publish_metrics(&stats, &outcomes);
        let fabrics: Vec<&Fabric> = shards
            .iter()
            .filter_map(|s| s.fabric.as_ref().map(|f| &f.fabric))
            .collect();
        Self::publish_fabric_metrics(&fabrics, end);
        if let Some(barrier) = barrier.filter(|_| kooza_obs::global::is_enabled()) {
            kooza_obs::global::with_registry(|reg| {
                reg.counter_add("sim.shard.shards", shards.len() as u64);
                reg.counter_add("sim.shard.windows", barrier.windows());
                reg.counter_add("sim.shard.messages", barrier.messages());
            });
        }
        trace.sort_by_time();
        ClusterOutcome {
            trace,
            stats,
            requests: outcomes,
            server_of: ctl.server_of,
        }
    }

    /// Publishes one finished run's aggregate metrics to the global
    /// observability registry (no-op unless `--obs` enabled it).
    ///
    /// Runs may execute inside `par_map` workers (`run_trials`), so only
    /// commutative operations appear here — counter adds, gauge maxima,
    /// integer histogram records — keeping the registry state identical
    /// at any thread count. One `with_registry` call takes the lock once
    /// per run, not once per event.
    fn publish_metrics(&self, stats: &ClusterStats, outcomes: &[RequestOutcome]) {
        if !kooza_obs::global::is_enabled() {
            return;
        }
        /// Request latency buckets, nanoseconds: 1µs … 10s by decades.
        const LATENCY_BOUNDS: &[u64] = &[
            1_000,
            10_000,
            100_000,
            1_000_000,
            10_000_000,
            100_000_000,
            1_000_000_000,
            10_000_000_000,
        ];
        /// Per-server request-count buckets.
        const REQUESTS_BOUNDS: &[u64] = &[1, 10, 100, 1_000, 10_000, 100_000, 1_000_000];
        /// Station queue-depth buckets.
        const QUEUE_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512];
        kooza_obs::global::with_registry(|reg| {
            reg.counter_add("gfs.requests_completed", stats.completed);
            reg.counter_add("gfs.events_processed", stats.events_processed);
            reg.counter_add("gfs.runs", 1);
            reg.gauge_max("gfs.pending_high_water", stats.pending_high_water as f64);
            let latency = reg.histogram_mut("gfs.request_latency_nanos", LATENCY_BOUNDS);
            for outcome in outcomes {
                latency.record(outcome.latency_nanos);
            }
            let per_server = reg.histogram_mut("gfs.server.requests", REQUESTS_BOUNDS);
            for &n in &stats.requests_per_server {
                per_server.record(n);
            }
            let queues = reg.histogram_mut("gfs.server.queue_high_water", QUEUE_BOUNDS);
            for &depth in &stats.queue_high_water_per_server {
                queues.record(depth);
            }
            // Fault counters only exist when faults are configured, so a
            // healthy run's report stays byte-identical to before.
            if self.config.faults.is_some() {
                let f = &stats.faults;
                reg.counter_add("gfs.fault.crashes", f.crashes);
                reg.counter_add("gfs.fault.recoveries", f.recoveries);
                reg.counter_add("gfs.fault.retries", f.retries);
                reg.counter_add("gfs.fault.timeouts", f.timeouts);
                reg.counter_add("gfs.fault.failovers", f.failovers);
                reg.counter_add("gfs.fault.link_drops", f.link_drops);
                reg.counter_add("gfs.fault.rereplications", f.rereplications);
                reg.counter_add("gfs.fault.requests_failed", f.requests_failed);
                reg.counter_add("gfs.fault.jobs_lost", f.jobs_lost);
                let degraded =
                    reg.histogram_mut("gfs.fault.degraded_latency_nanos", LATENCY_BOUNDS);
                for outcome in outcomes.iter().filter(|o| o.faulted && !o.failed) {
                    degraded.record(outcome.latency_nanos);
                }
            }
        });
    }

    /// Publishes the run's fabric counters and per-link utilization to
    /// the observability registry (nothing under `--topology none`, so
    /// those reports keep the pre-fabric format). Each shard of a sharded
    /// run holds its own fabric over the global host space, so the
    /// counters and each link's utilization are summed across shard
    /// fabrics in shard order, and every link is recorded once whatever
    /// the shard count. Shard fabrics do not see each other's flows, so a
    /// summed link can exceed 100% (the histogram's overflow bucket).
    /// Commutative operations only (counter adds, histogram records),
    /// since `run_trials` runs publish from parallel workers.
    fn publish_fabric_metrics(fabrics: &[&Fabric], end: SimTime) {
        let Some((first, rest)) = fabrics.split_first() else {
            return;
        };
        if !kooza_obs::global::is_enabled() {
            return;
        }
        /// Per-link utilization buckets, percent of capacity.
        const UTIL_BOUNDS: &[u64] = &[1, 5, 10, 25, 50, 75, 90, 99, 100];
        let mut utilization = first.link_utilization(end);
        for f in rest {
            for (u, v) in utilization.iter_mut().zip(f.link_utilization(end)) {
                *u += v;
            }
        }
        let flows = fabrics.iter().map(|f| f.flows_started()).sum();
        let rerates = fabrics.iter().map(|f| f.rerates()).sum();
        let busy = fabrics.iter().map(|f| f.bottleneck_busy().as_nanos()).sum();
        kooza_obs::global::with_registry(|reg| {
            reg.counter_add("net.fabric.flows", flows);
            reg.counter_add("net.fabric.rerates", rerates);
            reg.counter_add("net.fabric.bottleneck_busy", busy);
            let links = reg.histogram_mut("net.fabric.link_utilization", UTIL_BOUNDS);
            for &u in &utilization {
                links.record((u * 100.0).round() as u64);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Topology, WorkloadMix};
    use kooza_trace::record::IoOp;

    fn run_small(mix: WorkloadMix, n: u64, seed: u64) -> ClusterOutcome {
        let mut config = ClusterConfig::small();
        config.workload = mix;
        Cluster::new(&config).unwrap().run(n, seed)
    }

    #[test]
    fn completes_every_request() {
        let out = run_small(WorkloadMix::mixed(), 500, 1);
        assert_eq!(out.stats.completed, 500);
        assert_eq!(out.requests.len(), 500);
        assert_eq!(out.trace.cpu.len(), 500);
        // One ingress + one egress network record per request.
        assert_eq!(out.trace.network.len(), 1000);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = run_small(WorkloadMix::mixed(), 300, 7);
        let b = run_small(WorkloadMix::mixed(), 300, 7);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.requests, b.requests);
        let c = run_small(WorkloadMix::mixed(), 300, 8);
        assert_ne!(a.trace, c.trace);
    }

    #[test]
    fn read_heavy_mix_produces_reads() {
        let out = run_small(WorkloadMix::read_heavy(), 400, 2);
        assert!(out.requests.iter().all(|r| r.is_read));
        assert!(out.trace.storage.iter().all(|r| r.op == IoOp::Read));
        // 64 KB reads.
        assert!(out.requests.iter().all(|r| r.size == 64 * 1024));
    }

    #[test]
    fn write_latency_exceeds_read_latency() {
        let reads = run_small(WorkloadMix::read_heavy(), 300, 3);
        let writes = run_small(WorkloadMix::write_heavy(), 300, 3);
        assert!(
            writes.stats.latency_secs.mean() > 3.0 * reads.stats.latency_secs.mean(),
            "writes {} reads {}",
            writes.stats.latency_secs.mean(),
            reads.stats.latency_secs.mean()
        );
    }

    #[test]
    fn cache_hits_happen_and_skip_disk() {
        // Hot working set: fewer chunks than cache slots.
        let mix = WorkloadMix {
            n_chunks: 16,
            ..WorkloadMix::read_heavy()
        };
        let out = run_small(mix, 1000, 4);
        assert!(
            out.stats.cache_hit_ratio[0] > 0.5,
            "hit ratio {}",
            out.stats.cache_hit_ratio[0]
        );
        let hits = out.requests.iter().filter(|r| r.cache_hit).count();
        assert!(hits > 500);
        // Disk records only for the misses.
        assert_eq!(out.trace.storage.len(), 1000 - hits);
        // Cache-hit reads are faster on average.
        let mean = |v: Vec<u64>| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
        let hit_lat = mean(
            out.requests
                .iter()
                .filter(|r| r.cache_hit)
                .map(|r| r.latency_nanos)
                .collect(),
        );
        let miss_lat = mean(
            out.requests
                .iter()
                .filter(|r| !r.cache_hit)
                .map(|r| r.latency_nanos)
                .collect(),
        );
        assert!(miss_lat > hit_lat, "miss {miss_lat} hit {hit_lat}");
    }

    #[test]
    fn span_trees_follow_figure_one() {
        let mix = WorkloadMix {
            n_chunks: 100_000,
            zipf_skew: 0.5,
            ..WorkloadMix::read_heavy()
        };
        let out = run_small(mix, 50, 5);
        let trees = out.trace.span_trees();
        assert_eq!(trees.len(), 50);
        for tree in &trees {
            let phases = tree.phase_sequence();
            // Cache misses: the full Figure-1 pipeline.
            if phases.len() == 6 {
                assert_eq!(
                    phases,
                    vec![
                        "network.in",
                        "cpu.lookup",
                        "memory",
                        "disk",
                        "cpu.aggregate",
                        "network.out"
                    ]
                );
            } else {
                // Cache hits skip the disk phase.
                assert_eq!(
                    phases,
                    vec![
                        "network.in",
                        "cpu.lookup",
                        "memory",
                        "cpu.aggregate",
                        "network.out"
                    ]
                );
            }
        }
    }

    #[test]
    fn sampling_reduces_spans_and_overhead() {
        let mut config = ClusterConfig::small();
        config.workload = WorkloadMix::read_heavy();
        config.trace_sampling = 10;
        let mut cluster = Cluster::new(&config).unwrap();
        let out = cluster.run(2000, 6);
        let sampled = out.requests.iter().filter(|r| r.sampled).count();
        assert!((100..400).contains(&sampled), "sampled {sampled}");
        // Only sampled requests have spans.
        assert_eq!(out.trace.span_trees().len(), sampled);
        // Overhead fraction shrinks accordingly.
        let mut full_config = ClusterConfig::small();
        full_config.workload = WorkloadMix::read_heavy();
        full_config.trace_sampling = 1;
        let full = Cluster::new(&full_config).unwrap().run(2000, 6);
        assert!(
            out.stats.tracing_overhead_fraction() < full.stats.tracing_overhead_fraction() / 4.0
        );
        // Sharded: the control shard's spans survive the Barrier merge.
        let mut sharded_config = ClusterConfig::cluster(12);
        sharded_config.trace_sampling = 10;
        assert_eq!(effective_shards(&sharded_config, 4), 4);
        let sharded = Cluster::new(&sharded_config)
            .unwrap()
            .run_sharded(1000, 6, 4);
        let sampled = sharded.requests.iter().filter(|r| r.sampled).count();
        assert!((50..200).contains(&sampled), "sampled {sampled}");
        assert_eq!(sharded.trace.span_trees().len(), sampled);
    }

    #[test]
    fn replication_touches_multiple_disks() {
        let mut config = ClusterConfig::cluster(3);
        config.workload = WorkloadMix::write_heavy();
        config.workload.mean_interarrival_secs = 0.2; // light load
        let mut cluster = Cluster::new(&config).unwrap();
        let out = cluster.run(100, 7);
        assert_eq!(out.stats.completed, 100);
        // All three disks saw traffic (replication fans writes out).
        for (i, u) in out.stats.disk_utilization.iter().enumerate() {
            assert!(*u > 0.0, "disk {i} idle");
        }
        // Replicated writes are slower than they would be unreplicated.
        let mut solo_config = ClusterConfig::cluster(3);
        solo_config.replication = 1;
        solo_config.workload = WorkloadMix::write_heavy();
        solo_config.workload.mean_interarrival_secs = 0.2;
        let solo = Cluster::new(&solo_config).unwrap().run(100, 7);
        assert!(
            out.stats.latency_secs.mean() > solo.stats.latency_secs.mean(),
            "replicated {} solo {}",
            out.stats.latency_secs.mean(),
            solo.stats.latency_secs.mean()
        );
    }

    #[test]
    fn cpu_utilization_is_modest_for_reads() {
        // The Table-2 shape: a 64 KB read spends a few percent of its
        // lifetime on CPU.
        let mix = WorkloadMix {
            n_chunks: 100_000,
            zipf_skew: 0.5,
            ..WorkloadMix::read_heavy()
        };
        let out = run_small(mix, 300, 8);
        let mean_util: f64 =
            out.trace.cpu.iter().map(|c| c.utilization).sum::<f64>() / out.trace.cpu.len() as f64;
        assert!(
            (0.005..0.25).contains(&mean_util),
            "per-request CPU utilization {mean_util}"
        );
    }

    #[test]
    fn memory_records_match_table_two_ratios() {
        let out = run_small(WorkloadMix::read_heavy(), 100, 9);
        for m in &out.trace.memory {
            assert_eq!(m.size, 64 * 1024 / 4); // 16 KB per 64 KB read
            assert_eq!(m.op, IoOp::Read);
        }
        let out = run_small(WorkloadMix::write_heavy(), 50, 9);
        for m in &out.trace.memory {
            assert_eq!(m.size, 4 * 1024 * 1024 / 16); // 256 KB per 4 MB write
            assert_eq!(m.op, IoOp::Write);
        }
    }

    #[test]
    fn master_path_disabled_by_default() {
        let out = run_small(WorkloadMix::read_heavy(), 100, 30);
        assert_eq!(out.stats.metadata_hit_ratio, 1.0);
        assert_eq!(out.stats.master_utilization, 0.0);
        // No master.lookup phases.
        for tree in out.trace.span_trees() {
            assert!(!tree.phase_sequence().contains(&"master.lookup"));
        }
    }

    #[test]
    fn master_path_adds_lookup_phase_on_misses() {
        let mut config = ClusterConfig::small();
        config.consult_master = true;
        config.workload = WorkloadMix {
            n_chunks: 100_000,
            zipf_skew: 0.5,
            ..WorkloadMix::read_heavy()
        };
        let mut cluster = Cluster::new(&config).unwrap();
        let out = cluster.run(300, 31);
        assert_eq!(out.stats.completed, 300);
        // Cold, huge working set: almost every lookup misses.
        assert!(
            out.stats.metadata_hit_ratio < 0.1,
            "hit {}",
            out.stats.metadata_hit_ratio
        );
        assert!(out.stats.master_utilization > 0.0);
        let with_lookup = out
            .trace
            .span_trees()
            .iter()
            .filter(|t| t.phase_sequence().first() == Some(&"master.lookup"))
            .count();
        assert!(
            with_lookup > 250,
            "only {with_lookup} requests consulted the master"
        );
    }

    #[test]
    fn metadata_cache_absorbs_hot_lookups() {
        let mut config = ClusterConfig::small();
        config.consult_master = true;
        config.workload = WorkloadMix {
            n_chunks: 50,
            ..WorkloadMix::read_heavy()
        };
        let mut cluster = Cluster::new(&config).unwrap();
        let out = cluster.run(1000, 32);
        // 50 chunks, 256-entry caches: everything hits after warmup.
        assert!(
            out.stats.metadata_hit_ratio > 0.8,
            "hit {}",
            out.stats.metadata_hit_ratio
        );
    }

    #[test]
    fn master_consult_increases_latency() {
        let mix = WorkloadMix {
            n_chunks: 100_000,
            zipf_skew: 0.5,
            ..WorkloadMix::read_heavy()
        };
        let mut with_cfg = ClusterConfig::small();
        with_cfg.consult_master = true;
        with_cfg.workload = mix;
        let with_master = Cluster::new(&with_cfg).unwrap().run(300, 33);
        let mut without_cfg = ClusterConfig::small();
        without_cfg.workload = mix;
        let without = Cluster::new(&without_cfg).unwrap().run(300, 33);
        assert!(
            with_master.stats.latency_secs.mean() > without.stats.latency_secs.mean(),
            "with {} without {}",
            with_master.stats.latency_secs.mean(),
            without.stats.latency_secs.mean()
        );
    }

    #[test]
    fn per_server_views_partition_the_trace() {
        let mut mixed = ClusterConfig::cluster(3);
        mixed.workload = WorkloadMix::mixed();
        // Nearly-permanent outages: most requests never dispatch, so they
        // leave no records and belong to no server.
        let faulty = faulty_config("mttf=0.5,mttr=60,timeout=0.2,retries=2,backoff=1");
        let runs = [
            Cluster::new(&mixed).unwrap().run(400, 11),
            Cluster::new(&faulty).unwrap().run(300, 17),
        ];
        for out in runs {
            let traces = out.server_traces();
            assert_eq!(traces.len(), out.stats.requests_per_server.len());
            let total: usize = traces.iter().map(TraceSet::len).sum();
            assert_eq!(total, out.trace.len());
            // Each set is the whole trace filtered to the requests its
            // server served: every record and span lands in the set of its
            // request's server, and in trace order. With the sizes summing
            // to the whole, no record is dropped or duplicated.
            fn keep<T: Clone>(
                items: &[T],
                id: impl Fn(&T) -> u64,
                mine: impl Fn(u64) -> bool,
            ) -> Vec<T> {
                items.iter().filter(|x| mine(id(x))).cloned().collect()
            }
            for (server, trace) in traces.iter().enumerate() {
                let mine = |id: u64| out.server_of[id as usize] == Some(server);
                let filtered = TraceSet {
                    storage: keep(&out.trace.storage, |r| r.request_id, mine),
                    cpu: keep(&out.trace.cpu, |r| r.request_id, mine),
                    memory: keep(&out.trace.memory, |r| r.request_id, mine),
                    network: keep(&out.trace.network, |r| r.request_id, mine),
                    spans: keep(&out.trace.spans, |s| s.trace_id.0, mine),
                };
                assert_eq!(*trace, filtered, "server {server}");
            }
        }
    }

    #[test]
    fn run_trials_matches_serial_runs() {
        let mut config = ClusterConfig::small();
        config.workload = WorkloadMix::mixed();
        let trials = [
            Trial {
                n_requests: 150,
                seed: 5,
            },
            Trial {
                n_requests: 150,
                seed: 6,
            },
            Trial {
                n_requests: 80,
                seed: 7,
            },
        ];
        let parallel = Cluster::run_trials(&config, &trials).unwrap();
        for (trial, out) in trials.iter().zip(&parallel) {
            let serial = Cluster::new(&config)
                .unwrap()
                .run(trial.n_requests, trial.seed);
            assert_eq!(out.trace, serial.trace, "seed {}", trial.seed);
            assert_eq!(out.requests, serial.requests, "seed {}", trial.seed);
        }
    }

    #[test]
    fn zero_requests_is_empty() {
        let out = run_small(WorkloadMix::mixed(), 0, 1);
        assert_eq!(out.stats.completed, 0);
        assert!(out.trace.is_empty());
    }

    /// An 8-server cluster on a rack fabric: 2 racks of 4, each uplink
    /// carrying half its hosts' aggregate bandwidth.
    fn rack_config(n: usize) -> ClusterConfig {
        let mut config = ClusterConfig::cluster(n);
        config.topology = Topology::Rack {
            servers_per_rack: 4,
            oversub: 2.0,
        };
        config.workload = WorkloadMix::mixed();
        config
    }

    #[test]
    fn fabric_mode_completes_every_request() {
        let out = Cluster::new(&rack_config(8)).unwrap().run(300, 41);
        assert_eq!(out.stats.completed, 300);
        assert_eq!(out.requests.len(), 300);
        // Same trace shape as the legacy path: one ingress + one egress
        // network record per request.
        assert_eq!(out.trace.network.len(), 600);
    }

    #[test]
    fn fabric_mode_is_deterministic_and_seed_sensitive() {
        let config = rack_config(8);
        let a = Cluster::new(&config).unwrap().run(250, 43);
        let b = Cluster::new(&config).unwrap().run(250, 43);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.requests, b.requests);
        let c = Cluster::new(&config).unwrap().run(250, 44);
        assert_ne!(a.trace, c.trace);
    }

    #[test]
    fn fabric_contention_slows_requests_versus_ideal_links() {
        // Heavy load on shared links must cost latency relative to the
        // legacy model, where every server owns an uncontended full-rate
        // link in each direction.
        let mut shared = rack_config(8);
        shared.workload.mean_interarrival_secs = 0.002;
        let mut ideal = shared.clone();
        ideal.topology = Topology::None;
        let on_fabric = Cluster::new(&shared).unwrap().run(300, 45);
        let on_links = Cluster::new(&ideal).unwrap().run(300, 45);
        assert_eq!(on_fabric.stats.completed, 300);
        assert!(
            on_fabric.stats.latency_secs.mean() > on_links.stats.latency_secs.mean(),
            "fabric {} ideal {}",
            on_fabric.stats.latency_secs.mean(),
            on_links.stats.latency_secs.mean()
        );
    }

    #[test]
    fn fabric_faulty_run_resolves_every_request() {
        let mut config = rack_config(8);
        config.workload.mean_interarrival_secs = 0.1;
        config.faults =
            Some(FaultSpec::parse("mttf=1.5,mttr=0.3,timeout=0.4,retries=10,detect=0.1").unwrap());
        let a = Cluster::new(&config).unwrap().run(400, 47);
        let f = &a.stats.faults;
        assert!(f.crashes > 0, "no crashes: {f:?}");
        assert_eq!(a.stats.completed + f.requests_failed, 400);
        let b = Cluster::new(&config).unwrap().run(400, 47);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.stats.faults, b.stats.faults);
    }

    use crate::fault::FaultSpec;

    /// A 4-server cluster under a harsh fault regime: ~1.5 s MTTF per
    /// server against a ~50 s workload guarantees crashes mid-run.
    fn faulty_config(spec: &str) -> ClusterConfig {
        let mut config = ClusterConfig::cluster(4);
        config.workload = WorkloadMix::mixed();
        config.workload.mean_interarrival_secs = 0.1;
        config.faults = Some(FaultSpec::parse(spec).unwrap());
        config
    }

    #[test]
    fn faulty_run_resolves_every_request() {
        let config = faulty_config("mttf=1.5,mttr=0.3,timeout=0.4,retries=10");
        let out = Cluster::new(&config).unwrap().run(500, 21);
        let f = &out.stats.faults;
        assert!(f.crashes > 0, "no crashes in 50 s at 1.5 s MTTF: {f:?}");
        assert_eq!(
            f.crashes,
            f.recoveries + (f.crashes - f.recoveries),
            "sanity"
        );
        assert!(f.retries > 0, "crashes but no retries: {f:?}");
        // Every request resolved: completed or explicitly failed.
        assert_eq!(out.stats.completed + f.requests_failed, 500);
        assert_eq!(out.requests.len(), 500);
        // Outcome flags agree with the counters.
        let failed = out.requests.iter().filter(|r| r.failed).count() as u64;
        assert_eq!(failed, f.requests_failed);
        let retried = out.requests.iter().filter(|r| r.retries > 0).count();
        assert!(retried > 0);
        assert!(out
            .requests
            .iter()
            .all(|r| !r.faulted || r.retries > 0 || !r.failed));
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let config = faulty_config("mttf=2,mttr=0.5,drop=0.02");
        let a = Cluster::new(&config).unwrap().run(300, 9);
        let b = Cluster::new(&config).unwrap().run(300, 9);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.stats.faults, b.stats.faults);
        // A different fault seed shifts the fault pattern but not the
        // request count.
        let other = faulty_config("mttf=2,mttr=0.5,drop=0.02,seed=77");
        let c = Cluster::new(&other).unwrap().run(300, 9);
        assert_eq!(c.requests.len(), 300);
        assert_ne!(a.stats.faults, c.stats.faults);
    }

    #[test]
    fn crashes_trigger_rereplication() {
        // Long down windows under a write workload: both the master-driven
        // and the write-triggered repair paths get exercised.
        let mut config = faulty_config("mttf=2,mttr=4,timeout=0.3,retries=12,detect=0.1");
        config.workload.read_fraction = 0.0;
        let out = Cluster::new(&config).unwrap().run(400, 13);
        let f = &out.stats.faults;
        assert!(f.crashes > 0, "{f:?}");
        assert!(f.rereplications > 0, "no replicas repaired: {f:?}");
        assert!(f.failovers > 0, "writes never failed over: {f:?}");
    }

    #[test]
    fn requests_fail_when_every_replica_stays_down() {
        // Nearly-permanent outages with a tiny retry budget: some requests
        // must exhaust their retries and fail.
        let config = faulty_config("mttf=0.5,mttr=60,timeout=0.2,retries=2,backoff=1");
        let out = Cluster::new(&config).unwrap().run(300, 17);
        let f = &out.stats.faults;
        assert!(f.requests_failed > 0, "nothing failed: {f:?}");
        assert!(out.stats.completed < 300);
        for r in out.requests.iter().filter(|r| r.failed) {
            assert_eq!(r.retries, 2, "failed before exhausting retries");
            assert!(r.faulted);
        }
    }

    #[test]
    fn requests_per_server_counts_only_dispatched_requests() {
        // Nearly-permanent outages: most requests never reach a server, and
        // none of those may be credited to one. (No link drops, so every
        // dispatched request has an ingress record.)
        let spec = "mttf=0.5,mttr=60,timeout=0.2,retries=2,backoff=1";
        let mut wide = ClusterConfig::cluster(12);
        wide.workload = faulty_config(spec).workload;
        wide.faults = faulty_config(spec).faults;
        let runs = [
            Cluster::new(&faulty_config(spec)).unwrap().run(300, 17),
            Cluster::new(&wide).unwrap().run_sharded(300, 17, 4),
        ];
        for out in runs {
            let dispatched: std::collections::HashSet<u64> = out
                .trace
                .network
                .iter()
                .filter(|r| r.direction == kooza_trace::record::Direction::Ingress)
                .map(|r| r.request_id)
                .collect();
            assert!(dispatched.len() < 300, "every request reached a server");
            let credited: u64 = out.stats.requests_per_server.iter().sum();
            assert_eq!(credited, dispatched.len() as u64);
        }
    }

    #[test]
    fn link_drops_are_survivable_and_counted() {
        let config = faulty_config("mttf=1000,mttr=0.1,drop=0.1,timeout=0.3,retries=10");
        let out = Cluster::new(&config).unwrap().run(400, 19);
        let f = &out.stats.faults;
        assert!(f.link_drops > 0, "10% drop over 400 requests: {f:?}");
        assert!(
            f.timeouts >= f.link_drops,
            "every drop must time out: {f:?}"
        );
        assert_eq!(out.stats.completed + f.requests_failed, 400);
    }

    #[test]
    fn disabled_faults_report_zero_fault_stats() {
        let out = run_small(WorkloadMix::mixed(), 200, 23);
        assert_eq!(out.stats.faults, FaultStats::default());
        assert!(out
            .requests
            .iter()
            .all(|r| !r.faulted && !r.failed && r.retries == 0));
    }

    // ---- sharded runs ----
    /// A cluster big enough for 4 groups of 3 (replication 3).
    fn sharded_config() -> ClusterConfig {
        let mut config = ClusterConfig::cluster(12);
        config.workload = WorkloadMix::mixed();
        config
    }

    #[test]
    fn one_shard_is_bit_identical_to_the_single_engine() {
        let config = ClusterConfig::small();
        let legacy = Cluster::new(&config).unwrap().run(300, 7);
        let sharded = Cluster::new(&config).unwrap().run_sharded(300, 7, 1);
        assert_eq!(legacy.trace, sharded.trace);
        assert_eq!(legacy.requests, sharded.requests);
        assert_eq!(legacy.stats.faults, sharded.stats.faults);
        // `small()` has 1 server: any shard request clamps to 1.
        let clamped = Cluster::new(&config).unwrap().run_sharded(300, 7, 8);
        assert_eq!(legacy.trace, clamped.trace);
    }

    #[test]
    fn effective_shards_respects_replication() {
        let config = sharded_config(); // 12 servers, replication 3
        assert_eq!(effective_shards(&config, 4), 4);
        assert_eq!(effective_shards(&config, 8), 4);
        assert_eq!(effective_shards(&config, 1), 1);
        assert_eq!(effective_shards(&ClusterConfig::small(), 8), 1);
        let mut big = ClusterConfig::cluster(64);
        assert_eq!(default_shards(&big), 8);
        big.n_chunkservers = 7;
        assert_eq!(default_shards(&big), 1);
    }

    #[test]
    fn sharded_run_completes_every_request() {
        let config = sharded_config();
        let out = Cluster::new(&config).unwrap().run_sharded(500, 1, 4);
        assert_eq!(out.stats.completed, 500);
        assert_eq!(out.requests.len(), 500);
        assert_eq!(out.trace.cpu.len(), 500);
        // One ingress + one egress network record per request.
        assert_eq!(out.trace.network.len(), 1000);
        // The request ids cover the full range exactly once.
        let mut ids: Vec<u64> = out.requests.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..500).collect::<Vec<u64>>());
        // Span trees still follow Figure 1.
        for tree in out.trace.span_trees() {
            let phases = tree.phase_sequence();
            assert!(phases.first() == Some(&"network.in"), "{phases:?}");
            assert!(phases.last() == Some(&"network.out"), "{phases:?}");
        }
    }

    #[test]
    fn sharded_run_is_deterministic_and_seed_sensitive() {
        let config = sharded_config();
        let a = Cluster::new(&config).unwrap().run_sharded(400, 9, 4);
        let b = Cluster::new(&config).unwrap().run_sharded(400, 9, 4);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.requests, b.requests);
        let c = Cluster::new(&config).unwrap().run_sharded(400, 10, 4);
        assert_ne!(a.trace, c.trace);
    }

    #[test]
    fn sharded_output_is_identical_at_any_thread_count() {
        let config = sharded_config();
        let baseline = kooza_exec::thread_override();
        let mut runs = Vec::new();
        for threads in [1usize, 2, 8] {
            kooza_exec::set_thread_override(Some(threads));
            runs.push(Cluster::new(&config).unwrap().run_sharded(400, 3, 4));
        }
        kooza_exec::set_thread_override(baseline);
        assert_eq!(runs[0].trace, runs[1].trace);
        assert_eq!(runs[0].trace, runs[2].trace);
        assert_eq!(runs[0].requests, runs[1].requests);
        assert_eq!(runs[0].requests, runs[2].requests);
    }

    #[test]
    fn sharded_faulty_run_resolves_every_request() {
        let mut config = sharded_config();
        config.workload.mean_interarrival_secs = 0.05;
        config.faults =
            Some(FaultSpec::parse("mttf=3,mttr=0.5,timeout=0.4,retries=10,detect=0.1").unwrap());
        let a = Cluster::new(&config).unwrap().run_sharded(400, 21, 4);
        let f = &a.stats.faults;
        assert!(f.crashes > 0, "no crashes: {f:?}");
        assert_eq!(a.stats.completed + f.requests_failed, 400);
        assert_eq!(a.requests.len(), 400);
        let failed = a.requests.iter().filter(|r| r.failed).count() as u64;
        assert_eq!(failed, f.requests_failed);
        // Deterministic under faults too.
        let b = Cluster::new(&config).unwrap().run_sharded(400, 21, 4);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.stats.faults, b.stats.faults);
    }

    #[test]
    fn sharded_writes_replicate_within_their_group() {
        let mut config = sharded_config();
        config.workload = WorkloadMix::write_heavy();
        config.workload.mean_interarrival_secs = 0.05;
        let out = Cluster::new(&config).unwrap().run_sharded(200, 5, 4);
        assert_eq!(out.stats.completed, 200);
        // Replication fans every write out inside its group: every group
        // has at least one busy disk, and per-request traffic stays in
        // the group that served it.
        let ranges = shard_ranges(12, 4);
        for range in &ranges {
            let busy = range.clone().any(|s| out.stats.disk_utilization[s] > 0.0);
            assert!(busy, "group {range:?} saw no disk traffic");
        }
    }

    #[test]
    fn sharded_fabric_run_completes_and_is_deterministic() {
        let mut config = sharded_config();
        config.topology = crate::config::Topology::Rack {
            servers_per_rack: 3,
            oversub: 1.5,
        };
        let a = Cluster::new(&config).unwrap().run_sharded(300, 51, 4);
        assert_eq!(a.stats.completed, 300);
        assert_eq!(a.trace.network.len(), 600);
        let b = Cluster::new(&config).unwrap().run_sharded(300, 51, 4);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.requests, b.requests);
        // One shard is `Cluster::run`.
        let legacy = Cluster::new(&config).unwrap().run(300, 51);
        let one = Cluster::new(&config).unwrap().run_sharded(300, 51, 1);
        assert_eq!(legacy.trace, one.trace);
    }

    #[test]
    fn zero_requests_sharded_is_empty() {
        let config = sharded_config();
        let out = Cluster::new(&config).unwrap().run_sharded(0, 1, 4);
        assert_eq!(out.stats.completed, 0);
        assert!(out.trace.is_empty());
    }
}
