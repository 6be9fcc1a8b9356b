//! The GFS request protocol, written once: a [`Shard`] owns a range of
//! chunkservers (and, on shard 0, the control plane) and handles every
//! event of a request's life. Client↔server and control↔serving hops go
//! through [`Shard::send`], whose [`Delivery`] (Direct for one shard,
//! Barrier for N) is where one-shard and N-shard runs part ways; the
//! `cluster` module docs list what differs.

use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

use kooza_sim::rng::Rng64;
use kooza_sim::{
    Endpoint, Engine, Fabric, Outbox, ServerPool, SimDuration, SimTime, Tally, TimerHandle,
};
use kooza_stats::dist::{DiscreteDistribution, Distribution, Exponential, Zipf};
use kooza_trace::record::{CpuRecord, Direction, IoOp, MemoryRecord, NetworkRecord, StorageRecord};
use kooza_trace::sampler::Sampler;
use kooza_trace::span::{Span, SpanId, SpanName, TraceId};
use kooza_trace::TraceSet;

use super::{FaultStats, RequestOutcome};
use crate::config::{ClusterConfig, Topology};
use crate::fault::FaultPlan;
use crate::hardware::{CpuModel, DiskModel, LinkModel, MemoryModel};
use crate::master::{ChunkHandle, Master, LBNS_PER_CHUNK};

/// Request ids at or above this mark are background re-replication jobs,
/// not client requests (client ids are issued sequentially from 0).
const REREP_BASE: u64 = 1 << 63;

/// Bytes moved per re-replication: one full 64 MB chunk.
const REREP_BYTES: u64 = 64 * 1024 * 1024;

const CONTROL: &str = "control events fire on shard 0";

/// Hashes the `u64` ids that key per-request and per-flow state with one
/// multiply instead of SipHash: the ids are sequential, not adversarial,
/// and no map keyed this way is ever iterated in an observable order.
#[derive(Debug, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(5) ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A map keyed by request, repair or flow id.
type IdMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;

/// What kind of request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Read,
    Write,
}

/// What a request asks for, drawn once by the generator.
#[derive(Debug, Clone, Copy)]
struct Spec {
    kind: Kind,
    size: u64,
    chunk: ChunkHandle,
    lbn: u64,
    sampled: bool,
    start: SimTime,
}

impl Spec {
    fn op(&self) -> IoOp {
        match self.kind {
            Kind::Read => IoOp::Read,
            Kind::Write => IoOp::Write,
        }
    }

    /// Memory footprint: metadata plus a slice of the buffer, a fixed
    /// fraction of payload (¼ for reads, 1/16 for writes), reproducing the
    /// 16 KB / 256 KB rows of the paper's Table 2.
    fn mem_size(&self) -> u64 {
        match self.kind {
            Kind::Read => (self.size / 4).max(64),
            Kind::Write => (self.size / 16).max(64),
        }
    }

    /// Ingress wire bytes: a small header for reads, the payload for
    /// writes. The payload a read moves shows up on egress, so recording
    /// it here would double-count it in replay.
    fn ingress_wire(&self) -> u64 {
        match self.kind {
            Kind::Read => 1024,
            Kind::Write => self.size,
        }
    }

    /// Egress wire bytes: the payload for reads, an ack for writes.
    fn egress_wire(&self) -> u64 {
        match self.kind {
            Kind::Read => self.size,
            Kind::Write => 1024,
        }
    }
}

/// How far a request (or one attempt of it) got: completed phase
/// intervals for span assembly plus the per-request counters.
#[derive(Debug, Default)]
struct Progress {
    /// Completed phase intervals: (name, start, end).
    phases: Vec<(&'static str, SimTime, SimTime)>,
    /// Start of the phase currently in progress.
    phase_started: SimTime,
    cpu_busy: SimDuration,
    cache_hit: bool,
    /// Whether any of the request's disk I/O ran on a degraded disk.
    degraded: bool,
}

impl Progress {
    /// Closes the phase in progress as `name` and starts the next at `now`.
    fn mark(&mut self, name: &'static str, now: SimTime) {
        self.phases.push((name, self.phase_started, now));
        self.phase_started = now;
    }

    /// What a new attempt starts from: the counters so far and room for
    /// the at most seven phases one attempt records.
    fn carry(&self) -> Progress {
        Progress {
            phases: Vec::with_capacity(8),
            ..*self
        }
    }

    /// Takes over a later attempt's progress (phases appended).
    fn absorb(&mut self, later: Progress) {
        let mut phases = std::mem::take(&mut self.phases);
        if phases.is_empty() {
            phases = later.phases;
        } else {
            phases.extend(later.phases);
        }
        *self = Progress { phases, ..later };
    }
}

/// Control-plane state of one in-flight request.
#[derive(Debug)]
struct Request {
    spec: Spec,
    /// The server the current attempt targets (0 before any target).
    server: usize,
    /// Current attempt number; events from older attempts are stale.
    attempt: u32,
    /// Retries issued so far.
    retries: u32,
    /// The live attempt's timeout timer, if faults are armed.
    timeout: Option<TimerHandle>,
    progress: Progress,
}

impl Request {
    /// The ledger entry of this request, resolved after `latency`.
    fn outcome(&self, id: u64, latency: SimDuration, failed: bool) -> RequestOutcome {
        RequestOutcome {
            id,
            is_read: self.spec.kind == Kind::Read,
            size: self.spec.size,
            latency_nanos: latency.as_nanos(),
            sampled: self.spec.sampled,
            cpu_busy_nanos: self.progress.cpu_busy.as_nanos(),
            cache_hit: self.progress.cache_hit,
            retries: self.retries,
            faulted: failed || self.retries > 0 || self.progress.degraded,
            failed,
        }
    }
}

/// Serving-side state of one attempt, sent by the control plane and
/// returned to it in `Done`.
#[derive(Debug)]
pub(super) struct Attempt {
    id: u64,
    attempt: u32,
    /// The primary serving this attempt.
    server: usize,
    spec: Spec,
    progress: Progress,
    pending_replicas: usize,
    /// Write-triggered re-replications riding on this write:
    /// `(dead_replica, stand_in)` pairs awaiting the stand-in's disk ack.
    replacements: Vec<(usize, usize)>,
    /// Divergence (b): the replica set write fanout and stand-in dedup
    /// consult. `None` reads the master's live placement (Direct); a
    /// Barrier attempt carries the snapshot taken at dispatch.
    replicas: Option<Vec<usize>>,
}

/// One background re-replication: disk read at `from`, network transfer
/// to `to`, disk write at `to`, then the placement commit.
#[derive(Debug, Clone, Copy)]
pub(super) struct RerepJob {
    chunk: ChunkHandle,
    dead: usize,
    from: usize,
    to: usize,
    lbn: u64,
}

/// A protocol message: `Attempt`/`Cancel`/`Rerep` flow control→serving;
/// `Done`/`Commit`/`RerepDone` flow serving→control (shard 0).
#[derive(Debug)]
pub(super) enum ShardMsg {
    /// Dispatch one client attempt to its target server.
    Attempt(Attempt),
    /// The client timed out attempt `attempt`; drop its serving state.
    Cancel { id: u64, attempt: u32 },
    /// Master repair command: copy a chunk between two servers.
    Rerep { rid: u64, job: RerepJob },
    /// An attempt completed at `at` (its egress transfer finished).
    Done { at: SimTime, attempt: Attempt },
    /// A write-triggered stand-in replica became durable.
    Commit {
        chunk: ChunkHandle,
        dead: usize,
        stand_in: usize,
    },
    /// A master-driven repair finished (`committed`) or was destroyed by
    /// a crash; either way it leaves the in-flight ledger.
    RerepDone {
        rid: u64,
        job: RerepJob,
        committed: bool,
    },
}

/// How [`Shard::send`] delivers a message.
#[derive(Debug)]
pub(super) enum Delivery {
    /// One shard: call the receiving handler synchronously.
    Direct,
    /// N>1 shards: buffer for the next window barrier.
    Barrier(Outbox<ShardMsg>),
}

/// What a station job is for: attempt `attempt` of request (or repair)
/// `id` at `server`, scheduled in the server's crash epoch `epoch`. A
/// completion from an older epoch was drained by a crash (skip it
/// entirely); one from an older attempt serves a cancelled attempt (do the
/// station bookkeeping, skip the request's progress).
#[derive(Debug, Clone, Copy)]
pub(super) struct Job {
    id: u64,
    server: usize,
    attempt: u32,
    epoch: u32,
}

/// Per-chunkserver resources.
///
/// Pool jobs carry what is needed to compute the service time *when the
/// job actually starts*: CPU jobs carry their precomputed busy time
/// (tracing overhead included), disk jobs carry `(lbn, size)` so the
/// seek reflects the head position at start, network jobs carry the wire
/// size.
#[derive(Debug)]
pub(super) struct Server {
    /// (job, stage, busy time)
    pub(super) cpu_pool: ServerPool<(Job, u8, SimDuration)>,
    /// (job, lbn, size, replica?)
    pub(super) disk_pool: ServerPool<(Job, u64, u64, bool)>,
    /// (job, wire bytes, replica?)
    pub(super) net_in_pool: ServerPool<(Job, u64, bool)>,
    /// (job, wire bytes)
    pub(super) net_out_pool: ServerPool<(Job, u64)>,
    disk: DiskModel,
    pub(super) memory: MemoryModel,
    cpu: CpuModel,
    link: LinkModel,
}

impl Server {
    fn new(cfg: &ClusterConfig) -> Server {
        Server {
            cpu_pool: ServerPool::new(cfg.cpu.cores),
            disk_pool: ServerPool::new(1),
            net_in_pool: ServerPool::new(1),
            net_out_pool: ServerPool::new(1),
            disk: DiskModel::new(cfg.disk),
            memory: MemoryModel::new(cfg.memory),
            cpu: CpuModel::new(cfg.cpu),
            link: LinkModel::new(cfg.link),
        }
    }

    /// Deepest any of the server's station queues ever got.
    pub(super) fn queue_high_water(&self) -> u64 {
        self.cpu_pool
            .queue_high_water()
            .max(self.disk_pool.queue_high_water())
            .max(self.net_in_pool.queue_high_water())
            .max(self.net_out_pool.queue_high_water()) as u64
    }

    /// Starts a disk job (computing the seek now) and schedules completion.
    /// `slowdown` > 1 stretches the service time (degraded disk); the
    /// exact-1.0 guard keeps the healthy path free of float round-trips.
    fn start_disk(
        &mut self,
        engine: &mut Engine<Ev>,
        slowdown: f64,
        (job, lbn, size, replica): (Job, u64, u64, bool),
    ) {
        let mut service = self.disk.access(lbn, size);
        if slowdown > 1.0 {
            service = SimDuration::from_secs_f64(service.as_secs_f64() * slowdown);
        }
        engine.schedule(service, Ev::DiskDone { job, replica });
    }
}

#[derive(Debug)]
pub(super) enum Ev {
    /// Generator tick: issue request `id`.
    NewRequest { id: u64 },
    /// Ingress transfer done (`replica` marks replication traffic).
    NetInDone { job: Job, replica: bool },
    /// CPU phase done (`stage` 1 = lookup, 2 = aggregate).
    CpuDone { job: Job, stage: u8 },
    /// Memory access done.
    MemDone { job: Job },
    /// Disk access done (`replica` marks replica writes).
    DiskDone { job: Job, replica: bool },
    /// Egress transfer done; the attempt is complete.
    NetOutDone { job: Job },
    /// Master location lookup finished for this request.
    MasterDone { id: u64 },
    /// A chunkserver goes down (pre-scheduled from the fault plan).
    Crash { server: usize },
    /// A crashed chunkserver comes back up.
    Recover { server: usize },
    /// A client attempt's timeout fired; retry or abandon.
    RequestTimeout { id: u64, attempt: u32 },
    /// The master repairs a chunk that lost `dead`'s replica.
    Rereplicate { chunk: ChunkHandle, dead: usize },
    /// The shared-fabric wake-up: the earliest flow finish or gate
    /// opening. Only scheduled when a rack topology is configured.
    FabricTick,
    /// A message delivered at a window barrier (Barrier delivery only).
    Msg(Box<ShardMsg>),
}

/// Interned span names for the tracing hot path.
///
/// Every traced request creates a handful of spans whose names come from
/// a fixed vocabulary of `&'static str` phase literals ("request",
/// "network.in", ...). Interning through this cache makes each span name
/// a refcount bump on a shared [`SpanName`] instead of a fresh string
/// allocation; the vocabulary is tiny, so a linear scan beats hashing.
#[derive(Debug, Default)]
struct NameCache(Vec<(&'static str, SpanName)>);

impl NameCache {
    /// The shared interned form of `name`.
    fn get(&mut self, name: &'static str) -> SpanName {
        if let Some((_, interned)) = self.0.iter().find(|(n, _)| *n == name) {
            return interned.clone();
        }
        let interned = SpanName::from(name);
        self.0.push((name, interned.clone()));
        interned
    }
}

/// Shared-fabric state for one engine: the fluid-flow fabric itself, the
/// completion event owed to each in-flight flow, and the single live
/// wake-up timer armed at the fabric's next internal boundary.
///
/// Transfers that would have gone through a server's NIC pools instead
/// become fabric flows; the stored event fires (at zero delay) when the
/// flow drains. Completions are emitted in ascending flow id, and flow
/// ids are issued in start order, so the schedule stays deterministic.
#[derive(Debug)]
pub(super) struct FabricState {
    pub(super) fabric: Fabric,
    done: IdMap<Ev>,
    tick: Option<TimerHandle>,
    /// Reused completion buffer for [`Fabric::advance_into`] — `sync`
    /// runs on every flow event, so it must not allocate per tick.
    completed: Vec<u64>,
}

impl FabricState {
    /// Builds fabric state when the config asks for a real topology;
    /// `Topology::None` keeps the legacy fixed-service links. The fabric
    /// spans the global host index space, so rack boundaries are the same
    /// at every shard count.
    fn build(cfg: &ClusterConfig) -> Option<FabricState> {
        match cfg.topology {
            Topology::None => None,
            Topology::Rack {
                servers_per_rack,
                oversub,
            } => Some(FabricState {
                fabric: Fabric::new(
                    cfg.n_chunkservers,
                    servers_per_rack,
                    oversub,
                    cfg.link.bandwidth_bytes_per_sec,
                    SimDuration::from_secs_f64(cfg.link.latency_secs),
                ),
                done: IdMap::default(),
                tick: None,
                completed: Vec::new(),
            }),
        }
    }

    /// Advances the fluid model to `now`, firing the completion event of
    /// every flow that drained.
    fn sync(&mut self, engine: &mut Engine<Ev>, now: SimTime) {
        self.fabric.advance_into(now, &mut self.completed);
        for &id in &self.completed {
            if let Some(ev) = self.done.remove(&id) {
                engine.schedule(SimDuration::ZERO, ev);
            }
        }
    }

    /// Re-arms the wake-up timer at the fabric's next boundary. The stale
    /// timer is cancelled first: a leftover tick past the last completion
    /// would stretch the measured makespan.
    fn rearm(&mut self, engine: &mut Engine<Ev>, now: SimTime) {
        if let Some(handle) = self.tick.take() {
            engine.cancel(handle);
        }
        if let Some(at) = self.fabric.next_change() {
            let delay = at.max(now) - now;
            self.tick = Some(engine.schedule_cancellable(delay, Ev::FabricTick));
        }
    }

    /// Starts a transfer; `done` fires when the flow drains.
    fn transfer(
        &mut self,
        engine: &mut Engine<Ev>,
        now: SimTime,
        from: Endpoint,
        to: Endpoint,
        bytes: u64,
        done: Ev,
    ) {
        self.sync(engine, now);
        let id = self.fabric.start_flow(from, to, bytes);
        self.done.insert(id, done);
        self.rearm(engine, now);
    }

    /// A chunkserver crashed: every flow crossing its access links dies
    /// with it (the completions never fire). Returns how many transfers
    /// were lost.
    fn fail_host(&mut self, engine: &mut Engine<Ev>, now: SimTime, host: usize) -> u64 {
        self.sync(engine, now);
        let dropped = self.fabric.fail_host(host);
        for id in &dropped {
            self.done.remove(id);
        }
        self.rearm(engine, now);
        dropped.len() as u64
    }

    /// The wake-up timer fired: advance and re-arm.
    fn on_tick(&mut self, engine: &mut Engine<Ev>, now: SimTime) {
        self.tick = None;
        self.sync(engine, now);
        self.rearm(engine, now);
    }
}

/// The control plane (shard 0 only): workload generation, master
/// metadata and repair decisions, client metadata caches and timeouts,
/// and the outcome ledger.
#[derive(Debug)]
pub(super) struct Control {
    cfg: ClusterConfig,
    n_requests: u64,
    rng: Rng64,
    /// Fault-path randomness (retry targets, link drops) on its own
    /// stream keyed by the trial seed, so the workload stream is the same
    /// with or without faults.
    fault_rng: Option<Rng64>,
    zipf: Zipf,
    gap: Exponential,
    /// Placement; repairs rewrite it during the run.
    master: Master,
    requests: IdMap<Request>,
    pub(super) master_pool: ServerPool<(u64, SimDuration)>,
    metadata_caches: Vec<VecDeque<ChunkHandle>>,
    metadata_lookups: u64,
    metadata_hits: u64,
    master_service: SimDuration,
    /// Dapper 1-in-N trace sampling, decided once per request id.
    sampler: Sampler,
    names: NameCache,
    /// The server each request was last dispatched to (`None` if it
    /// never left the client).
    pub(super) server_of: Vec<Option<usize>>,
    pub(super) outcomes: Vec<RequestOutcome>,
    pub(super) latency: Tally,
    /// Liveness of every server in the cluster.
    alive: Vec<bool>,
    pub(super) fstats: FaultStats,
    rerep_seq: u64,
    /// Master-driven repairs dispatched but not yet acknowledged.
    rerep_inflight: HashSet<u64>,
    finished: u64,
    /// Each shard's server range, and the shard owning each server.
    ranges: Vec<Range<usize>>,
    shard_of: Vec<usize>,
}

impl Control {
    /// A fresh control plane over `master`'s placement, seeded for one run.
    pub(super) fn new(
        cfg: &ClusterConfig,
        n_requests: u64,
        seed: u64,
        master: Master,
        ranges: Vec<Range<usize>>,
    ) -> Control {
        let mut shard_of = vec![0; cfg.n_chunkservers];
        for (g, range) in ranges.iter().enumerate() {
            shard_of[range.clone()].fill(g);
        }
        Control {
            n_requests,
            rng: Rng64::new(seed),
            fault_rng: cfg.faults.map(|f| Rng64::for_stream(f.seed, seed)),
            zipf: Zipf::new(cfg.workload.n_chunks, cfg.workload.zipf_skew)
                .expect("validated config"),
            gap: Exponential::with_mean(cfg.workload.mean_interarrival_secs)
                .expect("validated config"),
            master,
            requests: IdMap::default(),
            master_pool: ServerPool::new(1),
            metadata_caches: vec![VecDeque::new(); cfg.n_clients],
            metadata_lookups: 0,
            metadata_hits: 0,
            master_service: SimDuration::from_secs_f64(
                2.0 * cfg.link.latency_secs + cfg.master_lookup_secs,
            ),
            sampler: Sampler::one_in(cfg.trace_sampling),
            names: NameCache::default(),
            server_of: vec![None; n_requests as usize],
            outcomes: Vec::with_capacity(n_requests as usize),
            latency: Tally::new(),
            alive: vec![true; cfg.n_chunkservers],
            fstats: FaultStats::default(),
            rerep_seq: 0,
            rerep_inflight: HashSet::new(),
            finished: 0,
            ranges,
            shard_of,
            cfg: cfg.clone(),
        }
    }

    /// Client metadata-cache hit ratio (1 when the master path is off).
    pub(super) fn metadata_hit_ratio(&self) -> f64 {
        if self.metadata_lookups == 0 {
            1.0
        } else {
            self.metadata_hits as f64 / self.metadata_lookups as f64
        }
    }

    /// Every request resolved and no master-driven repair is in flight.
    pub(super) fn settled(&self) -> bool {
        self.finished == self.n_requests && self.rerep_inflight.is_empty()
    }

    /// The server an attempt goes to. Healthy runs use the placement's
    /// choice; with faults armed only live replicas qualify (a read picks
    /// one at random, a write takes the first live replica as primary) and
    /// `None` means every replica is down, so the attempt waits for its
    /// timeout. Retries draw from the fault stream.
    fn target(&mut self, kind: Kind, chunk: ChunkHandle, retry: bool) -> Option<usize> {
        let replicas = self.master.replicas(chunk);
        match (kind, self.cfg.faults.is_some()) {
            (Kind::Read, false) => Some(self.master.read_target(chunk, &mut self.rng)),
            (Kind::Write, false) => Some(self.master.primary(chunk)),
            (Kind::Read, true) => {
                let live: Vec<usize> = replicas
                    .iter()
                    .copied()
                    .filter(|&s| self.alive[s])
                    .collect();
                let rng = if retry {
                    self.fault_rng.as_mut().expect("fault mode")
                } else {
                    &mut self.rng
                };
                (!live.is_empty()).then(|| *rng.choose(&live))
            }
            (Kind::Write, true) => replicas.iter().copied().find(|&s| self.alive[s]),
        }
    }
}

/// One shard: a server range plus, on shard 0, the control plane.
#[derive(Debug)]
pub(super) struct Shard {
    pub(super) range: Range<usize>,
    pub(super) engine: Engine<Ev>,
    /// Owned servers, indexed by `server - range.start`.
    pub(super) servers: Vec<Server>,
    /// Liveness and crash epochs of owned servers.
    alive: Vec<bool>,
    epochs: Vec<u32>,
    /// Records of owned servers; on shard 0 also every sampled request's
    /// spans, written once as the request completes.
    pub(super) trace: TraceSet,
    /// Serving state of the attempts on owned servers, by request id.
    attempts: IdMap<Attempt>,
    rerep_jobs: IdMap<RerepJob>,
    delivery: Delivery,
    plan: Option<FaultPlan>,
    trace_overhead: SimDuration,
    pub(super) tracing_busy: SimDuration,
    pub(super) total_cpu_busy: SimDuration,
    pub(super) jobs_lost: u64,
    /// Rack-topology fabric. Group-aligned placement keeps every
    /// host↔host flow inside the shard; client hops attach at the spine.
    pub(super) fabric: Option<FabricState>,
    pub(super) control: Option<Control>,
}

impl Shard {
    /// A shard over `range`, with its fault transitions (every server's,
    /// on the control shard) and the first request arrival scheduled.
    pub(super) fn new(
        cfg: &ClusterConfig,
        range: Range<usize>,
        delivery: Delivery,
        plan: Option<FaultPlan>,
        mut control: Option<Control>,
    ) -> Shard {
        let mut engine: Engine<Ev> = Engine::new();
        if let Some(p) = &plan {
            let watched = if control.is_some() {
                0..cfg.n_chunkservers
            } else {
                range.clone()
            };
            for s in watched {
                for w in p.windows(s) {
                    engine.schedule_at(w.down, Ev::Crash { server: s });
                    engine.schedule_at(w.up, Ev::Recover { server: s });
                }
            }
        }
        if let Some(ctl) = control.as_mut().filter(|c| c.n_requests > 0) {
            let gap = SimDuration::from_secs_f64(ctl.gap.sample(&mut ctl.rng));
            engine.schedule(gap, Ev::NewRequest { id: 0 });
        }
        Shard {
            servers: range.clone().map(|_| Server::new(cfg)).collect(),
            alive: vec![true; range.len()],
            epochs: vec![0; range.len()],
            range,
            engine,
            trace: TraceSet::new(),
            attempts: IdMap::default(),
            rerep_jobs: IdMap::default(),
            delivery,
            plan,
            trace_overhead: SimDuration::from_secs_f64(cfg.tracing_overhead_secs),
            tracing_busy: SimDuration::ZERO,
            total_cpu_busy: SimDuration::ZERO,
            jobs_lost: 0,
            fabric: FabricState::build(cfg),
            control,
        }
    }

    /// Runs a Direct shard until its heap drains. With faults armed the
    /// heap holds crash/recover events out to the fault horizon, so the
    /// run stops once the control plane has settled — checked after a
    /// request completes and after each crash, recovery or fabric tick
    /// (an abandon or a repair commit alone does not end the run).
    pub(super) fn drain(&mut self) {
        let faults = self.plan.is_some();
        while let Some((now, ev)) = self.engine.next() {
            let checks = matches!(ev, Ev::Crash { .. } | Ev::Recover { .. } | Ev::FabricTick);
            let completed = self.control.as_ref().expect(CONTROL).latency.count();
            self.handle(now, ev);
            let ctl = self.control.as_ref().expect(CONTROL);
            if faults && (checks || ctl.latency.count() > completed) && ctl.settled() {
                break;
            }
        }
    }

    /// Processes every local event strictly before `until`.
    pub(super) fn step(&mut self, until: SimTime) {
        while self.engine.peek_time().is_some_and(|t| t < until) {
            let (now, ev) = self.engine.next().expect("peeked above");
            self.handle(now, ev);
        }
    }

    /// Whether no attempt or repair is in flight on this shard's servers.
    pub(super) fn idle(&self) -> bool {
        self.attempts.is_empty() && self.rerep_jobs.is_empty()
    }

    /// The Barrier outbox (`None` under Direct delivery).
    pub(super) fn outbox(&mut self) -> Option<&mut Outbox<ShardMsg>> {
        match &mut self.delivery {
            Delivery::Direct => None,
            Delivery::Barrier(outbox) => Some(outbox),
        }
    }

    /// Sends `msg` to shard `to`: handled now under Direct delivery,
    /// buffered for the barrier under Barrier delivery.
    fn send(&mut self, to: usize, now: SimTime, msg: ShardMsg) {
        match &mut self.delivery {
            Delivery::Direct => self.receive(now, msg),
            Delivery::Barrier(outbox) => outbox.send(to, now, msg),
        }
    }

    fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::NewRequest { id } => self.new_request(now, id),
            Ev::MasterDone { id } => self.master_done(now, id),
            Ev::RequestTimeout { id, attempt } => self.timeout(now, id, attempt),
            Ev::Rereplicate { chunk, dead } => self.rereplicate(now, chunk, dead),
            Ev::NetInDone { job, replica } => self.net_in_done(now, job, replica),
            Ev::CpuDone { job, stage } => self.cpu_done(now, job, stage),
            Ev::MemDone { job } => self.mem_done(now, job),
            Ev::DiskDone { job, replica } => self.disk_done(now, job, replica),
            Ev::NetOutDone { job } => self.net_out_done(now, job),
            Ev::Crash { server } => self.crash(now, server),
            Ev::Recover { server } => self.recover(server),
            Ev::FabricTick => {
                let fab = self
                    .fabric
                    .as_mut()
                    .expect("fabric ticks only exist with a topology");
                fab.on_tick(&mut self.engine, now);
            }
            Ev::Msg(msg) => self.receive(now, *msg),
        }
    }

    fn receive(&mut self, now: SimTime, msg: ShardMsg) {
        match msg {
            ShardMsg::Attempt(a) => self.on_attempt(now, a),
            ShardMsg::Cancel { id, attempt } => self.on_cancel(id, attempt),
            ShardMsg::Rerep { rid, job } => self.on_rerep(now, rid, job),
            ShardMsg::Done { at, attempt } => self.on_done(at, attempt),
            ShardMsg::Commit {
                chunk,
                dead,
                stand_in,
            } => {
                let ctl = self.control.as_mut().expect(CONTROL);
                ctl.master.replace_replica(chunk, dead, stand_in);
                ctl.fstats.rereplications += 1;
            }
            ShardMsg::RerepDone {
                rid,
                job,
                committed,
            } => {
                let ctl = self.control.as_mut().expect(CONTROL);
                ctl.rerep_inflight.remove(&rid);
                if committed {
                    ctl.master.replace_replica(job.chunk, job.dead, job.to);
                    ctl.fstats.rereplications += 1;
                }
            }
        }
    }

    // ---- control plane ------------------------------------------------

    /// Draws request `id`, then dispatches it or queues it behind the
    /// master lookup.
    fn new_request(&mut self, now: SimTime, id: u64) {
        let ctl = self.control.as_mut().expect(CONTROL);
        if id + 1 < ctl.n_requests {
            let gap = SimDuration::from_secs_f64(ctl.gap.sample(&mut ctl.rng));
            self.engine.schedule(gap, Ev::NewRequest { id: id + 1 });
        }
        let kind = if ctl.rng.chance(ctl.cfg.workload.read_fraction) {
            Kind::Read
        } else {
            Kind::Write
        };
        let size = match kind {
            Kind::Read => ctl.cfg.workload.read_size,
            Kind::Write => ctl.cfg.workload.write_size,
        };
        let chunk = ChunkHandle(ctl.zipf.sample(&mut ctl.rng) - 1);
        let target = ctl.target(kind, chunk, false);
        // Offset within the chunk, 512 B aligned, leaving room for the
        // access itself.
        let span_lbns = LBNS_PER_CHUNK
            .saturating_sub(size.div_ceil(512).max(1))
            .max(1);
        let lbn = ctl.master.chunk_base_lbn(chunk) + ctl.rng.next_bounded(span_lbns);
        let sampled = ctl.sampler.keep(TraceId(id));
        let spec = Spec {
            kind,
            size,
            chunk,
            lbn,
            sampled,
            start: now,
        };
        let progress = Progress {
            phase_started: now,
            ..Progress::default()
        };
        let st = Request {
            spec,
            server: target.unwrap_or(0),
            attempt: 0,
            retries: 0,
            timeout: None,
            progress,
        };
        ctl.requests.insert(id, st);
        // Metadata path: consult the master unless the client's location
        // cache already knows the chunk.
        let client = (id % ctl.cfg.n_clients as u64) as usize;
        let cached = !ctl.cfg.consult_master || {
            ctl.metadata_lookups += 1;
            let cache = &mut ctl.metadata_caches[client];
            let pos = cache.iter().position(|&c| c == chunk);
            if let Some(pos) = pos {
                cache.remove(pos);
                cache.push_back(chunk);
                ctl.metadata_hits += 1;
            }
            pos.is_some()
        };
        // A request with no reachable replica skips the master path: there
        // is no location to look up, it just waits on its retry timer.
        if cached || target.is_none() {
            self.dispatch(now, id, target);
        } else {
            // The attempt timer covers the master wait too.
            self.arm_timeout(id);
            let ctl = self.control.as_mut().expect(CONTROL);
            if let Some((job, service)) = ctl.master_pool.arrive(now, (id, ctl.master_service)) {
                self.engine.schedule(service, Ev::MasterDone { id: job });
            }
        }
    }

    fn master_done(&mut self, now: SimTime, id: u64) {
        let ctl = self.control.as_mut().expect(CONTROL);
        if let Some((job, service)) = ctl.master_pool.complete(now) {
            self.engine.schedule(service, Ev::MasterDone { id: job });
        }
        // The request may have failed or moved on to a retry while the
        // lookup was queued; the pool bookkeeping above still had to happen.
        let Some(st) = ctl.requests.get_mut(&id) else {
            return;
        };
        if st.attempt != 0 {
            return;
        }
        st.progress.mark("master.lookup", now);
        let target = Some(st.server);
        // Cache the location for this client (LRU).
        let cache = &mut ctl.metadata_caches[(id % ctl.cfg.n_clients as u64) as usize];
        cache.push_back(st.spec.chunk);
        while cache.len() > ctl.cfg.client_metadata_cache.max(1) {
            cache.pop_front();
        }
        self.dispatch(now, id, target);
    }

    /// Dispatches one client attempt: records the ingress and sends the
    /// attempt to its server (unless no live target exists or the link
    /// drops the packet), then arms the attempt's timeout when faults are
    /// on.
    fn dispatch(&mut self, now: SimTime, id: u64, target: Option<usize>) {
        let ctl = self.control.as_mut().expect(CONTROL);
        // The target may have crashed between selection and dispatch
        // (master lookups take time); an unreachable target just leaves
        // the timer to drive the retry.
        if let Some(server) = target.filter(|&s| ctl.alive[s]) {
            let st = ctl
                .requests
                .get_mut(&id)
                .expect("dispatching a live request");
            st.server = server;
            ctl.server_of[id as usize] = Some(server);
            let dropped = match (&ctl.cfg.faults, ctl.fault_rng.as_mut()) {
                (Some(f), Some(frng)) if f.link_drop > 0.0 => frng.chance(f.link_drop),
                _ => false,
            };
            if dropped {
                ctl.fstats.link_drops += 1;
            } else {
                self.trace.network.push(NetworkRecord {
                    ts_nanos: now.as_nanos(),
                    size: st.spec.ingress_wire(),
                    direction: Direction::Ingress,
                    request_id: id,
                });
                let replicas = match self.delivery {
                    Delivery::Direct => None,
                    Delivery::Barrier(_) => Some(ctl.master.replicas(st.spec.chunk).to_vec()),
                };
                let attempt = Attempt {
                    id,
                    attempt: st.attempt,
                    server,
                    spec: st.spec,
                    progress: st.progress.carry(),
                    pending_replicas: 0,
                    replacements: Vec::new(),
                    replicas,
                };
                let to = ctl.shard_of[server];
                self.send(to, now, ShardMsg::Attempt(attempt));
            }
        }
        self.arm_timeout(id);
    }

    /// Arms the current attempt's timeout unless one is already pending
    /// (no-op without faults).
    fn arm_timeout(&mut self, id: u64) {
        let ctl = self.control.as_mut().expect(CONTROL);
        let Some(f) = &ctl.cfg.faults else { return };
        let st = ctl.requests.get_mut(&id).expect("arming a live request");
        if st.timeout.is_none() {
            let ev = Ev::RequestTimeout {
                id,
                attempt: st.attempt,
            };
            st.timeout = Some(
                self.engine
                    .schedule_cancellable(f.timeout_for_attempt(st.attempt), ev),
            );
        }
    }

    /// A client attempt timed out: cancel it on its server, then retry
    /// (with failover) or abandon.
    fn timeout(&mut self, now: SimTime, id: u64, attempt: u32) {
        let ctl = self.control.as_mut().expect(CONTROL);
        let f = ctl.cfg.faults.expect("timeouts only exist under faults");
        let Some(st) = ctl.requests.get_mut(&id) else {
            return;
        };
        if st.attempt != attempt {
            return; // stale timer
        }
        st.timeout = None;
        let give_up = st.retries >= f.max_retries;
        ctl.fstats.timeouts += 1;
        let to = ctl.shard_of[st.server];
        self.send(to, now, ShardMsg::Cancel { id, attempt });
        let ctl = self.control.as_mut().expect(CONTROL);
        if give_up {
            let st = ctl.requests.remove(&id).expect("present above");
            ctl.fstats.requests_failed += 1;
            ctl.finished += 1;
            ctl.outcomes.push(st.outcome(id, now - st.spec.start, true));
            return;
        }
        let st = ctl.requests.get_mut(&id).expect("present above");
        st.retries += 1;
        st.attempt += 1;
        ctl.fstats.retries += 1;
        st.progress.mark("fault.retry", now);
        let (prev, kind, chunk) = (st.server, st.spec.kind, st.spec.chunk);
        let target = ctl.target(kind, chunk, true);
        if target.is_some_and(|t| t != prev) {
            ctl.fstats.failovers += 1;
        }
        self.dispatch(now, id, target);
    }

    /// An attempt completed: resolve its request, unless the client
    /// already timed that attempt out.
    fn on_done(&mut self, at: SimTime, a: Attempt) {
        let ctl = self.control.as_mut().expect(CONTROL);
        if ctl
            .requests
            .get(&a.id)
            .is_none_or(|st| st.attempt != a.attempt)
        {
            return; // timed out (and retried or failed) before the ack landed
        }
        let mut st = ctl.requests.remove(&a.id).expect("present above");
        if let Some(handle) = st.timeout.take() {
            self.engine.cancel(handle);
        }
        ctl.finished += 1;
        st.progress.absorb(a.progress);
        let total = at - st.spec.start;
        ctl.latency.record(total.as_secs_f64());
        ctl.outcomes.push(st.outcome(a.id, total, false));
        if st.spec.sampled {
            let tid = TraceId(a.id);
            let root = ctl.names.get("request");
            self.trace.spans.push(Span::new(
                tid,
                SpanId(0),
                None,
                root,
                st.spec.start.as_nanos(),
                at.as_nanos(),
            ));
            for (span_idx, (name, s, e)) in (1u64..).zip(st.progress.phases.iter()) {
                let name = ctl.names.get(name);
                self.trace.spans.push(Span::new(
                    tid,
                    SpanId(span_idx),
                    Some(SpanId(0)),
                    name,
                    s.as_nanos(),
                    e.as_nanos(),
                ));
            }
        }
    }

    /// The master repairs a chunk that lost `dead`'s replica. Source and
    /// target resolve at fire time, inside the dead server's shard.
    fn rereplicate(&mut self, now: SimTime, chunk: ChunkHandle, dead: usize) {
        let ctl = self.control.as_mut().expect(CONTROL);
        if ctl.alive[dead] {
            return; // recovered before detection finished
        }
        let reps = ctl.master.replicas(chunk);
        if !reps.contains(&dead) {
            return; // a write-triggered repair already won
        }
        let Some(from) = reps.iter().copied().find(|&s| s != dead && ctl.alive[s]) else {
            return; // no live source holds the chunk
        };
        let group = ctl.ranges[ctl.shard_of[dead]].clone();
        let Some(to) = group
            .into_iter()
            .find(|&s| ctl.alive[s] && !reps.contains(&s))
        else {
            return; // nowhere to put a new replica
        };
        let rid = REREP_BASE + ctl.rerep_seq;
        ctl.rerep_seq += 1;
        ctl.rerep_inflight.insert(rid);
        let job = RerepJob {
            chunk,
            dead,
            from,
            to,
            lbn: ctl.master.chunk_base_lbn(chunk),
        };
        let to_shard = ctl.shard_of[from];
        self.send(to_shard, now, ShardMsg::Rerep { rid, job });
    }

    // ---- serving --------------------------------------------------------

    /// An attempt arrives from the control plane: start its ingress.
    fn on_attempt(&mut self, now: SimTime, a: Attempt) {
        if !self.alive[a.server - self.range.start] {
            return; // crashed since dispatch; the timeout retries
        }
        let job = self.job(a.id, a.server, a.attempt);
        let wire = a.spec.ingress_wire();
        self.attempts.insert(a.id, a);
        self.ingress(now, Endpoint::Client, job, wire, false);
    }

    /// Drops the serving state of a timed-out attempt. Divergence (a),
    /// cancel salvage: under Direct delivery the attempt's progress
    /// (phases, CPU, cache hit, degraded flag) folds back into its
    /// request, so a retried request's CPU and span tree cover every
    /// attempt that reached a server; under Barrier delivery it is
    /// dropped.
    fn on_cancel(&mut self, id: u64, attempt: u32) {
        if self.attempts.get(&id).is_none_or(|a| a.attempt != attempt) {
            return;
        }
        let a = self.attempts.remove(&id).expect("present above");
        if let (Delivery::Direct, Some(ctl)) = (&self.delivery, self.control.as_mut()) {
            let st = ctl
                .requests
                .get_mut(&id)
                .expect("the request being retried");
            st.progress.absorb(a.progress);
        }
    }

    /// A repair command arrives: read the chunk at its source.
    fn on_rerep(&mut self, now: SimTime, rid: u64, job: RerepJob) {
        if !self.alive[job.from - self.range.start] {
            // The source died in transit; report the repair lost so the
            // control ledger doesn't leak.
            self.send(
                0,
                now,
                ShardMsg::RerepDone {
                    rid,
                    job,
                    committed: false,
                },
            );
            return;
        }
        self.rerep_jobs.insert(rid, job);
        self.offer_disk(now, self.job(rid, job.from, 0), job.lbn, REREP_BYTES, false);
    }

    /// A station job for attempt `attempt` of `id` at `server`, in the
    /// server's current crash epoch.
    fn job(&self, id: u64, server: usize, attempt: u32) -> Job {
        let epoch = self.epochs[server - self.range.start];
        Job {
            id,
            server,
            attempt,
            epoch,
        }
    }

    /// Whether a crash drained `job`'s station since it was scheduled.
    fn drained(&self, job: Job) -> bool {
        job.epoch != self.epochs[job.server - self.range.start]
    }

    /// The serving state of `job`'s attempt, if that attempt is current.
    fn current(&mut self, job: Job) -> Option<&mut Attempt> {
        self.attempts
            .get_mut(&job.id)
            .filter(|a| a.attempt == job.attempt)
    }

    /// Disk service-time multiplier for a server right now (1 = healthy).
    fn slowdown(&self, server: usize, now: SimTime) -> f64 {
        self.plan
            .as_ref()
            .map_or(1.0, |p| p.disk_slowdown(server, now))
    }

    /// Moves `bytes` into `job`'s server: a fabric flow under a rack
    /// topology, else the server's ingress NIC queue.
    fn ingress(&mut self, now: SimTime, from: Endpoint, job: Job, bytes: u64, replica: bool) {
        if let Some(fab) = self.fabric.as_mut() {
            let done = Ev::NetInDone { job, replica };
            fab.transfer(
                &mut self.engine,
                now,
                from,
                Endpoint::Host(job.server),
                bytes,
                done,
            );
            return;
        }
        let server = &mut self.servers[job.server - self.range.start];
        if let Some((job, wire, replica)) = server.net_in_pool.arrive(now, (job, bytes, replica)) {
            self.engine
                .schedule(server.link.transfer(wire), Ev::NetInDone { job, replica });
        }
    }

    /// Offers a disk access to `job`'s server; starts it if the disk is idle.
    fn offer_disk(&mut self, now: SimTime, job: Job, lbn: u64, size: u64, replica: bool) {
        let slow = self.slowdown(job.server, now);
        let server = &mut self.servers[job.server - self.range.start];
        if let Some(started) = server.disk_pool.arrive(now, (job, lbn, size, replica)) {
            server.start_disk(&mut self.engine, slow, started);
        }
    }

    /// Offers `job`'s CPU stage (1 = lookup over the request header, 2 =
    /// aggregate over the payload), charging the tracing overhead to
    /// sampled requests.
    fn offer_cpu(&mut self, now: SimTime, job: Job, stage: u8) {
        let server = &mut self.servers[job.server - self.range.start];
        let st = self
            .attempts
            .get_mut(&job.id)
            .expect("offering CPU to a live attempt");
        let mut busy = server
            .cpu
            .phase(if stage == 1 { 1024 } else { st.spec.size });
        if st.spec.sampled {
            busy += self.trace_overhead;
            self.tracing_busy += self.trace_overhead;
        }
        st.progress.cpu_busy += busy;
        self.total_cpu_busy += busy;
        if let Some((job, stage, busy)) = server.cpu_pool.arrive(now, (job, stage, busy)) {
            self.engine.schedule(busy, Ev::CpuDone { job, stage });
        }
    }

    fn net_in_done(&mut self, now: SimTime, job: Job, replica: bool) {
        if self.drained(job) {
            return;
        }
        // Free the NIC; start the next queued ingress. (The fabric path
        // never touches the NIC pools.)
        if self.fabric.is_none() {
            let server = &mut self.servers[job.server - self.range.start];
            if let Some((next, wire, replica)) = server.net_in_pool.complete(now) {
                let done = Ev::NetInDone { job: next, replica };
                self.engine.schedule(server.link.transfer(wire), done);
            }
        }
        if job.id >= REREP_BASE {
            // The chunk copy landed on its new home: write it out. A
            // missing job means a crash aborted it.
            if let Some(r) = self.rerep_jobs.get(&job.id).copied() {
                self.offer_disk(now, job, r.lbn, REREP_BYTES, true);
            }
            return;
        }
        let Some(st) = self.current(job) else { return };
        if replica {
            // Replica data landed: write it to the replica disk.
            let (lbn, size) = (st.spec.lbn, st.spec.size);
            self.offer_disk(now, job, lbn, size, true);
        } else {
            st.progress.mark("network.in", now);
            self.offer_cpu(now, job, 1);
        }
    }

    fn cpu_done(&mut self, now: SimTime, job: Job, stage: u8) {
        if self.drained(job) {
            return;
        }
        let server = &mut self.servers[job.server - self.range.start];
        if let Some((next, next_stage, busy)) = server.cpu_pool.complete(now) {
            self.engine.schedule(
                busy,
                Ev::CpuDone {
                    job: next,
                    stage: next_stage,
                },
            );
        }
        let Some(st) = self
            .attempts
            .get_mut(&job.id)
            .filter(|a| a.attempt == job.attempt)
        else {
            return;
        };
        let spec = st.spec;
        let id = job.id;
        if stage == 1 {
            // Memory access (buffer cache + bank traffic).
            st.progress.mark("cpu.lookup", now);
            let bank = server.memory.bank_of(spec.chunk);
            let hit = server.memory.cache_access(spec.chunk);
            st.progress.cache_hit = spec.kind == Kind::Read && hit;
            let service = server.memory.access(bank, spec.mem_size());
            let (size, op) = (spec.mem_size(), spec.op());
            let ts_nanos = now.as_nanos();
            self.trace.memory.push(MemoryRecord {
                ts_nanos,
                bank,
                size,
                op,
                request_id: id,
            });
            self.engine.schedule(service, Ev::MemDone { job });
            return;
        }
        // Aggregation done → respond over the network.
        st.progress.mark("cpu.aggregate", now);
        let wire = spec.egress_wire();
        self.trace.network.push(NetworkRecord {
            ts_nanos: now.as_nanos(),
            size: wire,
            direction: Direction::Egress,
            request_id: id,
        });
        if let Some(fab) = self.fabric.as_mut() {
            let done = Ev::NetOutDone { job };
            fab.transfer(
                &mut self.engine,
                now,
                Endpoint::Host(job.server),
                Endpoint::Client,
                wire,
                done,
            );
        } else if let Some((job, wire)) = server.net_out_pool.arrive(now, (job, wire)) {
            self.engine
                .schedule(server.link.transfer(wire), Ev::NetOutDone { job });
        }
    }

    fn mem_done(&mut self, now: SimTime, job: Job) {
        if self.drained(job) {
            return;
        }
        let slow = self.slowdown(job.server, now);
        let Some(st) = self.current(job) else { return };
        st.progress.mark("memory", now);
        let spec = st.spec;
        if spec.kind == Kind::Read && st.progress.cache_hit {
            // Buffer cache absorbed the read: skip the disk.
            self.offer_cpu(now, job, 2);
            return;
        }
        st.progress.degraded |= slow > 1.0;
        self.trace.storage.push(StorageRecord {
            ts_nanos: now.as_nanos(),
            lbn: spec.lbn,
            size: spec.size,
            op: spec.op(),
            request_id: job.id,
        });
        self.offer_disk(now, job, spec.lbn, spec.size, false);
    }

    fn disk_done(&mut self, now: SimTime, job: Job, replica: bool) {
        if self.drained(job) {
            return;
        }
        let slow = self.slowdown(job.server, now);
        let server = &mut self.servers[job.server - self.range.start];
        if let Some(next) = server.disk_pool.complete(now) {
            server.start_disk(&mut self.engine, slow, next);
        }
        let Job {
            id,
            server,
            attempt,
            ..
        } = job;
        if id >= REREP_BASE {
            if !replica {
                // Source read done: ship the chunk to its new home.
                if let Some(r) = self.rerep_jobs.get(&id).copied() {
                    let to = self.job(id, r.to, 0);
                    self.ingress(now, Endpoint::Host(server), to, REREP_BYTES, true);
                }
            } else if let Some(r) = self.rerep_jobs.remove(&id) {
                // The replacement copy is durable: commit it.
                self.send(
                    0,
                    now,
                    ShardMsg::RerepDone {
                        rid: id,
                        job: r,
                        committed: true,
                    },
                );
            }
            return;
        }
        let Some(st) = self.current(job) else { return };
        if replica {
            st.pending_replicas -= 1;
            // This ack may come from a stand-in for a dead replica: commit
            // the placement change before (possibly) acking.
            let pos = st.replacements.iter().position(|&(_, s)| s == server);
            let commit = pos.map(|pos| st.replacements.remove(pos));
            let (chunk, primary, acked) = (st.spec.chunk, st.server, st.pending_replicas == 0);
            if acked {
                st.progress.mark("replicate", now);
            }
            if let Some((dead, stand_in)) = commit {
                self.send(
                    0,
                    now,
                    ShardMsg::Commit {
                        chunk,
                        dead,
                        stand_in,
                    },
                );
            }
            // The primary may have died while the replicas acked; if so
            // the client's timeout retries.
            if acked && self.alive[primary - self.range.start] {
                self.offer_cpu(now, self.job(id, primary, attempt), 2);
            }
            return;
        }
        st.progress.mark("disk", now);
        let size = st.spec.size;
        let (fanout, replacements) = self.fanout(id, server);
        if fanout.is_empty() {
            // A read, or a write with no reachable secondary and no
            // stand-in: acknowledge (possibly degraded).
            self.offer_cpu(now, job, 2);
            return;
        }
        let st = self.attempts.get_mut(&id).expect("current above");
        st.pending_replicas = fanout.len();
        st.replacements = replacements;
        for rep in fanout {
            self.ingress(
                now,
                Endpoint::Host(server),
                self.job(id, rep, attempt),
                size,
                true,
            );
        }
    }

    /// Where a write's primary `server` sends replica data: its live
    /// secondaries plus, with faults armed, a live stand-in in this shard
    /// for each dead one (returned as `(dead, stand_in)` pairs). Empty for
    /// reads.
    fn fanout(&self, id: u64, server: usize) -> (Vec<usize>, Vec<(usize, usize)>) {
        let st = &self.attempts[&id];
        if st.spec.kind == Kind::Read {
            return (Vec::new(), Vec::new());
        }
        let replicas = match &st.replicas {
            Some(snapshot) => snapshot.as_slice(),
            None => self
                .control
                .as_ref()
                .expect(CONTROL)
                .master
                .replicas(st.spec.chunk),
        };
        let alive = |s: usize| self.alive[s - self.range.start];
        let mut fanout: Vec<usize> = replicas
            .iter()
            .copied()
            .filter(|&s| s != server && alive(s))
            .collect();
        let mut replacements = Vec::new();
        if self.plan.is_some() {
            for &dead in replicas.iter().filter(|&&s| s != server && !alive(s)) {
                let stand_in = self.range.clone().find(|&s| {
                    alive(s) && s != server && !replicas.contains(&s) && !fanout.contains(&s)
                });
                if let Some(stand_in) = stand_in {
                    replacements.push((dead, stand_in));
                    fanout.push(stand_in);
                }
            }
        }
        (fanout, replacements)
    }

    fn net_out_done(&mut self, now: SimTime, job: Job) {
        if self.drained(job) {
            return;
        }
        if self.fabric.is_none() {
            let server = &mut self.servers[job.server - self.range.start];
            if let Some((next, wire)) = server.net_out_pool.complete(now) {
                self.engine
                    .schedule(server.link.transfer(wire), Ev::NetOutDone { job: next });
            }
        }
        if self.current(job).is_none() {
            return; // a stale attempt's zombie response
        }
        let mut a = self.attempts.remove(&job.id).expect("present above");
        a.progress.mark("network.out", now);
        let total = now - a.spec.start;
        let busy = a.progress.cpu_busy.as_nanos();
        self.trace.cpu.push(CpuRecord {
            ts_nanos: now.as_nanos(),
            utilization: busy as f64 / total.as_nanos().max(1) as f64,
            busy_nanos: busy,
            request_id: job.id,
        });
        self.send(
            0,
            now,
            ShardMsg::Done {
                at: now,
                attempt: a,
            },
        );
    }

    /// A chunkserver goes down: its stations and flows die, repairs
    /// touching it are reported lost, and the control plane schedules
    /// the master's repair of its chunks after the detection delay.
    fn crash(&mut self, now: SimTime, server: usize) {
        if self.range.contains(&server) {
            let l = server - self.range.start;
            self.alive[l] = false;
            self.epochs[l] += 1;
            let s = &mut self.servers[l];
            let lost = s.cpu_pool.fail_all(now)
                + s.disk_pool.fail_all(now)
                + s.net_in_pool.fail_all(now)
                + s.net_out_pool.fail_all(now);
            self.jobs_lost += lost as u64;
            if let Some(fab) = self.fabric.as_mut() {
                self.jobs_lost += fab.fail_host(&mut self.engine, now, server);
            }
            // Report in ascending-rid order so the send sequence is
            // deterministic.
            let mut dead: Vec<u64> = self
                .rerep_jobs
                .iter()
                .filter(|(_, j)| j.from == server || j.to == server)
                .map(|(&rid, _)| rid)
                .collect();
            dead.sort_unstable();
            for rid in dead {
                let job = self.rerep_jobs.remove(&rid).expect("collected above");
                self.send(
                    0,
                    now,
                    ShardMsg::RerepDone {
                        rid,
                        job,
                        committed: false,
                    },
                );
            }
        }
        if let Some(ctl) = self.control.as_mut() {
            ctl.alive[server] = false;
            ctl.fstats.crashes += 1;
            if let Some(f) = &ctl.cfg.faults {
                let detect = SimDuration::from_secs_f64(f.detect_secs);
                for chunk in ctl
                    .master
                    .chunks_on(server)
                    .into_iter()
                    .take(f.rereplicate_batch)
                {
                    self.engine.schedule(
                        detect,
                        Ev::Rereplicate {
                            chunk,
                            dead: server,
                        },
                    );
                }
            }
        }
    }

    fn recover(&mut self, server: usize) {
        if self.range.contains(&server) {
            let l = server - self.range.start;
            self.alive[l] = true;
            let s = &mut self.servers[l];
            s.cpu_pool.set_up();
            s.disk_pool.set_up();
            s.net_in_pool.set_up();
            s.net_out_pool.set_up();
        }
        if let Some(ctl) = self.control.as_mut() {
            ctl.alive[server] = true;
            ctl.fstats.recoveries += 1;
        }
    }
}
