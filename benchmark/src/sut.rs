//! The API seam: every `replidedup_*` name the benchmark uses lives in
//! this file, and the rest of the benchmark speaks its own types. When
//! the system's API changes, this is the one file to edit.
//!
//! Nothing here calls what the ROADMAP schedules for removal
//! (`World::run*`, `CopyMode::Staged`, `Replicator::repair`,
//! `Cluster::{find_chunk, gather_shards, reconstruct_payload,
//! rebuild_shard}`, the rabin chunker, `with_parallel_hash`).

use std::hint::black_box;
use std::time::{Duration, Instant};

use replidedup_buf::{global_pool, process_bytes_copied, Chunk};
use replidedup_core::{
    plan_chunks, rank_shuffle, window_plan, ChunkerKind, DumpStats, GearParams, GlobalView,
    LocalIndex, ReductionStats, RedundancyPolicy, Replicator, Strategy as SutStrategy,
    WorldDumpStats,
};
use replidedup_ec::RsCode;
use replidedup_hash::{fingerprint_ranges, Chunker, Fingerprint, Sha1ChunkHasher};
use replidedup_mpi::{Comm, RankOutcome, WorldConfig};
use replidedup_sim::{ClusterModel, DumpMeasurement};
use replidedup_storage::{Cluster, Placement, ShardMeta, StripeKey};
use replidedup_trace::{Event, WorldTrace};

use crate::workload::{Chunking, Policy, Spec, Strategy};

/// The program's dump phase spans, in pipeline order.
pub use replidedup_core::DUMP_PHASES;

const MIB: f64 = (1 << 20) as f64;
/// The one generation every cycle dumps, restores and heals.
const GENERATION: u64 = 1;
/// The config's fixed chunk size; the builder default, restated only
/// for the probes that chunk outside a `Replicator`.
const FIXED_CHUNK: usize = 4096;

/// The generated buffers in the form the program takes them. Built once
/// per set-up; every dump gets a reference-counted view, so the program
/// runs its zero-copy path and the benchmark never re-generates.
pub struct Inputs(Vec<Chunk>);

impl Inputs {
    pub fn new(buffers: Vec<Vec<u8>>) -> Self {
        Inputs(buffers.into_iter().map(Chunk::from).collect())
    }

    fn total_bytes(&self) -> u64 {
        self.0.iter().map(|c| c.len() as u64).sum()
    }
}

/// One of the program's own phase spans, folded over ranks.
#[derive(Debug, Clone)]
pub struct Phase {
    pub name: &'static str,
    pub spans: u64,
    pub min_ms: f64,
    pub median_ms: f64,
    /// The slowest rank's inclusive time: what the op waited for.
    pub max_ms: f64,
    /// Summed over ranks.
    pub sum_ms: f64,
}

/// One collective operation of a cycle.
#[derive(Debug, Clone)]
pub struct Op {
    /// Earliest rank start.
    pub start: Instant,
    /// Latest rank end: the slowest rank sets the time.
    pub end: Instant,
    /// Every rank's own time in the op, summed: what the summed phase
    /// spans are reconciled against.
    pub rank_secs_sum: f64,
    /// The program's phase spans and counter sums (traced cycles only).
    pub phases: Vec<Phase>,
    pub counters: Vec<(&'static str, u64)>,
}

impl Op {
    pub fn secs(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }

    pub fn phase(&self, name: &str) -> Option<&Phase> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// The slowest rank's time in the phase; 0 if the op never entered it.
    pub fn phase_ms(&self, name: &str) -> f64 {
        self.phase(name).map_or(0.0, |p| p.max_ms)
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.0 == name)
            .map_or(0, |c| c.1)
    }
}

/// Exact counts of one dump. They repeat run to run for a given seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DumpCounts {
    pub input_bytes: u64,
    pub device_bytes: u64,
    pub parity_bytes: u64,
    pub chunks_stored: u64,
    pub msgs: u64,
    pub p2p_bytes: u64,
    pub coll_bytes: u64,
    pub rma_bytes: u64,
    pub bytes_hashed: u64,
    pub chunks_total: u64,
    pub chunks_coded: u64,
    pub stripes_assembled: u64,
    pub view_entries: u64,
    pub view_bytes: u64,
    pub reduce_traffic_bytes: u64,
    /// The paper's cluster, from the measured counts: hash, reduce,
    /// exchange, write (seconds).
    pub modeled_s: [f64; 4],
}

impl DumpCounts {
    pub fn wire_bytes(&self) -> u64 {
        self.p2p_bytes + self.coll_bytes + self.rma_bytes
    }

    pub fn modeled_dump_s(&self) -> f64 {
        self.modeled_s.iter().sum()
    }
}

/// dump → restore → wipe one node → heal → wipe two more → restore.
#[derive(Debug, Clone)]
pub struct Cycle {
    pub dump: Op,
    pub restore: Op,
    pub heal: Op,
    pub degraded_restore: Op,
    /// Rank-ops attempted, and those that returned `Err`, crashed,
    /// restored other bytes than the input or left something unhealed.
    pub attempted: u64,
    pub failed: u64,
    pub counts: DumpCounts,
    pub heal_steps: u64,
    pub heal_bytes: u64,
}

impl Cycle {
    pub fn ops(&self) -> [(&'static str, &Op); 4] {
        [
            ("dump", &self.dump),
            ("restore", &self.restore),
            ("heal", &self.heal),
            ("degraded_restore", &self.degraded_restore),
        ]
    }
}

fn replicator<'a>(
    spec: &Spec,
    strategy: Strategy,
    cluster: &'a Cluster,
    traced: bool,
) -> Replicator<'a> {
    let mut builder = Replicator::builder(match strategy {
        Strategy::CollDedup => SutStrategy::CollDedup,
        Strategy::NoDedup => SutStrategy::NoDedup,
    })
    .cluster(cluster)
    .with_chunker(chunker_kind(spec))
    .with_policy(match spec.policy {
        Policy::Replicate3 => RedundancyPolicy::Replicate(3),
        Policy::Rs4p2 => RedundancyPolicy::Rs { k: 4, m: 2 },
        Policy::Auto4p2 => RedundancyPolicy::Auto {
            k: 4,
            m: 2,
            replicate_below: 1024,
        },
    });
    if traced {
        builder = builder.tracing(true);
    }
    builder
        .build()
        .expect("the workload table holds valid configurations")
}

fn chunker_kind(spec: &Spec) -> ChunkerKind {
    match spec.chunking {
        Chunking::Fixed => ChunkerKind::Fixed,
        Chunking::Gear => ChunkerKind::Gear(GearParams::default()),
    }
}

fn world(workers: usize, traced: bool) -> WorldConfig {
    let config = if traced {
        WorldConfig::traced()
    } else {
        WorldConfig::default()
    };
    config.with_workers(workers)
}

fn wipe(cluster: &Cluster, node: u32) {
    cluster.fail_node(node);
    cluster.revive_node(node);
}

/// What one rank brings back from a cycle.
struct RankOut {
    windows: [(Instant, Instant); 4],
    events: [Vec<Event>; 4],
    failed: u64,
    dump: Option<(DumpStats, [u64; 4])>,
    heal: (u64, u64),
    /// Rank 0's reading of the cluster right after the dump.
    stored: Option<[u64; 3]>,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, (Instant, Instant)) {
    let start = Instant::now();
    let out = f();
    (out, (start, Instant::now()))
}

fn fold_op(ranks: &mut [RankOut], op: usize) -> Op {
    let start = ranks
        .iter()
        .map(|r| r.windows[op].0)
        .min()
        .expect("at least one rank");
    let end = ranks
        .iter()
        .map(|r| r.windows[op].1)
        .max()
        .expect("at least one rank");
    let trace = WorldTrace::from_rank_events(
        ranks
            .iter_mut()
            .map(|r| std::mem::take(&mut r.events[op]))
            .collect(),
    );
    let ms = |ns: u64| ns as f64 / 1e6;
    Op {
        start,
        end,
        rank_secs_sum: ranks.iter().map(|r| secs(r.windows[op])).sum(),
        phases: trace
            .aggregate()
            .into_iter()
            .map(|p| Phase {
                name: p.name,
                spans: p.spans,
                min_ms: ms(p.min_ns),
                median_ms: ms(p.median_ns),
                max_ms: ms(p.max_ns),
                sum_ms: ms(p.sum_ns),
            })
            .collect(),
        counters: trace
            .aggregate_counters()
            .into_iter()
            .map(|c| (c.name, c.sum))
            .collect(),
    }
}

fn count_dump(repl: &Replicator<'_>, ranks: Vec<RankOut>, input_bytes: u64) -> DumpCounts {
    let [device_bytes, parity_bytes, chunks_stored] =
        ranks.iter().find_map(|r| r.stored).unwrap_or_default();
    let (stats, sent): (Vec<DumpStats>, Vec<[u64; 4]>) =
        ranks.into_iter().filter_map(|r| r.dump).unzip();
    let traffic = |i: usize| sent.iter().map(|s| s[i]).sum();
    let cfg = repl.config();
    let world = WorldDumpStats::from_ranks(cfg.strategy, cfg.chunk_size, stats);
    let modeled = ClusterModel::default().dump_time(
        &DumpMeasurement::from_stats(&world, cfg.f_threshold as u64),
        1.0,
    );
    let sum = |f: fn(&DumpStats) -> u64| world.ranks.iter().map(f).sum::<u64>();
    let reduction = |f: fn(&ReductionStats) -> u64| {
        world
            .ranks
            .iter()
            .filter_map(|s| s.reduction.as_ref())
            .map(f)
    };
    DumpCounts {
        input_bytes,
        device_bytes,
        parity_bytes,
        chunks_stored,
        msgs: traffic(0),
        p2p_bytes: traffic(1),
        coll_bytes: traffic(2),
        rma_bytes: traffic(3),
        bytes_hashed: sum(|s| s.bytes_hashed),
        chunks_total: sum(|s| s.chunks_total),
        chunks_coded: sum(|s| s.chunks_coded),
        stripes_assembled: sum(|s| s.stripes_assembled),
        view_entries: reduction(|r| r.view_entries).max().unwrap_or(0),
        view_bytes: reduction(|r| r.view_bytes).max().unwrap_or(0),
        reduce_traffic_bytes: reduction(|r| r.traffic_bytes).sum(),
        modeled_s: [
            modeled.hash,
            modeled.reduce,
            modeled.exchange,
            modeled.write,
        ],
    }
}

fn cluster_reading(cluster: &Cluster) -> [u64; 3] {
    let chunks = (0..cluster.node_count())
        .map(|n| {
            cluster
                .with_node(n, |s| s.store.chunk_count() as u64)
                .unwrap_or(0)
        })
        .sum();
    [
        cluster.total_device_bytes(),
        cluster.total_parity_bytes(),
        chunks,
    ]
}

/// One cycle: a fresh cluster and one launched world doing the four
/// barrier-separated operations. Each rank verifies its restores byte
/// for byte against its input, after the clock of that op has stopped.
pub fn run_cycle(
    spec: &Spec,
    inputs: &Inputs,
    workers: usize,
    victims: [u32; 3],
    traced: bool,
) -> Cycle {
    let cluster = Cluster::new(Placement::one_per_node(spec.ranks));
    let repl = replicator(spec, spec.strategy, &cluster, traced);
    let launch = world(workers, traced).launch(spec.ranks, |comm| {
        let input = &inputs.0[comm.rank() as usize];
        let mut failed = 0;

        comm.barrier();
        let before = comm.traffic();
        let (dumped, w_dump) = timed(|| repl.dump(comm, GENERATION, input.clone()));
        let after = comm.traffic();
        let ev_dump = comm.take_trace_events();
        failed += u64::from(dumped.is_err());
        comm.barrier();
        let stored = (comm.rank() == 0).then(|| cluster_reading(&cluster));
        comm.barrier();

        let (restored, w_restore) = timed(|| repl.restore(comm, GENERATION));
        let ev_restore = comm.take_trace_events();
        failed += u64::from(!restored.is_ok_and(|r| r == *input));
        comm.barrier();
        if comm.rank() == 0 {
            wipe(&cluster, victims[0]);
        }
        comm.barrier();

        let (healed, w_heal) = timed(|| repl.heal(comm, GENERATION));
        let ev_heal = comm.take_trace_events();
        failed += u64::from(!healed.as_ref().is_ok_and(|h| h.is_fully_healed()));
        comm.barrier();
        if comm.rank() == 0 {
            wipe(&cluster, victims[1]);
            wipe(&cluster, victims[2]);
        }
        comm.barrier();

        let (restored, w_degraded) = timed(|| repl.restore(comm, GENERATION));
        let ev_degraded = comm.take_trace_events();
        failed += u64::from(!restored.is_ok_and(|r| r == *input));

        RankOut {
            windows: [w_dump, w_restore, w_heal, w_degraded],
            events: [ev_dump, ev_restore, ev_heal, ev_degraded],
            failed,
            dump: dumped.ok().map(|stats| {
                let sent = [
                    after.msgs_sent - before.msgs_sent,
                    after.p2p_sent - before.p2p_sent,
                    after.coll_sent - before.coll_sent,
                    after.rma_put - before.rma_put,
                ];
                (stats, sent)
            }),
            heal: healed.map_or((0, 0), |h| (h.steps, h.heal_bytes())),
            stored,
        }
    });

    let crashed = launch.outcomes.iter().filter(|o| o.is_crashed()).count() as u64;
    let mut ranks: Vec<RankOut> = launch
        .outcomes
        .into_iter()
        .filter_map(RankOutcome::completed)
        .collect();
    assert!(!ranks.is_empty(), "every rank crashed");
    Cycle {
        dump: fold_op(&mut ranks, 0),
        restore: fold_op(&mut ranks, 1),
        heal: fold_op(&mut ranks, 2),
        degraded_restore: fold_op(&mut ranks, 3),
        attempted: 4 * u64::from(spec.ranks),
        failed: 4 * crashed + ranks.iter().map(|r| r.failed).sum::<u64>(),
        // Heal counts are allreduced: every rank reports the same.
        heal_steps: ranks[0].heal.0,
        heal_bytes: ranks[0].heal.1,
        counts: count_dump(&repl, ranks, inputs.total_bytes()),
    }
}

/// A dump on its own, and the cluster it leaves behind.
pub struct DumpOnly {
    pub secs: f64,
    pub failed: u64,
    pub process_bytes_copied: u64,
    pub pool_hit_ratio: f64,
    cluster: Cluster,
}

/// One world that only dumps, under `strategy`: the workload's own, or
/// no-dedup as the reference the dedup tax is measured against.
pub fn dump_only(spec: &Spec, strategy: Strategy, inputs: &Inputs, workers: usize) -> DumpOnly {
    let cluster = Cluster::new(Placement::one_per_node(spec.ranks));
    let repl = replicator(spec, strategy, &cluster, false);
    global_pool().reset_stats();
    let copied_before = process_bytes_copied();
    let out = world(workers, false)
        .launch(spec.ranks, |comm| {
            comm.barrier();
            timed(|| {
                repl.dump(comm, GENERATION, inputs.0[comm.rank() as usize].clone())
                    .is_err()
            })
        })
        .expect_all();
    let copied = process_bytes_copied() - copied_before;
    let pool = global_pool().stats();
    let start = out
        .results
        .iter()
        .map(|r| r.1 .0)
        .min()
        .expect("at least one rank");
    let end = out
        .results
        .iter()
        .map(|r| r.1 .1)
        .max()
        .expect("at least one rank");
    drop(repl);
    DumpOnly {
        secs: secs((start, end)),
        failed: out.results.iter().map(|r| u64::from(r.0)).sum(),
        process_bytes_copied: copied,
        pool_hit_ratio: pool.hits as f64 / (pool.hits + pool.misses).max(1) as f64,
        cluster,
    }
}

impl DumpOnly {
    /// Single-threaded scrub of everything the dump stored: every node's
    /// chunks re-hashed, every stripe's parity re-checked.
    pub fn scrub_mibps(&self) -> f64 {
        let start = Instant::now();
        for node in 0..self.cluster.node_count() {
            black_box(
                self.cluster
                    .scrub(node, &Sha1ChunkHasher)
                    .expect("live node"),
            );
        }
        black_box(self.cluster.scrub_stripes(&Sha1ChunkHasher));
        self.cluster.total_device_bytes() as f64 / MIB / start.elapsed().as_secs_f64()
    }
}

/// Repeat `f` until `budget` has passed (at least twice); mean seconds
/// per call.
fn mean_secs(budget: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u32;
    while calls < 2 || start.elapsed() < budget {
        f();
        calls += 1;
    }
    start.elapsed().as_secs_f64() / f64::from(calls)
}

fn secs(window: (Instant, Instant)) -> f64 {
    window.1.duration_since(window.0).as_secs_f64()
}

const PROBE_BUDGET: Duration = Duration::from_millis(150);

/// Where the probes report: a metric by name, and the benchmark's own
/// span around each layer's probe.
pub trait Sink {
    fn metric(&mut self, name: &str, value: f64);
    fn span(&mut self, name: &str, start: Instant, end: Instant);
}

/// Outside probes of the layers the program's tracer does not reach, on
/// the workload's own buffers, at the workload's own sizes (`counts` is
/// a dump of it). Single-threaded unless a world is needed. A layer the
/// workload leaves idle reports 0.
pub fn probe_layers(
    spec: &Spec,
    inputs: &Inputs,
    workers: usize,
    counts: &DumpCounts,
    sink: &mut dyn Sink,
) {
    let mut spanned = |name: &str, probe: &dyn Fn(&mut dyn Sink)| {
        let start = Instant::now();
        probe(sink);
        sink.span(name, start, Instant::now());
    };
    spanned("probe.dedup_planning", &|sink| {
        probe_dedup_planning(spec, inputs, sink)
    });
    spanned("probe.mpi", &|sink| probe_mpi(spec, workers, counts, sink));
    spanned("probe.storage", &|sink| probe_storage(inputs, sink));
    spanned("probe.ec", &|sink| probe_ec(spec, inputs, counts, sink));
}

/// `hash`, `core.local`, `core.global`, `core.plan`, `core.shuffle`,
/// `core.offsets`: the dedup pipeline's compute, replayed without a
/// world through the same public functions the dump calls.
fn probe_dedup_planning(spec: &Spec, inputs: &Inputs, sink: &mut dyn Sink) {
    const NAMES: [&str; 8] = [
        "hash.chunk_scan_mibps",
        "hash.fingerprint_mibps",
        "core.local.index_build_mibps",
        "core.local.unique_ratio",
        "core.global.merge_ns_per_entry",
        "core.plan.plan_chunks_us",
        "core.shuffle.rank_shuffle_us",
        "core.offsets.window_plan_us",
    ];
    if spec.strategy == Strategy::NoDedup {
        NAMES.iter().for_each(|name| sink.metric(name, 0.0));
        return;
    }
    let total_mib = inputs.total_bytes() as f64 / MIB;
    let chunker = chunker_kind(spec).resolve(FIXED_CHUNK);
    let cluster = Cluster::new(Placement::one_per_node(spec.ranks));
    let cfg = *replicator(spec, spec.strategy, &cluster, false).config();
    let k = cfg.policy.hmerge_k(cfg.replication).min(spec.ranks);

    let (ranges, scan) = timed(|| {
        inputs
            .0
            .iter()
            .map(|b| chunker.chunks(b))
            .collect::<Vec<_>>()
    });
    let ((), print) = timed(|| {
        for (buf, ranges) in inputs.0.iter().zip(&ranges) {
            black_box(fingerprint_ranges(&Sha1ChunkHasher, buf, ranges));
        }
    });
    sink.metric(NAMES[0], total_mib / secs(scan));
    sink.metric(NAMES[1], total_mib / secs(print));

    let (indexes, build) = timed(|| {
        inputs
            .0
            .iter()
            .map(|b| LocalIndex::build(&Sha1ChunkHasher, b, &chunker, false))
            .collect::<Vec<_>>()
    });
    let unique: usize = indexes.iter().map(LocalIndex::unique_count).sum();
    let chunks: usize = indexes.iter().map(LocalIndex::chunk_count).sum();
    sink.metric(NAMES[2], total_mib / secs(build));
    sink.metric(NAMES[3], unique as f64 / chunks as f64);

    // HMERGE without a world: leaf views folded pairwise, as the
    // allreduce tree folds them.
    let leaves: Vec<GlobalView> = indexes
        .iter()
        .enumerate()
        .map(|(rank, idx)| {
            GlobalView::from_local(rank as u32, idx.unique.keys().copied(), cfg.f_threshold)
        })
        .collect();
    let (view, merge) = timed(|| {
        let mut views = leaves;
        while views.len() > 1 {
            let mut next = Vec::with_capacity(views.len().div_ceil(2));
            let mut it = views.into_iter();
            while let Some(a) = it.next() {
                next.push(match it.next() {
                    Some(b) => GlobalView::merge(a, b, k, cfg.f_threshold),
                    None => a,
                });
            }
            views = next;
        }
        views.pop().expect("at least one rank")
    });
    sink.metric(NAMES[4], secs(merge) * 1e9 / unique as f64);

    let (plans, plan) = timed(|| {
        indexes
            .iter()
            .enumerate()
            .map(|(rank, idx)| plan_chunks(rank as u32, idx, &view, k))
            .collect::<Vec<_>>()
    });
    sink.metric(NAMES[5], secs(plan) * 1e6 / f64::from(spec.ranks));
    let loads: Vec<Vec<u64>> = plans.into_iter().map(|p| p.load).collect();
    let shuffle = rank_shuffle(&loads, k);
    let shuffle_s = mean_secs(PROBE_BUDGET, || {
        black_box(rank_shuffle(black_box(&loads), k));
    });
    let offsets_s = mean_secs(PROBE_BUDGET, || {
        black_box(window_plan(black_box(&shuffle), &loads, k));
    });
    sink.metric(NAMES[6], shuffle_s * 1e6);
    sink.metric(NAMES[7], offsets_s * 1e6);
}

/// `mpi`: launch, the three collectives the dump leans on and a ring of
/// window puts, at the workload's rank count and worker bound. Payloads
/// at the workload's own sizes: its view for the collectives, a rank's
/// share of its exchange for the window.
fn probe_mpi(spec: &Spec, workers: usize, counts: &DumpCounts, sink: &mut dyn Sink) {
    const ROUNDS: u32 = 5;
    let ranks = spec.ranks;
    let config = world(workers, false);
    let launch_s = mean_secs(PROBE_BUDGET, || {
        black_box(config.launch(ranks, |comm| comm.rank()).expect_all());
    });
    sink.metric("mpi.launch_us_per_rank", launch_s * 1e6 / f64::from(ranks));

    let view_payload = vec![0u8; (counts.view_bytes as usize).max(64)];
    let gather_payload = vec![0u8; view_payload.len().div_ceil(ranks as usize)];
    let put_payload = Chunk::from(vec![
        0u8;
        ((counts.rma_bytes / u64::from(ranks)) as usize)
            .max(FIXED_CHUNK)
    ]);
    let per_round = |comm: &mut Comm, f: &dyn Fn(&mut Comm)| {
        comm.barrier();
        let t = Instant::now();
        for _ in 0..ROUNDS {
            f(comm);
        }
        t.elapsed().as_secs_f64() / f64::from(ROUNDS)
    };
    let out = config
        .launch(ranks, |comm| {
            [
                per_round(comm, &|c| c.barrier()),
                per_round(comm, &|c| {
                    black_box(c.allgather(gather_payload.clone()));
                }),
                per_round(comm, &|c| {
                    black_box(c.allreduce(view_payload.clone(), |a, _| a));
                }),
                per_round(comm, &|c| {
                    let win = c.win_create(put_payload.len());
                    win.put_chunk((c.rank() + 1) % c.size(), 0, &put_payload);
                    win.fence(c);
                }),
            ]
        })
        .expect_all();
    // The slowest rank sets a collective's time.
    let slowest = |i: usize| out.results.iter().map(|r| r[i]).fold(0.0, f64::max);
    sink.metric("mpi.barrier_us", slowest(0) * 1e6);
    sink.metric("mpi.allgather_us", slowest(1) * 1e6);
    sink.metric("mpi.allreduce_us", slowest(2) * 1e6);
    sink.metric(
        "mpi.window.put_mibps",
        f64::from(ranks) * put_payload.len() as f64 / MIB / slowest(3),
    );
}

/// `storage`: one node, 16 Ki page-sized payloads (zero-copy views of
/// rank 0's buffer, reused round-robin), synthetic keys.
fn probe_storage(inputs: &Inputs, sink: &mut dyn Sink) {
    let buf = &inputs.0[0];
    let n = 1 << 14;
    let pages = buf.len() / FIXED_CHUNK;
    let page = |i: usize| buf.slice(i % pages * FIXED_CHUNK..(i % pages + 1) * FIXED_CHUNK);
    let fps: Vec<Fingerprint> = (0..n as u64).map(Fingerprint::synthetic).collect();
    let meta = ShardMeta {
        k: 4,
        m: 2,
        index: 0,
        total_len: 4 * FIXED_CHUNK as u64,
    };
    let store = Cluster::new(Placement::one_per_node(1));
    let ((), put_chunk) = timed(|| {
        for (i, fp) in fps.iter().enumerate() {
            black_box(store.put_chunk(0, *fp, page(i)).expect("live node"));
        }
    });
    let ((), get_chunk) = timed(|| {
        for fp in &fps {
            black_box(store.get_chunk(0, fp).expect("stored above"));
        }
    });
    let ((), put_shard) = timed(|| {
        for (i, fp) in fps.iter().enumerate() {
            black_box(
                store
                    .put_shard(0, StripeKey::Chunk(*fp), meta, page(i))
                    .expect("live node"),
            );
        }
    });
    let ((), get_shard) = timed(|| {
        for fp in &fps {
            black_box(
                store
                    .get_shard(0, StripeKey::Chunk(*fp), 0)
                    .expect("stored above"),
            );
        }
    });
    let kops = |window| n as f64 / 1e3 / secs(window);
    sink.metric("storage.put_chunk_kops", kops(put_chunk));
    sink.metric("storage.get_chunk_kops", kops(get_chunk));
    sink.metric("storage.put_shard_kops", kops(put_shard));
    sink.metric("storage.get_shard_kops", kops(get_shard));
}

/// `ec`: the 4+2 code at the payload size the workload really codes: a
/// mean chunk under the per-chunk policy, a rank's whole blob under
/// no-dedup.
fn probe_ec(spec: &Spec, inputs: &Inputs, counts: &DumpCounts, sink: &mut dyn Sink) {
    const NAMES: [&str; 3] = [
        "ec.encode_mibps",
        "ec.decode_mibps",
        "ec.reconstruct_shard_mibps",
    ];
    let payload_len = match (spec.policy, spec.strategy) {
        (Policy::Replicate3, _) => {
            NAMES.iter().for_each(|name| sink.metric(name, 0.0));
            return;
        }
        (_, Strategy::NoDedup) => spec.bytes_per_rank,
        (_, Strategy::CollDedup) => (counts.bytes_hashed / counts.chunks_total.max(1)) as usize,
    };
    let code = RsCode::new(4, 2).expect("4+2 is a valid geometry");
    let payload = inputs.0[0].slice(..payload_len);
    let shards = code.encode(payload.as_bytes());
    // Both losses among the data shards: the expensive decode.
    let survivors: Vec<(u8, &[u8])> = (2u8..6).map(|i| (i, &shards[i as usize][..])).collect();
    let encode_s = mean_secs(PROBE_BUDGET, || {
        black_box(code.encode(black_box(payload.as_bytes())));
    });
    let decode_s = mean_secs(PROBE_BUDGET, || {
        black_box(
            code.decode(black_box(&survivors), payload_len)
                .expect("k survivors"),
        );
    });
    let reconstruct_s = mean_secs(PROBE_BUDGET, || {
        black_box(
            code.reconstruct_shard(black_box(&survivors), 0, payload_len)
                .expect("k survivors"),
        );
    });
    for (name, secs) in NAMES.iter().zip([encode_s, decode_s, reconstruct_s]) {
        sink.metric(name, payload_len as f64 / MIB / secs);
    }
}
