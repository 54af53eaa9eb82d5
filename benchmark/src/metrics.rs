//! The metric tables: the names, units and directions the benchmark
//! emits. `../BENCHMARK.json` must list exactly these (a self-test
//! parses it and compares).

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// A count that must repeat to the last digit for a given seed.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact,
    }
}

/// Why each bound has its value is in README.md.
pub const END_TO_END: [EndToEnd; 9] = [
    e2e("setup_s", "s", Lower, 0.25, false),
    e2e("dump_mibps", "MiB/s", Higher, 0.25, false),
    e2e("restore_mibps", "MiB/s", Higher, 0.25, false),
    e2e("degraded_restore_mibps", "MiB/s", Higher, 0.25, false),
    e2e("heal_s", "s", Lower, 0.25, false),
    e2e("stored_bytes_per_input_byte", "ratio", Lower, 0.02, true),
    e2e("wire_bytes_per_input_byte", "ratio", Lower, 0.02, true),
    e2e("modeled_dump_mibps", "MiB/s", Higher, 0.02, true),
    e2e("peak_rss_mib", "MiB", Lower, 0.2, false),
];

/// The program's restore and heal phase spans (it exports the dump's
/// itself: `sut::DUMP_PHASES`).
pub const RESTORE_PHASES: [&str; 4] = [
    "manifest_recovery",
    "chunk_recovery",
    "blob_recovery",
    "reassemble",
];
pub const HEAL_PHASES: [&str; 4] = ["scrub", "plan", "stripes", "transfer"];

/// `(name, unit, better)` of every per-layer metric.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let fixed = [
        ("hash.chunk_scan_mibps", "MiB/s", Higher),
        ("hash.fingerprint_mibps", "MiB/s", Higher),
        ("hash.bytes_hashed", "B", Lower),
        ("hash.chunks_total", "count", Lower),
        ("hash.mean_chunk_bytes", "B", Higher),
        ("buf.bytes_copied", "B", Lower),
        ("buf.pool_hit_ratio", "ratio", Higher),
        ("core.local.index_build_mibps", "MiB/s", Higher),
        ("core.local.unique_ratio", "ratio", Lower),
        ("core.global.merge_ns_per_entry", "ns", Lower),
        ("core.global.view_entries", "count", Lower),
        ("core.global.view_bytes", "B", Lower),
        ("core.global.reduce_traffic_bytes", "B", Lower),
        ("core.plan.plan_chunks_us", "us", Lower),
        ("core.shuffle.rank_shuffle_us", "us", Lower),
        ("core.offsets.window_plan_us", "us", Lower),
        ("core.dump.phase_sum_over_wall", "ratio", Higher),
        ("core.dump.nodedup_ref_mibps", "MiB/s", Higher),
        ("core.restore.retries", "count", Lower),
        ("core.restore.replica_fallbacks", "count", Lower),
        ("core.heal.steps", "count", Lower),
        ("core.heal.bytes", "B", Lower),
        ("mpi.launch_us_per_rank", "us", Lower),
        ("mpi.barrier_us", "us", Lower),
        ("mpi.allgather_us", "us", Lower),
        ("mpi.allreduce_us", "us", Lower),
        ("mpi.window.put_mibps", "MiB/s", Higher),
        ("mpi.dump_msgs", "count", Lower),
        ("mpi.dump_p2p_bytes", "B", Lower),
        ("mpi.dump_coll_bytes", "B", Lower),
        ("mpi.dump_rma_bytes", "B", Lower),
        ("storage.put_chunk_kops", "kops/s", Higher),
        ("storage.get_chunk_kops", "kops/s", Higher),
        ("storage.put_shard_kops", "kops/s", Higher),
        ("storage.get_shard_kops", "kops/s", Higher),
        ("storage.scrub_mibps", "MiB/s", Higher),
        ("storage.device_bytes", "B", Lower),
        ("storage.parity_bytes", "B", Lower),
        ("storage.chunks_stored", "count", Lower),
        ("ec.encode_mibps", "MiB/s", Higher),
        ("ec.decode_mibps", "MiB/s", Higher),
        ("ec.reconstruct_shard_mibps", "MiB/s", Higher),
        ("ec.chunks_coded", "count", Lower),
        ("ec.stripes_assembled", "count", Lower),
        ("sim.hash_s", "s", Lower),
        ("sim.reduce_s", "s", Lower),
        ("sim.exchange_s", "s", Lower),
        ("sim.write_s", "s", Lower),
        ("trace.overhead_pct", "%", Lower),
    ];
    let phase = |op: &str, names: &[&str]| -> Vec<_> {
        names
            .iter()
            .map(|p| (format!("core.{op}.{p}_ms"), "ms", Lower))
            .collect()
    };
    fixed
        .into_iter()
        .map(|(n, u, b)| (n.to_string(), u, b))
        .chain(phase("dump", &crate::sut::DUMP_PHASES))
        .chain(phase("restore", &RESTORE_PHASES))
        .chain(phase("heal", &HEAL_PHASES))
        .collect()
}
