//! The metric names and units the benchmark prints, in print order, and the
//! result line the driver reads. `BENCHMARK.json` lists the same names.

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("virt_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("model_peak_mib", "MiB"),
    ("moved_per_user_byte", "ratio"),
];

pub const PER_LAYER: &[(&str, &str)] = &[
    // vector — benchmark spans around MmVec calls, and the sweep probe.
    ("vector.load_wall_ns_p50", "ns"),
    ("vector.load_wall_ns_p99", "ns"),
    ("vector.store_wall_ns_p50", "ns"),
    ("vector.tx_wall_ns", "ns"),
    ("vector.flush_wall_ms", "ms"),
    ("vector.bulk_mib_per_s", "MiB/s"),
    ("vector.overhead_vs_plain_x", "x"),
    // pcache
    ("pcache.hits", "count"),
    ("pcache.misses", "count"),
    ("pcache.hit_rate", "ratio"),
    ("pcache.evictions", "count"),
    ("pcache.prefetch_hits", "count"),
    ("pcache.access_hit_ns", "ns"),
    ("pcache.insert_evict_ns", "ns"),
    // prefetch
    ("prefetch.issued", "count"),
    ("prefetch.accuracy", "ratio"),
    ("prefetch.coalesced_faults", "count"),
    ("prefetch.batched_crossings", "count"),
    ("prefetch.run_ns", "ns"),
    // runtime
    ("runtime.faults", "count"),
    ("runtime.fault_bytes", "B"),
    ("runtime.owner_fast_hit_rate", "ratio"),
    ("runtime.bytes_copied", "B"),
    ("runtime.tasks", "count"),
    ("runtime.writes", "count"),
    ("runtime.remote_reads", "count"),
    ("runtime.local_reads", "count"),
    ("runtime.invalidations", "count"),
    ("runtime.shard_queue_delay_p99_ns", "ns"),
    ("runtime.fault_virt_ns_p50", "ns"),
    ("runtime.fault_virt_ns_p99", "ns"),
    // directory
    ("directory.lookup_ns", "ns"),
    ("directory.owner_read_ns", "ns"),
    ("directory.claim_ns", "ns"),
    // dmsh
    ("dmsh.get_ns", "ns"),
    ("dmsh.put_ns", "ns"),
    ("dmsh.put_evict_ns", "ns"),
    ("dmsh.organize_ns", "ns"),
    ("dmsh.tier_bytes_dram", "B"),
    ("dmsh.tier_bytes_nvme", "B"),
    ("dmsh.tier_bytes_ssd", "B"),
    ("dmsh.lock_acquisitions", "count"),
    ("dmsh.lock_wait_model_ns", "ns"),
    ("dmsh.lock_wait_share", "ratio"),
    // stager / journal
    ("stager.staged_in", "B"),
    ("stager.staged_out", "B"),
    ("stager.backend_bytes", "B"),
    ("journal.append_ns", "ns"),
    // formats
    ("formats.obj_read_mib_per_s", "MiB/s"),
    ("formats.obj_write_mib_per_s", "MiB/s"),
    ("formats.file_read_mib_per_s", "MiB/s"),
    ("formats.file_write_mib_per_s", "MiB/s"),
    // sim
    ("sim.acquire_ns", "ns"),
    ("sim.device_io_ns", "ns"),
    ("sim.net_transfer_ns", "ns"),
    // cluster
    ("comm.barrier_wall_us", "us"),
    ("comm.allreduce_wall_us", "us"),
    ("comm.collectives", "count"),
    ("net.bytes", "B"),
    ("comm.rank_skew_virt_ns", "ns"),
    // telemetry
    ("telemetry.tax_pct", "%"),
    ("telemetry.counter_inc_ns", "ns"),
    ("telemetry.span_ns", "ns"),
    ("telemetry.spans_dropped", "count"),
    ("telemetry.events_dropped", "count"),
    // stage — virtual totals of the spans the program records.
    ("stage.miss_detect_virt_ns", "ns"),
    ("stage.queue_wait_virt_ns", "ns"),
    ("stage.tier_rw_virt_ns", "ns"),
    ("stage.net_hop_virt_ns", "ns"),
    ("stage.backend_io_virt_ns", "ns"),
    ("stage.commit_apply_virt_ns", "ns"),
    // self time of the benchmark's own spans, per repetition.
    ("span.construct_self_ms", "ms"),
    ("span.rep_self_ms", "ms"),
    ("span.run_self_ms", "ms"),
    ("span.shutdown_self_ms", "ms"),
    ("span.open_self_ms", "ms"),
    ("span.tx_self_ms", "ms"),
    ("span.load_self_ms", "ms"),
    ("span.store_self_ms", "ms"),
    ("span.read_into_self_ms", "ms"),
    ("span.write_slice_self_ms", "ms"),
    ("span.barrier_self_ms", "ms"),
    ("span.flush_wait_self_ms", "ms"),
    ("span.self_sum_over_wall", "ratio"),
    // host / bench
    ("host.cpu_s", "s"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.traced_wall_s", "s"),
    ("layers.explained_wall_frac", "ratio"),
];

/// The last line of standard output: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`, holding every metric of
/// `table` in table order. Values print with all their digits. The driver
/// wants every listed metric on every workload, so one the workload did not
/// measure (printed as `n/a` above the line) is 0 here; the README lists
/// which those are.
pub fn result_line(
    table: &[(&str, &str)],
    values: &BTreeMap<&str, f64>,
    attempted: u64,
    failed: u64,
    correct: bool,
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (k, (name, unit)) in table.iter().enumerate() {
        let v = values.get(name).copied().filter(|v| v.is_finite()).unwrap_or(0.0);
        let sep = if k == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_stay_inside_the_contract_charset() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} of {name}");
        }
        assert!(!valid_name(".x") && !valid_name("a b") && !valid_name("a/b") && !valid_name(""));
        assert!(!valid_unit("MiB per s") && valid_unit("MiB/s") && valid_unit("%"));
    }

    #[test]
    fn every_name_is_used_once() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).map(|(n, _)| *n).collect();
        let set: BTreeSet<&str> = all.iter().copied().collect();
        assert_eq!(set.len(), all.len());
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn result_line_is_one_json_object_with_all_digits() {
        let mut values = BTreeMap::new();
        values.insert("wall_s", 1.2345678901234567);
        values.insert("setup_s", f64::NAN);
        let line = result_line(&END_TO_END[..2], &values, 10, 1, false);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 10, \"failed\": 1, \"metrics\": {\
             \"setup_s\": {\"value\": 0, \"unit\": \"s\"}, \
             \"wall_s\": {\"value\": 1.2345678901234567, \"unit\": \"s\"}}}"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists other metrics"
        );
        for w in crate::workloads::NAMES {
            assert!(
                text.contains(&format!("\"name\": \"{w}\"")),
                "BENCHMARK.json lacks workload {w}"
            );
        }
    }
}
