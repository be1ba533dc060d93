//! The five workloads and what they share: the repetition record, the
//! counters read from the program's public stats, and seeded input helpers.
//!
//! A workload is built once per set-up ([`build`]) from the seed and then
//! asked for repetitions. Library-driven workloads (`kmeans_seq`,
//! `gs_tiered`) and `share_2node` build a fresh cluster and runtime per
//! repetition, outside the timed region; `rand_read` and `rand_update` fill
//! one vector during set-up and time consecutive windows on it.

pub mod gs_tiered;
pub mod kmeans_seq;
pub mod rand_read;
pub mod rand_update;
pub mod share_2node;

use std::collections::BTreeMap;
use std::time::Instant;

use megammap::prelude::{MmError, MmVec};
use megammap::runtime::StatsSnapshot;
use megammap::Runtime;
use megammap_cluster::{Cluster, Proc, RunReport};
use megammap_sim::TierKind;
use megammap_telemetry::{Snapshot, Stage};

use crate::spans::{Lane, Trace};

pub const NAMES: [&str; 5] = ["kmeans_seq", "gs_tiered", "rand_read", "rand_update", "share_2node"];

/// Per-layer values of one repetition, keyed by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// What one timed repetition measured.
#[derive(Debug)]
pub struct Rep {
    pub wall_s: f64,
    pub virt_ns: u64,
    pub model_peak_bytes: u64,
    /// Bytes the driver asked for through load/store/read_into/write_slice.
    pub user_bytes: u64,
    /// Bytes the program moved to serve them (see [`moved_bytes`]).
    pub moved_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Bit pattern of the checked output; equal inputs must give equal bits.
    pub fingerprint: u64,
}

pub struct RepOpts {
    pub rep_no: u32,
    /// `false` runs the repetition with the program's telemetry disabled
    /// (counters then read 0, so only `wall_s` of the result is meaningful).
    pub telemetry: bool,
    /// Record benchmark-owned spans and read the layer counters.
    pub traced: bool,
    pub epoch: Instant,
}

impl RepOpts {
    /// The span lane of thread `lane` in this repetition: recording when
    /// the repetition is traced, inert otherwise.
    pub fn lane(&self, lane: u32, capacity: usize) -> Lane {
        if self.traced {
            Lane::new(self.epoch, lane, self.rep_no, capacity)
        } else {
            Lane::off()
        }
    }
}

pub struct RepOut {
    pub rep: Rep,
    /// Layer counters and span-derived samples; filled when traced.
    pub layers: Layers,
    pub trace: Trace,
    /// Virtual latency of each faulting load the driver issued (traced,
    /// bench-owned drivers only).
    pub fault_virt_ns: Vec<u64>,
}

pub trait Workload {
    fn rep(&mut self, opts: &RepOpts) -> RepOut;
    /// Checks that need the final state (e.g. a full re-read against the
    /// oracle); returns (attempted, failed).
    fn finish(&mut self) -> (u64, u64) {
        (0, 0)
    }
    /// Whether every repetition runs on the same inputs, so that all must
    /// produce the same output bits.
    fn reps_repeat(&self) -> bool {
        true
    }
}

pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "kmeans_seq" => Box::new(kmeans_seq::KmeansSeq::setup(seed)),
        "gs_tiered" => Box::new(gs_tiered::GsTiered::setup(seed)),
        "rand_read" => Box::new(rand_read::RandRead::setup(seed)),
        "rand_update" => Box::new(rand_update::RandUpdate::setup(seed)),
        "share_2node" => Box::new(share_2node::Share2Node::setup(seed)),
        _ => return None,
    })
}

/// The benchmark's own generator (the program receives only the generated
/// inputs): splitmix64, one state word.
#[derive(Debug, Clone)]
pub struct Rng(pub u64);

impl Rng {
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, n)` (multiply-shift; the bias is below 2⁻³² for the
    /// vector lengths used here).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// The value every seeded vector holds at index `i` before any update.
#[inline]
pub fn cell(seed: u64, i: u64) -> u64 {
    Rng(seed ^ i.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// Bytes the program moved: demand-faulted bytes, prefetched pages,
/// backend stage-in and stage-out bytes, and bytes over the inter-node
/// network. `runtime.fault_bytes`, `stager.staged_*_bytes` are bytes
/// already; `prefetch.issued` counts pages.
pub fn moved_bytes(s: &StatsSnapshot, page_size: u64, net_bytes: u64) -> u64 {
    s.fault_bytes + s.prefetches * page_size + s.staged_in + s.staged_out + net_bytes
}

pub fn stats_delta(after: &StatsSnapshot, before: &StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        faults: after.faults - before.faults,
        prefetches: after.prefetches - before.prefetches,
        remote_reads: after.remote_reads - before.remote_reads,
        local_reads: after.local_reads - before.local_reads,
        writes: after.writes - before.writes,
        staged_in: after.staged_in - before.staged_in,
        staged_out: after.staged_out - before.staged_out,
        tasks_low: after.tasks_low - before.tasks_low,
        tasks_high: after.tasks_high - before.tasks_high,
        invalidations: after.invalidations - before.invalidations,
        bytes_copied: after.bytes_copied - before.bytes_copied,
        fault_bytes: after.fault_bytes - before.fault_bytes,
        coalesced_faults: after.coalesced_faults - before.coalesced_faults,
        owner_fast_hits: after.owner_fast_hits - before.owner_fast_hits,
        owner_fast_misses: after.owner_fast_misses - before.owner_fast_misses,
        batched_crossings: after.batched_crossings - before.batched_crossings,
    }
}

/// The DRAM the paper's Figs. 5/8 bound: baseline allocations plus the
/// scache DRAM tier, peak over nodes.
pub fn model_peak(rt: &Runtime, node_peak_mem: u64) -> u64 {
    node_peak_mem + rt.peak_scache_dram()
}

/// `v.try_load(p, i)` under a `load` span of its own. On a recording lane a
/// load that missed the pcache also leaves its virtual latency (the
/// `Proc::now()` delta) in `fault_virt_ns`.
#[inline]
pub fn load_spanned(
    lane: &mut Lane,
    fault_virt_ns: &mut Vec<u64>,
    v: &MmVec<u64>,
    p: &Proc,
    i: u64,
) -> Result<u64, MmError> {
    let probe = lane.is_on().then(|| (v.cache_stats().misses, p.now()));
    let span = lane.begin("load");
    let got = v.try_load(p, i);
    lane.end(span);
    if let Some((misses, now)) = probe {
        if v.cache_stats().misses > misses {
            fault_virt_ns.push(p.now() - now);
        }
    }
    got
}

/// What a traced job-style repetition (fresh cluster, one `cluster.run`)
/// hands back: the main lane with the rank lanes under its `rep` span, and
/// the layer counters of the whole run.
pub fn job_trace_and_layers(
    main: Lane,
    rank_lanes: Vec<Lane>,
    rep_span: Option<u32>,
    cluster: &Cluster,
    rt: &Runtime,
    report: &RunReport,
) -> (Trace, Layers) {
    let mut trace = Trace::default();
    trace.absorb(main, None);
    for lane in rank_lanes {
        trace.absorb(lane, rep_span);
    }
    let snap = cluster.telemetry().snapshot();
    let layers = layer_counts(
        rt,
        &rt.stats(),
        &TelCounts::read(&snap),
        &snap,
        (0, u64::MAX),
        report.net_bytes,
        &report.rank_times,
    );
    (trace, layers)
}

/// The same for one window on a live vector (`rand_*`): `stats` and the
/// telemetry counters are deltas over the window, and the program's spans
/// are picked from the ring by the window's virtual time.
pub fn window_trace_and_layers(
    lane: Lane,
    cluster: &Cluster,
    rt: &Runtime,
    stats: &StatsSnapshot,
    tel_before: &TelCounts,
    virt: (u64, u64),
) -> (Trace, Layers) {
    let mut trace = Trace::default();
    trace.absorb(lane, None);
    let snap = cluster.telemetry().snapshot();
    let tel = TelCounts::read(&snap).minus(tel_before);
    (trace, layer_counts(rt, stats, &tel, &snap, virt, 0, &[virt.1]))
}

/// Cumulative counters that live only in the telemetry registry.
#[derive(Debug, Clone, Copy, Default)]
pub struct TelCounts {
    pub pcache_hits: u64,
    pub pcache_misses: u64,
    pub pcache_evictions: u64,
    pub prefetch_hits: u64,
    pub backend_bytes: u64,
    pub collectives: u64,
    pub dmsh_lock_acq: u64,
    pub dmsh_lock_wait: u64,
    pub all_lock_wait: u64,
}

impl TelCounts {
    pub fn read(snap: &Snapshot) -> Self {
        let mut c = Self {
            pcache_hits: snap.counter_total("pcache", "hits"),
            pcache_misses: snap.counter_total("pcache", "misses"),
            pcache_evictions: snap.counter_total("pcache", "evictions"),
            prefetch_hits: snap.counter_total("prefetch", "useful"),
            backend_bytes: snap.counter_total("stager", "backend_bytes"),
            collectives: snap.counter_total("comm", "collectives"),
            ..Self::default()
        };
        for (k, v) in snap.counters.iter().filter(|(k, _)| k.subsystem == "lock") {
            let dmsh = k.label("lock").is_some_and(|l| l.starts_with("Dmsh"));
            match k.name {
                "acquisitions" if dmsh => c.dmsh_lock_acq += v,
                "wait_model_ns" => {
                    c.all_lock_wait += v;
                    if dmsh {
                        c.dmsh_lock_wait += v;
                    }
                }
                _ => {}
            }
        }
        c
    }

    pub fn minus(&self, b: &Self) -> Self {
        Self {
            pcache_hits: self.pcache_hits - b.pcache_hits,
            pcache_misses: self.pcache_misses - b.pcache_misses,
            pcache_evictions: self.pcache_evictions - b.pcache_evictions,
            prefetch_hits: self.prefetch_hits - b.prefetch_hits,
            backend_bytes: self.backend_bytes - b.backend_bytes,
            collectives: self.collectives - b.collectives,
            dmsh_lock_acq: self.dmsh_lock_acq - b.dmsh_lock_acq,
            dmsh_lock_wait: self.dmsh_lock_wait - b.dmsh_lock_wait,
            all_lock_wait: self.all_lock_wait - b.all_lock_wait,
        }
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Everything the traced run reads from public stats for one repetition.
/// `s` and `t` are the repetition's own counts (already deltas on a live
/// vector); `virt` is the repetition's virtual-time window, used to pick
/// its spans out of the telemetry ring.
pub fn layer_counts(
    rt: &Runtime,
    s: &StatsSnapshot,
    t: &TelCounts,
    snap: &Snapshot,
    virt: (u64, u64),
    net_bytes: u64,
    rank_times: &[u64],
) -> Layers {
    let mut l = Layers::new();
    l.insert("pcache.hits", t.pcache_hits as f64);
    l.insert("pcache.misses", t.pcache_misses as f64);
    l.insert("pcache.hit_rate", ratio(t.pcache_hits, t.pcache_hits + t.pcache_misses));
    l.insert("pcache.evictions", t.pcache_evictions as f64);
    l.insert("pcache.prefetch_hits", t.prefetch_hits as f64);
    l.insert("prefetch.issued", s.prefetches as f64);
    l.insert("prefetch.accuracy", ratio(t.prefetch_hits, s.prefetches));
    l.insert("prefetch.coalesced_faults", s.coalesced_faults as f64);
    l.insert("prefetch.batched_crossings", s.batched_crossings as f64);
    l.insert("runtime.faults", s.faults as f64);
    l.insert("runtime.fault_bytes", s.fault_bytes as f64);
    l.insert(
        "runtime.owner_fast_hit_rate",
        ratio(s.owner_fast_hits, s.owner_fast_hits + s.owner_fast_misses),
    );
    l.insert("runtime.bytes_copied", s.bytes_copied as f64);
    l.insert("runtime.tasks", (s.tasks_low + s.tasks_high) as f64);
    l.insert("runtime.writes", s.writes as f64);
    l.insert("runtime.remote_reads", s.remote_reads as f64);
    l.insert("runtime.local_reads", s.local_reads as f64);
    l.insert("runtime.invalidations", s.invalidations as f64);
    let delay = (0..rt.nodes()).map(|n| rt.shard_queue_delay_p99(n)).max().unwrap_or(0);
    l.insert("runtime.shard_queue_delay_p99_ns", delay as f64);
    l.insert("stager.staged_in", s.staged_in as f64);
    l.insert("stager.staged_out", s.staged_out as f64);
    l.insert("stager.backend_bytes", t.backend_bytes as f64);
    l.insert("dmsh.lock_acquisitions", t.dmsh_lock_acq as f64);
    l.insert("dmsh.lock_wait_model_ns", t.dmsh_lock_wait as f64);
    l.insert("dmsh.lock_wait_share", ratio(t.dmsh_lock_wait, t.all_lock_wait));
    for (name, kind) in [
        ("dmsh.tier_bytes_dram", TierKind::Dram),
        ("dmsh.tier_bytes_nvme", TierKind::Nvme),
        ("dmsh.tier_bytes_ssd", TierKind::Ssd),
    ] {
        // Peak bytes resident on the tier, max over nodes.
        let peak = (0..rt.nodes())
            .flat_map(|n| {
                let d = &rt.node(n).dmsh;
                (0..d.num_tiers()).map(move |i| d.device(i))
            })
            .filter(|dev| dev.kind() == kind)
            .map(|dev| dev.ledger().peak())
            .max()
            .unwrap_or(0);
        l.insert(name, peak as f64);
    }
    l.insert("comm.collectives", t.collectives as f64);
    l.insert("net.bytes", net_bytes as f64);
    let makespan = rank_times.iter().copied().max().unwrap_or(0);
    let earliest = rank_times.iter().copied().min().unwrap_or(0);
    l.insert("comm.rank_skew_virt_ns", (makespan - earliest) as f64);
    l.insert("telemetry.spans_dropped", snap.spans_dropped as f64);
    l.insert("telemetry.events_dropped", snap.events_dropped as f64);

    let mut stage = [0u64; 6];
    for sp in snap.spans.iter().filter(|sp| sp.t_begin >= virt.0 && sp.t_begin < virt.1) {
        let slot = match sp.stage {
            Stage::MissDetect => 0,
            Stage::QueueWait => 1,
            Stage::TierRead | Stage::TierWrite => 2,
            Stage::NetHop => 3,
            Stage::BackendRead | Stage::BackendWrite => 4,
            Stage::CommitApply => 5,
            _ => continue,
        };
        stage[slot] += sp.duration();
    }
    for (name, v) in [
        "stage.miss_detect_virt_ns",
        "stage.queue_wait_virt_ns",
        "stage.tier_rw_virt_ns",
        "stage.net_hop_virt_ns",
        "stage.backend_io_virt_ns",
        "stage.commit_apply_virt_ns",
    ]
    .into_iter()
    .zip(stage)
    {
        l.insert(name, v as f64);
    }
    l
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_a_pure_function_of_its_seed() {
        let a: Vec<u64> = (0..64).scan(Rng(9), |r, _| Some(r.next_u64())).collect();
        let b: Vec<u64> = (0..64).scan(Rng(9), |r, _| Some(r.next_u64())).collect();
        let c: Vec<u64> = (0..64).scan(Rng(10), |r, _| Some(r.next_u64())).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn below_stays_in_range_and_spreads() {
        let mut r = Rng(1);
        let mut seen = [false; 16];
        for _ in 0..1000 {
            let x = r.below(16);
            assert!(x < 16);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn moved_bytes_adds_every_path_once() {
        let s = StatsSnapshot {
            fault_bytes: 100,
            prefetches: 3,
            staged_in: 7,
            staged_out: 11,
            ..StatsSnapshot::default()
        };
        assert_eq!(moved_bytes(&s, 10, 5), 100 + 30 + 7 + 11 + 5);
    }

    #[test]
    fn unknown_workload_is_refused() {
        assert!(build("nope", 1).is_none());
    }

    fn opts(rep_no: u32, traced: bool) -> RepOpts {
        RepOpts { rep_no, telemetry: true, traced, epoch: Instant::now() }
    }

    /// Every workload at a size a unit test can afford.
    fn small(name: &str, seed: u64) -> Box<dyn Workload> {
        match name {
            "kmeans_seq" => Box::new(kmeans_seq::KmeansSeq::with_points(seed, 40_000)),
            "gs_tiered" => Box::new(gs_tiered::GsTiered::with_grid(seed, 16, 3)),
            "rand_read" => Box::new(rand_read::RandRead::with_size(seed, 1 << 17, 3000)),
            "rand_update" => Box::new(rand_update::RandUpdate::with_size(seed, 1 << 17, 3000)),
            "share_2node" => Box::new(share_2node::Share2Node::with_size(seed, 1 << 17, 2)),
            other => panic!("no small form of {other}"),
        }
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        use megammap_workloads::datagen::HaloDataset;
        let bytes = |seed| {
            let w = kmeans_seq::KmeansSeq::with_points(seed, 5000);
            HaloDataset { points: w.points, labels: Vec::new(), centers: Vec::new() }.to_bytes()
        };
        assert_eq!(bytes(3), bytes(3));
        assert_ne!(bytes(3), bytes(4));

        let stream = |seed, rep| -> Vec<u64> {
            let mut next = rand_read::indices(seed, rep, 1 << 20);
            (0..256).map(|_| next()).collect()
        };
        assert_eq!(stream(3, 1), stream(3, 1));
        assert_ne!(stream(3, 1), stream(3, 2));
        assert_ne!(stream(3, 1), stream(4, 1));
        assert_eq!(cell(3, 77), cell(3, 77));
        assert_ne!(cell(3, 77), cell(4, 77));

        let (a, b, c) =
            (gs_tiered::config(3, 16, 2), gs_tiered::config(3, 16, 2), gs_tiered::config(4, 16, 2));
        assert_eq!((a.f.to_bits(), a.k.to_bits()), (b.f.to_bits(), b.k.to_bits()));
        assert_ne!((a.f.to_bits(), a.k.to_bits()), (c.f.to_bits(), c.k.to_bits()));
    }

    #[test]
    fn one_process_workloads_repeat_bit_for_bit() {
        for name in ["rand_read", "rand_update"] {
            let run = || {
                let mut w = small(name, 5);
                let reps: Vec<Rep> = (0..3).map(|r| w.rep(&opts(r, false)).rep).collect();
                reps.iter()
                    .map(|r| (r.virt_ns, r.moved_bytes, r.user_bytes, r.fingerprint, r.failed))
                    .collect::<Vec<_>>()
            };
            let (a, b) = (run(), run());
            assert_eq!(a, b, "{name}: same seed, same operations, same virtual time and bytes");
            assert!(a.iter().all(|r| r.0 > 0 && r.1 > 0 && r.4 == 0), "{name}: {a:?}");
        }
    }

    #[test]
    fn a_second_seed_passes_every_output_check() {
        for name in NAMES {
            let mut w = small(name, 2);
            let mut prints = Vec::new();
            for r in 0..2 {
                let out = w.rep(&opts(r, false)).rep;
                assert!(out.attempted >= 1, "{name}");
                assert_eq!(out.failed, 0, "{name}: repetition {r} failed a check");
                assert!(
                    out.moved_bytes > 0 && out.user_bytes > 0 && out.virt_ns > 0,
                    "{name}: {out:?}"
                );
                prints.push(out.fingerprint);
            }
            assert_eq!(w.finish().1, 0, "{name}: final state check failed");
            if w.reps_repeat() {
                assert_eq!(prints[0], prints[1], "{name}: equal inputs, different output bits");
            }
        }
    }

    #[test]
    fn traced_repetitions_report_layers_and_nested_spans() {
        for name in NAMES {
            let mut w = small(name, 1);
            w.rep(&opts(0, false));
            let out = w.rep(&opts(1, true));
            assert_eq!(out.rep.failed, 0, "{name}");
            for key in ["pcache.hits", "runtime.faults", "net.bytes", "stage.tier_rw_virt_ns"] {
                assert!(out.layers.contains_key(key), "{name} lacks {key}");
            }
            let reps: Vec<f64> = out
                .trace
                .reconcile()
                .into_iter()
                .filter(|(n, _)| *n == "rep")
                .map(|(_, s)| s)
                .collect();
            assert_eq!(reps.len(), 1, "{name}: one rep span per repetition");
            if name == "share_2node" {
                let count = |n| out.trace.spans.iter().filter(|s| s.name == n).count() as u64;
                let patch_pages = (1 << 17) / (share_2node::PAGE / 8) / 2;
                assert_eq!(count("load"), 3 * patch_pages, "a span per read-back load");
                assert_eq!(count("shutdown"), 1, "the job ends with Runtime::shutdown");
            }
            assert!(
                reps[0] > 0.5 && reps[0] <= 1.0 + 1e-9,
                "{name}: self times cover {} of the rep",
                reps[0]
            );
        }
    }
}
