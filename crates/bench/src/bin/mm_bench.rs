//! `mm_bench` — a machine-readable performance snapshot for CI diffing.
//!
//! Where the Criterion benches give humans distributions, `mm_bench` emits
//! one small JSON file a dashboard (or a reviewer) can diff across
//! commits: the wall-clock fault-path costs, the telemetry overhead
//! percentage, and the (virtual-time, deterministic) per-tenant fault
//! latency percentiles.
//!
//! Output goes to `BENCH_<YYYY-MM-DD>.json` in the current directory, or
//! to the path in `MM_BENCH_OUT` if set. The schema (`mm-bench/v4`) is
//! documented in `DESIGN.md`; v2 added the `shard_path` section (shard
//! queue-delay p99, ownership fast-path hit rate, batched crossings); v3
//! added the `scale_path` section (weak-scaling efficiency trajectory at
//! 4/16/64/256 nodes plus the chaos-recovery virtual cost, all
//! deterministic virtual-time numbers); v4 adds the `ann_path` section
//! (IVF search recall, virtual-time search percentiles, bytes faulted per
//! query on the flat and PQ paths, and the PQ compression ratio). Two
//! floors joined v4 additively: `fault_path.fault_from_scache_wide_ns_per_iter`
//! (the scache fault over a working set 16x the hot-page sketch) and
//! `telemetry.sketch_record_thrash_ns` (the sketch's eviction path alone).
//! `stager.stage_out_pass_ns` (one background stage-out pass over 256
//! pages of a `file://` vector, each owing its backend 8 bytes) joined the
//! same way, as did the `code_size` section (non-blank, non-comment,
//! non-test lines per workspace crate — ROADMAP item 5's tracked number).
//!
//! `mm_bench --compare <old.json> <new.json>` diffs two snapshots: it
//! prints a per-metric delta table and exits non-zero when any gated
//! metric regresses past its floor threshold (this replaces the ad-hoc
//! python floor check that used to live in `ci.sh`).
//!
//! Wall-clock numbers use the floor-of-batches estimator (scheduling noise
//! only ever adds time); the virtual-time numbers are bit-deterministic.

use std::collections::BTreeMap;
use std::time::Instant;

use megammap::prelude::*;
use megammap_bench::{loc, scale};
use megammap_cluster::{Cluster, ClusterSpec};
use megammap_sim::DeviceSpec;
use megammap_telemetry::{HeavyHitters, DEFAULT_HOT_PAGE_CAPACITY};

/// Mirror of the fault-latency histogram bounds in `megammap::vector`.
const FAULT_BOUNDS: [u64; 15] = [
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

/// Minimum over batches — the observation least polluted by noise.
fn floor(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Proleptic-Gregorian civil date from days since the Unix epoch
/// (Howard Hinnant's `civil_from_days`).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Wall-clock ns/iter of the pure pcache hit path.
fn pcache_hit_ns() -> f64 {
    const ITERS: u64 = 200_000;
    const BATCHES: usize = 11;
    let cluster = Cluster::new(ClusterSpec::new(1, 1).dram_per_node(1 << 30));
    let rt = Runtime::new(&cluster, RuntimeConfig::default().with_page_size(16 * 1024));
    let (ns, _) = cluster.run_once(|p| {
        let v: MmVec<u64> =
            MmVec::open(&rt, p, "mem://bench/hit", VecOptions::new().len(2048).pcache(1 << 20))
                .unwrap();
        let tx = v.tx(p, TxKind::seq(0, 1), Access::ReadWriteGlobal).unwrap();
        v.store(p, tx.handle(), 0, 1);
        let mut batches = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let t = Instant::now();
            let mut acc = 0u64;
            for _ in 0..ITERS {
                acc = acc.wrapping_add(v.load(p, tx.handle(), 0));
            }
            std::hint::black_box(acc);
            batches.push(t.elapsed().as_nanos() as f64 / ITERS as f64);
        }
        tx.end().unwrap();
        floor(&batches)
    });
    ns
}

/// Pages of the narrow fault-path scenario: fits the hot-page sketch
/// ([`DEFAULT_HOT_PAGE_CAPACITY`]), so every touch is a tracked hit.
const NARROW_PAGES: u64 = 64;
/// Pages of the wide scenario and key universe of the sketch thrash
/// floor: 16x the sketch capacity, so ~94% of touches evict.
const WIDE_PAGES: u64 = 8192;

/// Seeded uniform draws from `0..n`: the access order of a `TxKind::rand`.
fn uniform_below(seed: u64, n: u64) -> impl FnMut() -> u64 {
    let order = TxKind::rand(seed, 0, n);
    let mut k = 0u64;
    move || {
        k += 1;
        order.access_index(k)
    }
}

/// Wall-clock ns/iter of a fault served by the local scache shard (a
/// one-page pcache makes every page switch a synchronous fault), over a
/// `pages`-page vector visited in the order `next_page` yields.
fn fault_from_scache_ns(pages: u64, mut next_page: impl FnMut() -> u64 + Send) -> f64 {
    const PAGE: u64 = 16 * 1024;
    const ITERS: u64 = 20_000;
    // Each batch is ~10ms; host steal-time episodes on a single-core VM
    // last whole seconds, so the batch series must outlast one for the
    // floor to sample a quiet moment.
    const BATCHES: usize = 41;
    let cluster = Cluster::new(ClusterSpec::new(1, 1).dram_per_node(1 << 30));
    let rt = Runtime::new(&cluster, RuntimeConfig::default().with_page_size(PAGE));
    let (ns, _) = cluster.run_once(|p| {
        let v: MmVec<u64> = MmVec::open(
            &rt,
            p,
            "mem://bench/fault",
            VecOptions::new().len(pages * PAGE / 8).pcache(PAGE).no_prefetch(),
        )
        .unwrap();
        let tx = v.tx(p, TxKind::seq(0, v.len()), Access::WriteGlobal).unwrap();
        for i in 0..v.len() {
            v.store(p, tx.handle(), i, i);
        }
        tx.end().unwrap();
        let elems_per_page = PAGE / 8;
        let tx = v.tx(p, TxKind::rand(1, 0, v.len()), Access::ReadWriteGlobal).unwrap();
        let mut batches = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let t = Instant::now();
            let mut acc = 0u64;
            for _ in 0..ITERS {
                acc = acc.wrapping_add(v.load(p, tx.handle(), next_page() * elems_per_page));
            }
            std::hint::black_box(acc);
            batches.push(t.elapsed().as_nanos() as f64 / ITERS as f64);
        }
        tx.end().unwrap();
        floor(&batches)
    });
    ns
}

/// Wall-clock ns per `HeavyHitters::record` when the key population is
/// 16x the sketch capacity — the eviction path, isolated from the runtime.
fn sketch_record_thrash_ns() -> f64 {
    const ITERS: u64 = 200_000;
    const BATCHES: usize = 21;
    let sketch = HeavyHitters::detached(DEFAULT_HOT_PAGE_CAPACITY);
    let mut next_key = uniform_below(11, WIDE_PAGES);
    let mut batches = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..ITERS {
            sketch.record(1, next_key(), 1);
        }
        batches.push(t.elapsed().as_nanos() as f64 / ITERS as f64);
    }
    std::hint::black_box(sketch.evictions());
    floor(&batches)
}

/// Wall-clock ns of one background stage-out pass over a `file://` vector
/// of 256 resident pages, each with one 8-byte dirty range: the active
/// stager's per-pass cost when little is dirty (no sync — a background
/// pass is not a durability point).
fn stage_out_pass_ns() -> f64 {
    const PAGE: u64 = 16 * 1024;
    const PAGES: u64 = 256;
    const BATCHES: usize = 21;
    // Long enough that no pass fires while a batch dirties its pages.
    const INTERVAL_NS: u64 = 1_000_000_000;
    let dir = std::env::temp_dir().join(format!("mm-bench-stager-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir for the stager floor");
    let url = format!("file://{}", dir.join("pass.bin").display());
    let cluster = Cluster::new(ClusterSpec::new(1, 1).dram_per_node(1 << 30));
    let mut cfg = RuntimeConfig::default().with_page_size(PAGE);
    cfg.stage_interval_ns = INTERVAL_NS;
    let rt = Runtime::new(&cluster, cfg);
    let (ns, _) = cluster.run_once(|p| {
        let elems_per_page = PAGE / 8;
        let opts = VecOptions::new().len(PAGES * elems_per_page).pcache(PAGE).no_prefetch();
        let v: MmVec<u64> = MmVec::open(&rt, p, &url, opts).unwrap();
        let tx = v.tx(p, TxKind::seq(0, v.len()), Access::WriteGlobal).unwrap();
        for i in 0..v.len() {
            v.store(p, tx.handle(), i, i);
        }
        tx.end().unwrap();
        v.flush_wait(p).unwrap();
        let mut batches = Vec::with_capacity(BATCHES);
        for batch in 0..BATCHES as u64 {
            // One element per page; the last page stays in the pcache.
            let tx = v.tx(p, TxKind::seq(0, v.len()), Access::ReadWriteGlobal).unwrap();
            for page in 0..PAGES {
                v.store(p, tx.handle(), page * elems_per_page + batch, batch);
            }
            // The interval elapses: committing the last page runs the pass.
            p.advance(INTERVAL_NS);
            let staged = rt.stats().staged_out;
            let t = Instant::now();
            tx.end().unwrap();
            batches.push(t.elapsed().as_nanos() as f64);
            assert_eq!(rt.stats().staged_out - staged, PAGES * 8, "one pass, dirty bytes only");
        }
        floor(&batches)
    });
    std::fs::remove_dir_all(&dir).ok();
    ns
}

/// Telemetry overhead on the warmed load-scan fast path, in percent
/// (interleaved enabled/disabled batches, floors compared).
fn telemetry_overhead_pct() -> f64 {
    const N: u64 = 64 * 1024;
    // Floors only converge once both the enabled and disabled series have
    // sampled a quiet host moment; 11 batches was not enough under steal
    // time (observed swings of +/-10% on a single-core VM).
    const BATCHES: usize = 33;
    let cluster = Cluster::new(ClusterSpec::new(1, 1).dram_per_node(1 << 30));
    let rt = Runtime::new(&cluster, RuntimeConfig::default().with_page_size(64 * 1024));
    let tel = cluster.telemetry().clone();
    let (pct, _) = cluster.run_once(|p| {
        let v: MmVec<f64> =
            MmVec::open(&rt, p, "mem://bench/tel", VecOptions::new().len(N).pcache(8 << 20))
                .unwrap();
        let tx = v.tx(p, TxKind::seq(0, N), Access::WriteGlobal).unwrap();
        for i in 0..N {
            v.store(p, tx.handle(), i, i as f64 * 1.5);
        }
        tx.end().unwrap();
        let tx = v.tx(p, TxKind::seq(0, N), Access::ReadOnly).unwrap();
        let scan = |v: &MmVec<f64>| {
            let mut acc = 0.0f64;
            for i in 0..N {
                acc += v.load(p, tx.handle(), i) * 2.0;
            }
            acc
        };
        std::hint::black_box(scan(&v)); // warm the pcache
        let time_scan = |on: bool| {
            tel.set_enabled(on);
            let t = Instant::now();
            std::hint::black_box(scan(&v));
            t.elapsed().as_nanos() as f64
        };
        time_scan(true);
        time_scan(false);
        let mut on_ns = Vec::with_capacity(BATCHES);
        let mut off_ns = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            on_ns.push(time_scan(true));
            off_ns.push(time_scan(false));
        }
        tel.set_enabled(true);
        let (on, off) = (floor(&on_ns), floor(&off_ns));
        let pct = (on - off) / off * 100.0;
        tx.end().unwrap();
        pct
    });
    pct
}

/// Deterministic virtual-time fault-latency percentiles: a tenant-attached
/// no-prefetch vector over a tight tier stack, random point reads.
fn fault_latency_percentiles() -> (u64, u64, u64, u64) {
    const PAGE: u64 = 4096;
    const READS: u64 = 20_000;
    let cluster = Cluster::new(ClusterSpec::new(1, 1));
    let cfg = RuntimeConfig::default().with_page_size(PAGE).with_tiers(vec![
        DeviceSpec::dram(64 * 1024),
        DeviceSpec::nvme(1 << 20),
        DeviceSpec::ssd(4 << 20),
    ]);
    let rt = Runtime::new(&cluster, cfg);
    let tenant = rt.tenants().register("bench", TenantClass::Interactive, 32 * 1024, 1 << 20);
    let rt2 = rt.clone();
    let (out, _) = cluster.run_once(move |p| {
        let n = 128 * PAGE / 8; // 128 pages of u64
        let v: MmVec<u64> = MmVec::open(
            &rt2,
            p,
            "mem://bench/lat",
            VecOptions::new().len(n).pcache(32 * 1024).tenant(tenant).no_prefetch(),
        )
        .unwrap();
        let tx = v.tx(p, TxKind::seq(0, n), Access::WriteGlobal).unwrap();
        for i in 0..n {
            v.store(p, tx.handle(), i, i);
        }
        tx.end().unwrap();
        let kind = TxKind::rand(7, 0, n);
        let tx = v.tx(p, kind, Access::ReadOnly).unwrap();
        let mut acc = 0u64;
        for k in 0..READS {
            acc = acc.wrapping_add(v.load(p, tx.handle(), kind.access_index(k)));
        }
        std::hint::black_box(acc);
        tx.end().unwrap();
        let hist = rt2
            .telemetry()
            .histogram("tenant", "fault_ns", &[("tenant", "bench")], &FAULT_BOUNDS)
            .snapshot();
        (hist.p50(), hist.p99(), hist.p999(), hist.count)
    });
    out
}

/// Deterministic observables of the sharded fault path: the worst
/// per-shard queue-delay p99 (virtual ns), the ownership fast-path hit
/// rate, and the number of batched pcache→runtime crossings. The workload
/// mixes the three regimes the shard machinery serves: a sequential
/// write pass (establishes ownership), scattered owner re-reads (fast
/// path), and a prefetch-driven sequential scan (coalesced shard-batches).
fn shard_path_metrics() -> (u64, f64, u64, u64, u64) {
    const PAGE: u64 = 4096;
    const PAGES: u64 = 256;
    let cluster = Cluster::new(ClusterSpec::new(1, 1).dram_per_node(1 << 30));
    let rt = Runtime::new(&cluster, RuntimeConfig::default().with_page_size(PAGE));
    let rt2 = rt.clone();
    cluster.run_once(move |p| {
        let n = PAGES * PAGE / 8;
        let v: MmVec<u64> =
            MmVec::open(&rt2, p, "mem://bench/shard", VecOptions::new().len(n).pcache(8 * PAGE))
                .unwrap();
        // Ownership establishment + repeat commits.
        for _ in 0..2 {
            let tx = v.tx(p, TxKind::seq(0, n), Access::WriteLocal).unwrap();
            for i in (0..n).step_by(512) {
                v.store(p, tx.handle(), i, i);
            }
            tx.end().unwrap();
        }
        // Scattered owner re-reads: pcache-missing, owner-fast.
        let tx = v.tx(p, TxKind::rand(3, 0, n), Access::ReadOnly).unwrap();
        let mut acc = 0u64;
        let mut i = 0u64;
        while i < n {
            acc = acc.wrapping_add(v.load(p, tx.handle(), i));
            i += 379;
        }
        tx.end().unwrap();
        // Coalesced shard-batches: a fresh handle with a pcache that holds
        // the whole vector (coalescing is bounded by free pcache space),
        // striding a full shard neighbourhood (8 pages) per access so the
        // prefetcher never covers the next fault — each miss lands in a
        // cold 8-page run and batches into one shard crossing.
        let vscan: MmVec<u64> = MmVec::open(
            &rt2,
            p,
            "mem://bench/shard",
            VecOptions::new().len(n).pcache((PAGES + 8) * PAGE),
        )
        .unwrap();
        let elems_per_page = PAGE / 8;
        let tx = vscan.tx(p, TxKind::seq(0, n), Access::ReadOnly).unwrap();
        for i in (0..n).step_by(8 * elems_per_page as usize) {
            acc = acc.wrapping_add(vscan.load(p, tx.handle(), i));
        }
        std::hint::black_box(acc);
        tx.end().unwrap();
    });
    let s = rt.stats();
    let total = s.owner_fast_hits + s.owner_fast_misses;
    let rate = if total == 0 { 0.0 } else { s.owner_fast_hits as f64 / total as f64 };
    (rt.shard_queue_delay_p99(0), rate, s.owner_fast_hits, s.owner_fast_misses, s.batched_crossings)
}

/// Flatten every numeric leaf of a JSON document into `path -> value`,
/// with object keys joined by `.` and array elements by index. Strings,
/// booleans and nulls are skipped. Hand-rolled for the restricted JSON
/// `mm_bench` itself emits; unknown syntax aborts with a message rather
/// than misattributing values.
fn flat_numbers(src: &str) -> BTreeMap<String, f64> {
    struct P<'a> {
        b: &'a [u8],
        i: usize,
    }
    impl P<'_> {
        fn ws(&mut self) {
            while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }
        fn expect(&mut self, c: u8) {
            self.ws();
            assert!(self.b.get(self.i) == Some(&c), "expected '{}' at byte {}", c as char, self.i);
            self.i += 1;
        }
        fn string(&mut self) -> String {
            self.expect(b'"');
            let start = self.i;
            while self.b[self.i] != b'"' {
                // mm_bench never emits escapes, but skip them defensively.
                self.i += if self.b[self.i] == b'\\' { 2 } else { 1 };
            }
            let s = String::from_utf8_lossy(&self.b[start..self.i]).into_owned();
            self.i += 1;
            s
        }
        fn value(&mut self, path: &mut Vec<String>, out: &mut BTreeMap<String, f64>) {
            self.ws();
            match self.b[self.i] {
                b'{' => {
                    self.i += 1;
                    self.ws();
                    if self.b[self.i] == b'}' {
                        self.i += 1;
                        return;
                    }
                    loop {
                        let key = self.string();
                        self.expect(b':');
                        path.push(key);
                        self.value(path, out);
                        path.pop();
                        self.ws();
                        if self.b[self.i] == b',' {
                            self.i += 1;
                        } else {
                            break;
                        }
                    }
                    self.expect(b'}');
                }
                b'[' => {
                    self.i += 1;
                    self.ws();
                    if self.b[self.i] == b']' {
                        self.i += 1;
                        return;
                    }
                    let mut ix = 0usize;
                    loop {
                        path.push(ix.to_string());
                        self.value(path, out);
                        path.pop();
                        ix += 1;
                        self.ws();
                        if self.b[self.i] == b',' {
                            self.i += 1;
                        } else {
                            break;
                        }
                    }
                    self.expect(b']');
                }
                b'"' => {
                    self.string();
                }
                b't' => self.i += 4,
                b'f' => self.i += 5,
                b'n' => self.i += 4,
                _ => {
                    let start = self.i;
                    while self.i < self.b.len()
                        && matches!(self.b[self.i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                    {
                        self.i += 1;
                    }
                    let txt = std::str::from_utf8(&self.b[start..self.i]).unwrap_or("");
                    let v = txt.parse::<f64>().unwrap_or_else(|_| {
                        panic!("bad number {txt:?} at byte {start}");
                    });
                    out.insert(path.join("."), v);
                }
            }
        }
    }
    let mut p = P { b: src.as_bytes(), i: 0 };
    let mut out = BTreeMap::new();
    p.value(&mut Vec::new(), &mut out);
    out
}

/// Gated metrics: `(key, max relative growth)` — the new value may exceed
/// the old by at most this fraction before `--compare` fails. A key an
/// older baseline lacks is skipped.
const RATIO_GATES: [(&str, f64); 9] = [
    ("fault_path.fault_from_scache_ns_per_iter", 0.10),
    ("fault_path.fault_from_scache_wide_ns_per_iter", 0.10),
    ("telemetry.sketch_record_thrash_ns", 0.10),
    ("stager.stage_out_pass_ns", 0.10),
    ("fault_path.pcache_hit_ns_per_iter", 0.15),
    ("fault_latency.p99_ns", 0.20),
    ("shard_path.shard_queue_delay_p99_ns", 0.20),
    ("ann_path.search_p99_ns_pq", 0.20),
    ("ann_path.bytes_faulted_per_query_pq", 0.20),
];

/// Weak-scaling efficiency floor at the largest trajectory point.
const EFFICIENCY_FLOOR: f64 = 0.5;

/// Absolute recall floors on the ANN search paths: `(key, floor)`.
const RECALL_FLOORS: [(&str, f64); 2] =
    [("ann_path.recall_at_10_flat", 0.90), ("ann_path.recall_at_10_pq", 0.85)];

fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

/// `mm_bench --compare old.json new.json`: per-metric delta table plus the
/// regression gates. Returns the process exit code.
fn compare(old_path: &str, new_path: &str) -> i32 {
    let read = |p: &str| {
        flat_numbers(&std::fs::read_to_string(p).unwrap_or_else(|e| panic!("reading {p}: {e}")))
    };
    let old = read(old_path);
    let new = read(new_path);

    println!("mm_bench compare: {old_path} -> {new_path}");
    println!("{:<48} {:>14} {:>14} {:>9}", "metric", "old", "new", "delta");
    let keys: Vec<&String> = old
        .keys()
        .chain(new.keys())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    for k in keys {
        if k == "generated_unix" {
            continue;
        }
        let (o, n) = (old.get(k), new.get(k));
        let delta = match (o, n) {
            (Some(&o), Some(&n)) if o != 0.0 => format!("{:+.1}%", (n - o) / o * 100.0),
            (Some(_), Some(_)) => "n/a".into(),
            _ => "—".into(),
        };
        println!(
            "{k:<48} {:>14} {:>14} {delta:>9}",
            o.map_or("—".into(), |&v| fmt_num(v)),
            n.map_or("—".into(), |&v| fmt_num(v)),
        );
    }

    let mut failures = Vec::new();
    for (key, max_growth) in RATIO_GATES {
        if let (Some(&o), Some(&n)) = (old.get(key), new.get(key)) {
            let limit = o * (1.0 + max_growth);
            if n > limit {
                failures.push(format!(
                    "{key}: {} exceeds {} (+{:.0}% over baseline {})",
                    fmt_num(n),
                    fmt_num(limit),
                    max_growth * 100.0,
                    fmt_num(o)
                ));
            }
        }
    }
    let budget = new.get("telemetry.budget_pct").copied().unwrap_or(2.0);
    if let Some(&pct) = new.get("telemetry.overhead_pct") {
        if pct > budget {
            failures.push(format!("telemetry.overhead_pct: {pct:.2} exceeds budget {budget:.1}"));
        }
    }
    // Weak-scaling efficiency floor at the largest node count present.
    let eff_at_max = new
        .iter()
        .filter(|(k, _)| k.starts_with("scale_path.weak_scaling.") && k.ends_with(".efficiency"))
        .max_by_key(|(k, _)| k.as_str())
        .map(|(_, &v)| v);
    if let Some(eff) = eff_at_max {
        if eff < EFFICIENCY_FLOOR {
            failures.push(format!(
                "scale_path: weak-scaling efficiency {eff:.4} below floor {EFFICIENCY_FLOOR}"
            ));
        }
    }
    for (key, fl) in RECALL_FLOORS {
        if let Some(&recall) = new.get(key) {
            if recall < fl {
                failures.push(format!("{key}: {recall:.4} below recall floor {fl}"));
            }
        }
    }

    if failures.is_empty() {
        println!("gates: all passed");
        0
    } else {
        for f in &failures {
            eprintln!("FAIL {f}");
        }
        1
    }
}

/// Run the weak-scaling trajectory + chaos pair and render the
/// `scale_path` JSON section (deterministic virtual-time numbers).
fn scale_path_json() -> String {
    let sp = scale::measure(|msg| eprintln!("mm_bench: scale_path: {msg} ..."));
    let mut runs = String::new();
    for (i, r) in sp.runs.iter().enumerate() {
        let sep = if i + 1 < sp.runs.len() { "," } else { "" };
        runs.push_str(&format!(
            "      {{ \"nodes\": {}, \"makespan_ns\": {}, \"efficiency\": {:.4} }}{sep}\n",
            r.nodes,
            r.makespan_ns,
            sp.efficiency(r.nodes)
        ));
    }
    format!(
        "  \"scale_path\": {{\n    \"pages_per_rank\": {},\n    \"rounds\": {},\n    \"weak_scaling\": [\n{runs}    ],\n    \"chaos_nodes\": {},\n    \"chaos_clean_ns\": {},\n    \"chaos_faulted_ns\": {},\n    \"chaos_recovery_ns\": {},\n    \"rehomed_pages\": {}\n  }}",
        scale::PAGES_PER_RANK,
        scale::ROUNDS,
        scale::CHAOS_NODES,
        sp.chaos_clean_ns,
        sp.chaos_faulted_ns,
        sp.recovery_ns(),
        sp.rehomed_pages
    )
}

/// Deterministic ANN search observables: a small seeded corpus through one
/// published IVF index on a DRAM+NVMe stack, both search paths. Everything
/// here is virtual-time / conserved-counter, so the section is
/// bit-deterministic across runs.
fn ann_path_json() -> String {
    use megammap_ann::{ground_truth, measure, IvfIndex, IvfModel, IvfParams, ServingCaps};
    use megammap_workloads::vecgen;
    const PAGE: u64 = 1024;
    const TOPK: usize = 10;
    let ds = vecgen::generate(vecgen::VecGenParams {
        n: 2048,
        dim: 64,
        clusters: 16,
        seed: 42,
        ..Default::default()
    });
    let queries = vecgen::queries(&ds, 32, 777, 0.1);
    let gt = ground_truth(&ds, &queries, TOPK);
    let params = IvfParams { nlist: 16, nprobe: 4, ..Default::default() };
    let model = std::sync::Arc::new(IvfModel::train(&ds, params));
    let ratio = model.pq.as_ref().map(|c| c.compression_ratio()).unwrap_or(1.0);
    let cluster = Cluster::new(ClusterSpec::new(1, 1));
    let cfg = RuntimeConfig::default()
        .with_page_size(PAGE)
        .with_tiers(vec![DeviceSpec::dram(256 * 1024), DeviceSpec::nvme(8 << 20)]);
    let rt = Runtime::new(&cluster, cfg);
    let rt2 = rt.clone();
    let ((flat, pq), _) = cluster.run_once(move |p| {
        IvfIndex::publish(&rt2, p, "bench", &model, PAGE).expect("publish");
        let idx = IvfIndex::open(
            &rt2,
            p,
            "bench",
            model.clone(),
            PAGE,
            ServingCaps { postings_pcache: 32 * 1024, codes_pcache: 64 * 1024 },
        )
        .expect("open");
        let flat = measure(&rt2, p, &idx, &queries, &gt, TOPK, false).expect("flat");
        let pq = measure(&rt2, p, &idx, &queries, &gt, TOPK, true).expect("pq");
        (flat, pq)
    });
    format!(
        "  \"ann_path\": {{\n    \"recall_at_10_flat\": {:.4},\n    \"recall_at_10_pq\": {:.4},\n    \"search_p50_ns_flat\": {},\n    \"search_p99_ns_flat\": {},\n    \"search_p50_ns_pq\": {},\n    \"search_p99_ns_pq\": {},\n    \"bytes_faulted_per_query_flat\": {},\n    \"bytes_faulted_per_query_pq\": {},\n    \"pq_compression_ratio\": {ratio:.1}\n  }}",
        flat.recall_at_10,
        pq.recall_at_10,
        flat.p50_ns,
        flat.p99_ns,
        pq.p50_ns,
        pq.p99_ns,
        flat.bytes_per_query,
        pq.bytes_per_query,
    )
}

/// Non-test lines of code per workspace crate, as the `code_size` JSON
/// section (a number a PR may shrink, and must justify growing).
fn code_size_json() -> String {
    let crates = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."));
    let mut names: Vec<String> = std::fs::read_dir(crates)
        .expect("crates/ next to this crate")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .collect();
    names.sort();
    let rows: Vec<String> = names
        .iter()
        .filter_map(|name| {
            let loc = loc::count_crate(&crates.join(name).join("src")).ok()?;
            Some(format!("    \"{name}\": {loc}"))
        })
        .collect();
    format!("  \"code_size\": {{\n{}\n  }}", rows.join(",\n"))
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).is_some_and(|a| a == "--compare") {
        let (Some(old), Some(new)) = (argv.get(2), argv.get(3)) else {
            eprintln!("usage: mm_bench --compare <old.json> <new.json>");
            std::process::exit(2);
        };
        std::process::exit(compare(old, new));
    } else if argv.len() > 1 {
        eprintln!("usage: mm_bench [--compare <old.json> <new.json>]");
        std::process::exit(2);
    }

    let now_unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock")
        .as_secs();
    let (y, m, d) = civil_from_days((now_unix / 86_400) as i64);

    eprintln!("mm_bench: measuring fault path ...");
    let hit_ns = pcache_hit_ns();
    let mut narrow_page = 0u64;
    let fault_ns = fault_from_scache_ns(NARROW_PAGES, || {
        narrow_page = (narrow_page + 1) % NARROW_PAGES;
        narrow_page
    });
    let wide_ns = fault_from_scache_ns(WIDE_PAGES, uniform_below(5, WIDE_PAGES));
    let thrash_ns = sketch_record_thrash_ns();
    eprintln!("mm_bench: measuring a stage-out pass ...");
    let pass_ns = stage_out_pass_ns();
    eprintln!("mm_bench: measuring telemetry overhead ...");
    let overhead_pct = telemetry_overhead_pct();
    eprintln!("mm_bench: measuring fault-latency percentiles ...");
    let (p50, p99, p999, faults) = fault_latency_percentiles();
    eprintln!("mm_bench: measuring shard-path observables ...");
    let (queue_p99, hit_rate, hits, misses, crossings) = shard_path_metrics();
    eprintln!("mm_bench: measuring ann search paths ...");
    let ann_json = ann_path_json();
    let scale_json = scale_path_json();
    let code_json = code_size_json();

    let json = format!(
        "{{\n  \"schema\": \"mm-bench/v4\",\n  \"generated_unix\": {now_unix},\n  \"date\": \"{y:04}-{m:02}-{d:02}\",\n  \"fault_path\": {{\n    \"pcache_hit_ns_per_iter\": {hit_ns:.1},\n    \"fault_from_scache_ns_per_iter\": {fault_ns:.1},\n    \"fault_from_scache_wide_ns_per_iter\": {wide_ns:.1}\n  }},\n  \"telemetry\": {{\n    \"overhead_pct\": {overhead_pct:.2},\n    \"budget_pct\": 2.0,\n    \"sketch_record_thrash_ns\": {thrash_ns:.1}\n  }},\n  \"stager\": {{\n    \"stage_out_pass_ns\": {pass_ns:.0}\n  }},\n  \"fault_latency\": {{\n    \"tenant\": \"bench\",\n    \"faults\": {faults},\n    \"p50_ns\": {p50},\n    \"p99_ns\": {p99},\n    \"p999_ns\": {p999}\n  }},\n  \"shard_path\": {{\n    \"shard_queue_delay_p99_ns\": {queue_p99},\n    \"owner_fast_hit_rate\": {hit_rate:.4},\n    \"owner_fast_hits\": {hits},\n    \"owner_fast_misses\": {misses},\n    \"batched_crossings\": {crossings}\n  }},\n{ann_json},\n{scale_json},\n{code_json}\n}}\n"
    );

    let path = std::env::var("MM_BENCH_OUT")
        .unwrap_or_else(|_| format!("BENCH_{y:04}-{m:02}-{d:02}.json"));
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("wrote {path}");
    println!("  pcache hit        {hit_ns:.1} ns/iter");
    println!("  fault from scache {fault_ns:.1} ns/iter ({NARROW_PAGES} pages)");
    println!("  fault from scache {wide_ns:.1} ns/iter ({WIDE_PAGES} pages, random order)");
    println!("  sketch record     {thrash_ns:.1} ns (thrashing, {WIDE_PAGES} keys)");
    println!("  stage-out pass    {pass_ns:.0} ns (256 pages x 8 dirty bytes, file://)");
    println!("  telemetry overhead {overhead_pct:+.2}% (budget 2%)");
    println!("  fault latency p50 {p50} p99 {p99} p999 {p999} ns over {faults} faults");
    println!(
        "  shard path: queue-delay p99 {queue_p99} ns, owner hit rate {:.1}% ({hits}/{total}), {crossings} batched crossings",
        hit_rate * 100.0,
        total = hits + misses
    );
    println!("  ann path: see the ann_path section of {path}");
    println!("  scale path: see the scale_path section of {path}");
    println!("  code size: see the code_size section of {path}");
}
