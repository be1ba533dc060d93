//! mm_scope — cluster-scale contention & hot-spot observatory.
//!
//! Runs a deterministic 64-node workload with a *seeded hot spot* (every
//! rank hammers page 7 of one shared vector) and prints the observability
//! report the telemetry profiler assembles:
//!
//!   1. top-K hot pages from the heavy-hitter sketch,
//!   2. the lock contention profile (modeled virtual-time waits per
//!      lock-rank name, including the DMSH meta/store share, plus any
//!      observed `DLock`s),
//!   3. per-node touch imbalance (Gini, permille),
//!   4. collective fan-out depth and per-hop wait attribution.
//!
//! The run is barrier-serialized (rank k works while everyone else waits),
//! so lock acquisition *order* — not just each rank's virtual timeline —
//! is identical on every run, making every number below deterministic: CI
//! runs the binary twice and byte-diffs the stdout. Only modeled
//! (virtual-time) counters are printed; the wall-clock `lock.contended`
//! diagnostics are deliberately excluded.
//!
//! Exits non-zero if the seeded hot page is not the sketch's top entry —
//! the end-to-end "would the observatory have caught it" check.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use megammap::prelude::*;
use megammap_bench::save_text;
use megammap_cluster::comm::ReduceOp;
use megammap_cluster::{Cluster, ClusterSpec, DLock};
use megammap_sim::{DeviceSpec, GIB, MIB};
use megammap_telemetry::gini_permille;

/// Nodes in the observed cluster (1 proc per node).
const NODES: usize = 64;
/// Page size of the shared vector.
const PAGE: u64 = 4096;
/// Pages in the shared vector. Kept at the sketch capacity (512) so every
/// page has an exact counter — `err` must print as 0 throughout.
const PAGES: u64 = 512;
/// The seeded hot spot: every rank hammers this page.
const HOT_PAGE: u64 = 7;
/// Rounds of the hammer loop.
const ROUNDS: u64 = 2;
/// Hot-page faults per rank per round.
const HAMMERS: u64 = 8;

const ELEMS_PER_PAGE: u64 = PAGE / 8;

fn main() {
    // `--emit-lock-edges PATH`: additionally record every lock-nesting
    // edge the `lockorder` tokens observe and write them as
    // `mm-lock-edges/v1` JSON. CI feeds the file to `mm-lint crosscheck`,
    // which asserts the static lock graph contains every observed edge
    // (static ⊇ dynamic). The stdout report is unchanged, so the
    // double-run byte-diff gate is unaffected.
    let mut edges_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--emit-lock-edges" => match args.next() {
                Some(p) => edges_path = Some(p),
                None => {
                    eprintln!("mm_scope: --emit-lock-edges needs a file path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("mm_scope: unknown argument `{other}` (usage: mm_scope [--emit-lock-edges PATH])");
                std::process::exit(2);
            }
        }
    }
    if edges_path.is_some() {
        megammap_telemetry::clear_observed_lock_edges();
        megammap_telemetry::observe_lock_edges(true);
    }

    let cluster = Cluster::new(ClusterSpec::new(NODES, 1).dram_per_node(GIB));
    let cfg = RuntimeConfig::default()
        .with_page_size(PAGE)
        .with_tiers(vec![DeviceSpec::dram(4 * MIB), DeviceSpec::nvme(256 * MIB)]);
    let rt = Runtime::new(&cluster, cfg);
    let rt2 = rt.clone();
    // A named distributed lock every rank grabs once per round: exercises
    // the DLock contention hook alongside the runtime-internal locks.
    let leader = DLock::with_rpc_ns(2_000).observed(cluster.telemetry(), "scope_leader");

    let (ids, rep) = cluster.run(move |p| {
        let v = MmVec::<u64>::open(
            &rt2,
            p,
            "mem://scope/hot",
            VecOptions::new().len(PAGES * ELEMS_PER_PAGE).pcache(2 * PAGE).no_prefetch(),
        )
        .expect("open shared vector");
        let me = p.rank();
        let world = p.world().clone();

        // Rank 0 seeds every page under WriteGlobal: HRW spreads the 512
        // homes across all 64 nodes, so the *workload* (not placement)
        // creates the hot spot.
        if me == 0 {
            let tx = v.tx(p, TxKind::seq(0, v.len()), Access::WriteGlobal).expect("seed tx");
            for pg in 0..PAGES {
                v.store(p, tx.handle(), pg * ELEMS_PER_PAGE, pg);
            }
            tx.end().expect("seed commit");
        }
        world.barrier(p);

        let mut acc = me as u64;
        for round in 0..ROUNDS {
            for k in 0..world.size() {
                if k == me {
                    let g = leader.lock(p);
                    let tx = v
                        .tx(p, TxKind::rand(round, 0, v.len()), Access::ReadWriteGlobal)
                        .expect("hammer tx");
                    for j in 0..HAMMERS {
                        let x = (me as u64 * ROUNDS + round) * HAMMERS + j;
                        // Two per-(rank,round,j) filler pages evict the hot
                        // page from the 2-page pcache, so every hot load is
                        // a genuine remote fault, not a pcache hit.
                        let f1 = 8 + (2 * x) % (PAGES - 8);
                        let f2 = 8 + (2 * x + 1) % (PAGES - 8);
                        acc = acc.wrapping_add(v.load(p, tx.handle(), HOT_PAGE * ELEMS_PER_PAGE));
                        v.store(
                            p,
                            tx.handle(),
                            HOT_PAGE * ELEMS_PER_PAGE + 1 + (x % (ELEMS_PER_PAGE - 1)),
                            acc,
                        );
                        acc = acc.wrapping_add(v.load(p, tx.handle(), f1 * ELEMS_PER_PAGE));
                        acc = acc.wrapping_add(v.load(p, tx.handle(), f2 * ELEMS_PER_PAGE));
                    }
                    tx.end().expect("hammer commit");
                    drop(g);
                }
                world.barrier(p);
            }
            let tot = world.allreduce_u64(p, &[acc & 0xff], ReduceOp::Sum);
            acc = acc.wrapping_add(tot[0]);
        }
        std::hint::black_box(acc);
        v.meta().id
    });
    let hot_bucket = ids[0];

    let tel = cluster.telemetry();
    let snap = tel.snapshot();
    let mut out = String::new();

    writeln!(
        out,
        "mm-scope/v1 nodes={NODES} pages={PAGES} hot_page={HOT_PAGE} rounds={ROUNDS} \
         hammers={HAMMERS} makespan_ns={}",
        rep.makespan_ns
    )
    .unwrap();

    // -- 1. heavy hitters ------------------------------------------------
    let top = tel.hot_pages().top(10);
    writeln!(out, "\n== hot pages (top {}) ==", top.len()).unwrap();
    writeln!(out, "{:<8} {:>6} {:>8} {:>5}", "bucket", "page", "count", "err").unwrap();
    for h in &top {
        writeln!(out, "{:<8} {:>6} {:>8} {:>5}", h.bucket, h.page, h.count, h.err).unwrap();
    }

    // -- 2. lock contention profile --------------------------------------
    // Aggregate `lock.*{lock=<rank name>}` across nodes/shards; modeled
    // virtual-time waits only. Observed DLocks ride along as `dlock:<name>`.
    let mut acq: BTreeMap<String, u64> = BTreeMap::new();
    let mut wait: BTreeMap<String, u64> = BTreeMap::new();
    for (k, v) in &snap.counters {
        let prefix = match k.subsystem {
            "lock" => "",
            "dlock" => "dlock:",
            _ => continue,
        };
        let Some(lock) = k.labels.iter().find(|(n, _)| *n == "lock").map(|(_, v)| v) else {
            continue;
        };
        let name = format!("{prefix}{lock}");
        match k.name {
            "acquisitions" => *acq.entry(name).or_default() += v,
            "wait_model_ns" => *wait.entry(name).or_default() += v,
            _ => {}
        }
    }
    let mut rows: Vec<(String, u64, u64)> = acq
        .iter()
        .map(|(name, &a)| (name.clone(), a, wait.get(name).copied().unwrap_or(0)))
        .collect();
    rows.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
    let total_wait: u64 = rows.iter().map(|r| r.2).sum();
    writeln!(out, "\n== lock contention (modeled virtual-time waits) ==").unwrap();
    writeln!(out, "{:<22} {:>10} {:>14} {:>7}", "lock", "acq", "wait_ns", "share").unwrap();
    for (name, a, w) in &rows {
        let share = (w * 1000).checked_div(total_wait).unwrap_or(0);
        writeln!(out, "{name:<22} {a:>10} {w:>14} {:>4}.{}%", share / 10, share % 10).unwrap();
    }

    // -- 3. per-node imbalance -------------------------------------------
    let touches: Vec<u64> = (0..NODES)
        .map(|n| snap.counter("scope", "node_touches", &[("node", &n.to_string())]).unwrap_or(0))
        .collect();
    let total: u64 = touches.iter().sum();
    let max = touches.iter().copied().max().unwrap_or(0);
    let gini = gini_permille(&touches);
    writeln!(out, "\n== per-node touch imbalance ==").unwrap();
    writeln!(
        out,
        "touches total={total} mean={} max={max} gini_permille={gini}",
        total / NODES as u64
    )
    .unwrap();

    // -- 4. collective fan-out -------------------------------------------
    writeln!(out, "\n== collective fan-out ==").unwrap();
    let mut fanout: Vec<(String, u64)> = snap
        .gauges
        .iter()
        .filter(|(k, _)| k.subsystem == "comm" && k.name == "fanout_depth")
        .map(|(k, v)| (k.labels.iter().map(|(_, s)| s.clone()).collect::<String>(), *v))
        .collect();
    fanout.sort();
    for (shape, depth) in &fanout {
        let hop = snap.counter("comm", "hop_wait_ns", &[("shape", shape)]).unwrap_or(0);
        writeln!(out, "shape={shape} fanout_depth={depth} hop_wait_ns={hop}").unwrap();
    }

    // -- verdict ----------------------------------------------------------
    let caught = top.first().is_some_and(|h| h.bucket == hot_bucket && h.page == HOT_PAGE);
    writeln!(
        out,
        "\nverdict: seeded hot spot (bucket={hot_bucket}, page={HOT_PAGE}) {}",
        if caught { "DETECTED as top heavy hitter" } else { "MISSED" }
    )
    .unwrap();

    print!("{out}");
    save_text("mm_scope.txt", &out);
    if let Some(path) = &edges_path {
        megammap_telemetry::observe_lock_edges(false);
        let doc = megammap_telemetry::lock_edges_json();
        if let Err(e) = std::fs::write(path, &doc) {
            eprintln!("mm_scope: write {path}: {e}");
            std::process::exit(2);
        }
        let n = megammap_telemetry::observed_lock_edges().len();
        eprintln!("mm_scope: {n} observed lock edge(s) -> {path}");
    }
    if !caught {
        std::process::exit(1);
    }
}
