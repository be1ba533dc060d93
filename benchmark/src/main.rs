//! The repo's benchmark: one workload per process.
//!
//! `mm-benchmark --workload W --seed N --seconds S --trace 0|1`
//!
//! With `--trace 0` it sets the workload up [`SETUPS`] times (inputs from
//! the seed, backend objects, reference result, one untimed warm-up
//! repetition), runs timed repetitions for about `S` seconds, checks every
//! output and prints the end-to-end metrics. With `--trace 1` it runs
//! traced, plain and telemetry-off repetitions plus the layer probes and
//! prints the per-layer metrics. The last line of standard output is the
//! result object the driver reads; see `README.md`.

mod host;
mod metrics;
mod probes;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use spans::Trace;
use workloads::{Layers, Rep, RepOpts, RepOut, Workload};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Traced,
    Plain,
    TelemetryOff,
}
/// The repetitions of a traced run: interleaved, so that drift of the host
/// hits all three kinds alike.
const SCHEDULE: [Kind; 7] = [
    Kind::Traced,
    Kind::Plain,
    Kind::TelemetryOff,
    Kind::Traced,
    Kind::Plain,
    Kind::TelemetryOff,
    Kind::Traced,
];
/// Spans written in full to the trace file (totals cover all of them).
const TRACE_FILE_SPANS: usize = 50_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args { workload: String::new(), seed: 1, seconds: 10, trace: false };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => a.trace = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !workloads::NAMES.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {:?}", workloads::NAMES));
    }
    if !(1..=60).contains(&a.seconds) {
        return Err("--seconds must be 1..=60".into());
    }
    Ok(a)
}

/// Where the benchmark writes (trace files, the `file://` vector): inside
/// the checkout, next to the benchmark's sources.
pub fn out_dir() -> PathBuf {
    let base = if std::path::Path::new("benchmark").is_dir() { "benchmark/out" } else { "out" };
    PathBuf::from(base)
}

/// Wall seconds of one repetition on the reference box (1.4–1.6 s
/// measured); fixes the repetition count for a given `--seconds`, so that
/// two runs of one seed execute exactly the same operations.
const NOMINAL_REP_S: f64 = 1.4;

fn opts(rep_no: u32, telemetry: bool, traced: bool, epoch: Instant) -> RepOpts {
    RepOpts { rep_no, telemetry, traced, epoch }
}

fn print_metric(name: &str, unit: &str, value: f64, note: &str) {
    println!("{name:<34} = {value:>18.6} {unit:<6} {note}");
}

fn sample_note(values: &[f64]) -> String {
    let s = stats::summary(values);
    format!(
        "(n={} min={:.6} q1={:.6} median={:.6} q3={:.6} max={:.6})",
        s.n, s.min, s.q1, s.median, s.q3, s.max
    )
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Repetitions on equal inputs must produce equal output bits.
    fingerprints: Vec<u64>,
}

impl Tally {
    fn warm_up(&mut self, rep: &Rep) {
        self.attempted += rep.attempted;
        self.failed += rep.failed;
    }

    fn add(&mut self, rep: &Rep) {
        self.warm_up(rep);
        self.fingerprints.push(rep.fingerprint);
    }

    /// The workload's final-state checks and the bit-equality of its
    /// repetitions.
    fn finish(&mut self, name: &str, w: &mut dyn Workload) {
        let (attempted, failed) = w.finish();
        self.attempted += attempted;
        self.failed += failed;
        if w.reps_repeat() && self.fingerprints.windows(2).any(|p| p[0] != p[1]) {
            eprintln!("{name}: repetitions on equal inputs gave different output bits");
            self.failed += 1;
        }
    }
}

fn end_to_end(args: &Args) -> (BTreeMap<&'static str, f64>, Tally) {
    let epoch = Instant::now();
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut w: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUPS {
        // Free the previous set-up first: peak memory is a metric.
        drop(w.take());
        let t = Instant::now();
        let mut built = workloads::build(&args.workload, args.seed).expect("known workload");
        let warm = built.rep(&opts(0, true, false, epoch));
        setup_s.push(t.elapsed().as_secs_f64());
        tally.warm_up(&warm.rep);
        w = Some(built);
    }
    let mut w = w.expect("at least one set-up");

    let reps = ((args.seconds as f64 / NOMINAL_REP_S).round() as u32).max(3);
    let mut out: Vec<Rep> = Vec::new();
    for r in 1..=reps {
        let o = w.rep(&opts(r, true, false, epoch));
        tally.add(&o.rep);
        out.push(o.rep);
    }
    tally.finish(&args.workload, w.as_mut());

    let col = |f: fn(&Rep) -> f64| -> Vec<f64> { out.iter().map(f).collect() };
    let wall = col(|r| r.wall_s);
    let virt = col(|r| r.virt_ns as f64 / 1e9);
    let moved = col(|r| r.moved_bytes as f64 / r.user_bytes as f64);
    let peak = col(|r| r.model_peak_bytes as f64 / (1024.0 * 1024.0));
    let mut m = BTreeMap::new();
    m.insert("setup_s", stats::median(&setup_s));
    m.insert("wall_s", stats::median(&wall));
    m.insert("virt_s", stats::median(&virt));
    m.insert("peak_rss_mib", host::peak_rss_mib());
    m.insert("model_peak_mib", peak.iter().copied().fold(0.0, f64::max));
    m.insert("moved_per_user_byte", stats::median(&moved));
    let notes: BTreeMap<&str, String> = [
        ("setup_s", sample_note(&setup_s)),
        ("wall_s", sample_note(&wall)),
        ("virt_s", sample_note(&virt)),
        ("model_peak_mib", "(max over repetitions)".to_string()),
        ("moved_per_user_byte", sample_note(&moved)),
    ]
    .into();
    for (name, unit) in metrics::END_TO_END {
        print_metric(name, unit, m[name], notes.get(name).map_or("", String::as_str));
    }
    (m, tally)
}

/// Median over repetitions of every key any repetition reported.
fn median_layers(reps: &[Layers]) -> Layers {
    let mut out = Layers::new();
    for key in reps.iter().flat_map(|l| l.keys()) {
        let vals: Vec<f64> = reps.iter().filter_map(|l| l.get(key).copied()).collect();
        out.insert(key, stats::median(&vals));
    }
    out
}

fn durations(trace: &Trace, name: &str) -> Vec<f64> {
    trace.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64).collect()
}

/// Σ count × probe unit cost ÷ wall: how much of a repetition the layer
/// probes account for. Reported, not gated; the formula is in the README.
fn explained_wall_frac(l: &Layers, wall_s: f64) -> f64 {
    let g = |k: &str| l.get(k).copied().unwrap_or(0.0);
    let served = g("runtime.faults") + g("prefetch.issued");
    let ns = g("pcache.hits") * g("pcache.access_hit_ns")
        + served
            * (g("pcache.insert_evict_ns")
                + g("directory.owner_read_ns")
                + g("dmsh.get_ns")
                + g("sim.device_io_ns"))
        + g("runtime.writes") * (g("directory.claim_ns") + g("dmsh.put_ns"))
        + g("comm.collectives") * g("comm.barrier_wall_us") * 1e3
        + g("runtime.remote_reads") * g("sim.net_transfer_ns");
    let backend_s =
        g("stager.backend_bytes") / (1024.0 * 1024.0) / g("formats.obj_read_mib_per_s").max(1.0);
    (ns / 1e9 + backend_s) / wall_s
}

fn traced(args: &Args) -> (BTreeMap<&'static str, f64>, Tally) {
    let epoch = Instant::now();
    let mut tally = Tally::default();
    let mut w = workloads::build(&args.workload, args.seed).expect("known workload");
    let warm = w.rep(&opts(0, true, false, epoch));
    tally.warm_up(&warm.rep);

    let cpu0 = host::cpu_s();
    let (mut traced_out, mut plain_wall, mut off_wall): (Vec<RepOut>, Vec<f64>, Vec<f64>) =
        (Vec::new(), Vec::new(), Vec::new());
    for (i, kind) in SCHEDULE.iter().enumerate() {
        let o =
            w.rep(&opts(1 + i as u32, *kind != Kind::TelemetryOff, *kind == Kind::Traced, epoch));
        tally.add(&o.rep);
        match kind {
            Kind::Traced => traced_out.push(o),
            Kind::Plain => plain_wall.push(o.rep.wall_s),
            Kind::TelemetryOff => off_wall.push(o.rep.wall_s),
        }
    }
    let cpu_per_rep = (host::cpu_s() - cpu0) / SCHEDULE.len() as f64;
    tally.finish(&args.workload, w.as_mut());
    drop(w);

    let mut l = median_layers(&traced_out.iter().map(|o| o.layers.clone()).collect::<Vec<_>>());
    let traced_wall: Vec<f64> = traced_out.iter().map(|o| o.rep.wall_s).collect();
    let mut trace = Trace::default();
    let mut fault_virt: Vec<f64> = Vec::new();
    for o in traced_out {
        trace.append(o.trace);
        fault_virt.extend(o.fault_virt_ns.iter().map(|&v| v as f64));
    }

    let loads = durations(&trace, "load");
    let stores = durations(&trace, "store");
    if !loads.is_empty() {
        l.insert("vector.load_wall_ns_p50", stats::median(&loads));
        l.insert("vector.load_wall_ns_p99", stats::percentile(&loads, 0.99));
    }
    if !stores.is_empty() {
        l.insert("vector.store_wall_ns_p50", stats::median(&stores));
    }
    let totals = trace.totals_by_name();
    let total = |name: &str| totals.get(name).copied().unwrap_or_default();
    let txs = total("tx_begin").count;
    if txs > 0 {
        l.insert(
            "vector.tx_wall_ns",
            (total("tx_begin").total_ns + total("tx_end").total_ns) as f64 / txs as f64,
        );
    }
    let flushes = durations(&trace, "flush_wait");
    if !flushes.is_empty() {
        l.insert("vector.flush_wall_ms", stats::median(&flushes) / 1e6);
    }
    if !fault_virt.is_empty() {
        l.insert("runtime.fault_virt_ns_p50", stats::median(&fault_virt));
        l.insert("runtime.fault_virt_ns_p99", stats::percentile(&fault_virt, 0.99));
    }
    let per_rep_ms = |names: &[&str]| {
        names.iter().map(|n| total(n).self_ns).sum::<u64>() as f64 / 1e6 / traced_wall.len() as f64
    };
    let recorded = |names: &[&str]| names.iter().any(|n| total(n).count > 0);
    for (metric, names) in [
        ("span.construct_self_ms", &["construct"][..]),
        ("span.rep_self_ms", &["rep"]),
        ("span.run_self_ms", &["run"]),
        ("span.shutdown_self_ms", &["shutdown"]),
        ("span.open_self_ms", &["open"]),
        ("span.tx_self_ms", &["tx_begin", "tx_end"]),
        ("span.load_self_ms", &["load"]),
        ("span.store_self_ms", &["store"]),
        ("span.read_into_self_ms", &["read_into"]),
        ("span.write_slice_self_ms", &["write_slice"]),
        ("span.barrier_self_ms", &["barrier"]),
        ("span.flush_wait_self_ms", &["flush_wait"]),
    ] {
        if recorded(names) {
            l.insert(metric, per_rep_ms(names));
        }
    }
    let worst = trace
        .reconcile()
        .into_iter()
        .filter(|(name, _)| *name == "rep")
        .map(|(_, share)| share)
        .fold(f64::INFINITY, f64::min);
    l.insert("span.self_sum_over_wall", worst);

    for (name, v) in probes::run_all() {
        l.insert(name, v);
    }

    let plain = stats::median(&plain_wall);
    l.insert("host.cpu_s", cpu_per_rep);
    l.insert("bench.traced_wall_s", stats::median(&traced_wall));
    l.insert("bench.trace_overhead_pct", (stats::median(&traced_wall) / plain - 1.0) * 100.0);
    l.insert("telemetry.tax_pct", (plain / stats::median(&off_wall) - 1.0) * 100.0);
    let frac = explained_wall_frac(&l, plain);
    l.insert("layers.explained_wall_frac", frac);

    let dir = out_dir();
    let path = dir.join(format!("trace_{}.json", args.workload));
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(&path, trace.to_json(&args.workload, args.seed, TRACE_FILE_SPANS))
    });
    match written {
        Ok(()) => println!("trace: {} spans, written to {}", trace.spans.len(), path.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            tally.failed += 1;
        }
    }

    println!("self time per span name (all traced repetitions):");
    for (name, t) in &totals {
        println!(
            "  {name:<14} count={:<9} total={:>12.3} ms  self={:>12.3} ms",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    // A metric the workload has no way to measure (a span its driver never
    // opens, a latency only bench-owned drivers can take) is not a zero.
    for (name, unit) in metrics::PER_LAYER {
        match l.get(name) {
            Some(v) => print_metric(name, unit, *v, ""),
            None => {
                println!("{name:<34} = {:>18} {unit:<6} (not measured on this workload)", "n/a")
            }
        }
    }
    (l, tally)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mm-benchmark: {e}");
            eprintln!("usage: mm-benchmark --workload W [--seed N] [--seconds S] [--trace 0|1 | --traced]");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "== {} seed={} seconds={} trace={} cores={cores} ==",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (values, tally) = if args.trace { traced(&args) } else { end_to_end(&args) };
    let table = if args.trace { metrics::PER_LAYER } else { metrics::END_TO_END };
    let correct = tally.failed == 0;
    println!("operations: attempted={} failed={}", tally.attempted, tally.failed);
    println!("{}", metrics::result_line(table, &values, tally.attempted, tally.failed, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a =
            args(&["--workload", "rand_read", "--seed", "7", "--seconds", "10", "--trace", "1"])
                .unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("rand_read", 7, 10, true));
        let a = args(&["--workload", "gs_tiered", "--traced"]).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (1, 10, true));
    }

    #[test]
    fn refuses_what_it_does_not_understand() {
        assert!(args(&[]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "rand_read", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "rand_read", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "rand_read", "--seed"]).is_err());
        assert!(args(&["--workload", "rand_read", "--fast"]).is_err());
    }
}
