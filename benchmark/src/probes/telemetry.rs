//! `telemetry`: what one counter increment and one recorded event span
//! cost the instrumented paths.

use megammap_telemetry::{EventKind, Telemetry};

use super::ns_per_op;

pub fn probe() -> Vec<(&'static str, f64)> {
    let tel = Telemetry::new();
    let counter = tel.counter("probe", "ops", &[]);
    let counter_inc_ns = ns_per_op(|| counter.inc());
    let mut t = 0u64;
    let span_ns = ns_per_op(|| {
        t += 10;
        tel.span(EventKind::PageFault, t, t + 5, 0, 16 << 10, t);
    });
    vec![("telemetry.counter_inc_ns", counter_inc_ns), ("telemetry.span_ns", span_ns)]
}
