//! What every workload shares: the run context, the per-pass record, and
//! the reduction of passes into end-to-end and per-layer metrics.
//!
//! A run repeats the workload's measured cycle (a *pass*) until the time
//! budget is spent, at least [`MIN_PASSES`] times, and reports medians over
//! passes. A traced run alternates untraced and traced passes: the traced
//! ones give the per-layer split, and their wall time against the untraced
//! ones gives the tracing overhead.

use crate::report::{median, tail, Outcome};
use crate::trace::Tracer;
use p2pclassify::LinkStats;
use p2psim::SimStats;

/// Passes run even when the time budget is already spent; two passes let a
/// run check that the deterministic counters repeat.
pub const MIN_PASSES: usize = 2;

/// How often set-up is repeated to report its median.
pub const SETUP_REPEATS: usize = 5;

/// Ingest phases that take well under a second are repeated this many
/// times per pass and timed as one interval, which keeps them steady.
pub const INGEST_REPEATS: usize = 4;

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Self-test size: every workload shrinks to a few seconds.
    pub tiny: bool,
    pub tracer: Tracer,
    /// Peak resident memory (MiB) through set-up and the first pass; later
    /// passes repeat the same work.
    pub peak_rss_mib: f64,
}

impl Ctx {
    /// Runs `pass` until the budget is spent (and at least [`MIN_PASSES`]
    /// times). Traced runs enable spans on every second pass.
    pub fn passes(&mut self, mut pass: impl FnMut(&mut Tracer) -> Pass) -> Vec<Pass> {
        let start = self.tracer.now();
        let mut out = Vec::new();
        while out.len() < MIN_PASSES || self.tracer.now() - start < self.seconds {
            let traced = self.trace && out.len() % 2 == 1;
            self.tracer.set_enabled(traced);
            let first_span = self.tracer.spans().len();
            let (mut p, wall) = self.tracer.time("pass", &mut pass);
            p.wall = wall;
            p.traced = traced;
            if traced {
                p.unattributed = unattributed(&self.tracer, first_span);
            }
            if out.is_empty() {
                self.peak_rss_mib = crate::report::peak_rss_mib();
            }
            out.push(p);
        }
        self.tracer.set_enabled(false);
        out
    }

    /// Repeats `setup` [`SETUP_REPEATS`] times; returns the last result and
    /// the median set-up seconds.
    pub fn setup<T>(&mut self, mut setup: impl FnMut() -> T) -> (T, f64) {
        let mut secs = Vec::new();
        let mut last = None;
        for _ in 0..SETUP_REPEATS {
            let (v, s) = self.tracer.time("setup", |_| setup());
            secs.push(s);
            last = Some(v);
        }
        (last.expect("at least one set-up"), median(&secs))
    }
}

/// Share of the pass span (the first span recorded from `first`) that none
/// of its direct children covers.
fn unattributed(tracer: &Tracer, first: usize) -> f64 {
    let spans = tracer.spans();
    let Some(pass) = spans.get(first) else {
        return 0.0;
    };
    let wall = pass.end - pass.start;
    let covered: f64 = spans[first + 1..]
        .iter()
        .filter(|s| s.parent == Some(first))
        .map(|s| s.end - s.start)
        .sum();
    if wall > 0.0 {
        (wall - covered).max(0.0) / wall
    } else {
        0.0
    }
}

/// One pass of a workload's measured cycle.
#[derive(Default, Clone)]
pub struct Pass {
    pub wall: f64,
    pub traced: bool,
    pub unattributed: f64,
    /// Epochs (session), rounds (fleet) or 1 (batch) in this pass.
    pub epochs: usize,
    pub ingest_docs: usize,
    pub ingest_s: f64,
    pub train_docs: usize,
    pub learn_s: f64,
    pub refine_s: f64,
    pub autotag_docs: usize,
    pub autotag_s: f64,
    /// Time not covered by ingest/learn/refine/auto-tag inside the facade.
    pub other_s: f64,
    /// Auto-tag latency samples: one per request, or one per batch where
    /// the request is a batch (`auto_tag_all`, a session epoch).
    pub latency_ms: Vec<f64>,
    /// Mean time per round (or epoch) for new training data to reach the
    /// shared models.
    pub converge_s: f64,
    pub peers: usize,
    pub bytes: u64,
    /// Frames put on the wire (fleet only).
    pub frames: u64,
    pub macro_f1: f64,
    pub requested: u64,
    pub served: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Deterministic counters of the pass, compared across passes.
    pub fingerprint: String,
    pub sim: Option<SimStats>,
    pub link: LinkStats,
}

/// Fills the end-to-end metrics (untraced runs) or the per-layer phase
/// metrics (traced runs) from the passes, and adds the shared checks.
pub fn summarize(ctx: &Ctx, passes: &[Pass], setup_s: f64, out: &mut Outcome) {
    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let over = |ps: &[&Pass], f: &dyn Fn(&Pass) -> f64| -> f64 {
        median(&ps.iter().map(|p| f(p)).collect::<Vec<_>>())
    };
    let per_pass = |f: &dyn Fn(&Pass) -> f64| over(&untraced, f);
    let rate = |n: usize, s: f64| if s > 0.0 { n as f64 / s } else { 0.0 };
    let latencies: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.latency_ms.iter().copied())
        .collect();
    // The tail is taken per pass and reported as the median over passes, so
    // one pass hit by a burst of host contention does not set it.
    let tails: Vec<(f64, f64)> = untraced.iter().map(|p| tail(&p.latency_ms)).collect();
    let p_tail = median(&tails.iter().map(|t| t.0).collect::<Vec<_>>());
    let tail_pct = median(&tails.iter().map(|t| t.1).collect::<Vec<_>>());

    out.set("setup_s", setup_s);
    out.set(
        "ingest_docs_per_s",
        per_pass(&|p| rate(p.ingest_docs, p.ingest_s)),
    );
    out.set(
        "train_docs_per_s",
        per_pass(&|p| rate(p.train_docs, p.learn_s)),
    );
    out.set(
        "autotag_docs_per_s",
        per_pass(&|p| rate(p.autotag_docs, p.autotag_s)),
    );
    out.set("autotag_p50_ms", median(&latencies));
    out.set("autotag_p99_ms", p_tail);
    out.set("epoch_s", per_pass(&|p| p.wall / p.epochs.max(1) as f64));
    out.set("converge_s", per_pass(&|p| p.converge_s));
    out.set(
        "bytes_per_peer",
        per_pass(&|p| p.bytes as f64 / p.peers.max(1) as f64),
    );
    out.set("macro_f1", per_pass(&|p| p.macro_f1));
    let requested: u64 = passes.iter().map(|p| p.requested).sum();
    let served: u64 = passes.iter().map(|p| p.served).sum();
    out.set("served_frac", served as f64 / requested.max(1) as f64);

    out.meta("passes", passes.len());
    let walls: Vec<String> = passes.iter().map(|p| format!("{:.3}", p.wall)).collect();
    out.meta("pass_wall_s", walls.join(","));
    out.meta("traced_passes", passes.iter().filter(|p| p.traced).count());
    out.meta("latency_samples", latencies.len());
    out.meta(
        "latency_samples_per_pass",
        per_pass(&|p| p.latency_ms.len() as f64),
    );
    out.meta("autotag_p99_ms_percentile", format!("{tail_pct:.2}"));
    out.attempted = passes.iter().map(|p| p.attempted).sum();
    out.failed = passes.iter().map(|p| p.failed).sum();

    let first = &passes[0].fingerprint;
    let same = passes.iter().all(|p| &p.fingerprint == first);
    out.check(
        "deterministic counters repeat across passes",
        same,
        passes
            .iter()
            .map(|p| p.fingerprint.clone())
            .collect::<Vec<_>>()
            .join(" | "),
    );

    if ctx.trace {
        let traced = |f: &dyn Fn(&Pass) -> f64| over(&traced, f);
        out.set("doctagger.ingest_s", traced(&|p| p.ingest_s));
        out.set("doctagger.learn_s", traced(&|p| p.learn_s));
        out.set("doctagger.refine_s", traced(&|p| p.refine_s));
        out.set("doctagger.autotag_s", traced(&|p| p.autotag_s));
        out.set("doctagger.other_s", traced(&|p| p.other_s));
        out.set("trace.unattributed_frac", traced(&|p| p.unattributed));
        let untraced_wall = per_pass(&|p| p.wall);
        out.set(
            "trace.overhead_frac",
            (traced(&|p| p.wall) - untraced_wall) / untraced_wall,
        );
        for def in crate::report::PER_LAYER {
            if def.name.starts_with("peerd.") {
                out.set(def.name, 0.0);
            }
        }
        let last = passes.last().expect("at least one pass");
        set_sim_counters(out, last.sim.as_ref());
        set_link_counters(out, &last.link);
    }
}

/// `p2psim.*` counters of a pass (zero when the workload has no simulator).
fn set_sim_counters(out: &mut Outcome, stats: Option<&SimStats>) {
    for def in crate::report::PER_LAYER {
        if def.name.starts_with("p2psim.") {
            out.set(def.name, 0.0);
        }
    }
    let Some(stats) = stats else {
        return;
    };
    let mut uncatalogued = Vec::new();
    for (kind, k) in stats.by_kind() {
        let bytes = format!("p2psim.bytes.{}", kind.name());
        if !out.metrics.contains_key(&bytes) {
            uncatalogued.push(kind.name());
        }
        out.set(&bytes, k.bytes_sent() as f64);
        out.set(
            &format!("p2psim.messages.{}", kind.name()),
            k.messages as f64,
        );
    }
    out.check(
        "every message kind with traffic is in the metric catalog",
        uncatalogued.is_empty(),
        uncatalogued.join(", "),
    );
    out.set(
        "p2psim.hotspot_bytes",
        stats.max_bytes_received_by_any_peer() as f64,
    );
    out.set("p2psim.dropped", stats.total_dropped() as f64);
    out.set("p2psim.faults.lost", stats.faults.lost as f64);
    out.set("p2psim.faults.corrupted", stats.faults.corrupted as f64);
    out.set("p2psim.faults.crashes", stats.faults.crashes as f64);
    out.set("p2psim.lookup_hops_mean", stats.mean_lookup_hops());
}

/// `reliable.*` counters.
fn set_link_counters(out: &mut Outcome, link: &LinkStats) {
    out.set("reliable.sends", link.sends as f64);
    out.set("reliable.delivered", link.delivered as f64);
    out.set("reliable.retransmits", link.retransmits as f64);
    out.set("reliable.recovered", link.recovered as f64);
    out.set("reliable.gave_up", link.gave_up as f64);
    out.set("reliable.resyncs", link.resyncs as f64);
    out.set("reliable.backoff_ms", link.backoff_ms as f64);
    let attempts = link.sends + link.retransmits;
    out.set(
        "reliable.useful_frac",
        if attempts > 0 {
            link.delivered as f64 / attempts as f64
        } else {
            0.0
        },
    );
}
