//! The P2PDocTagger benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pace-batch|cempar-query|session-churn|peerd-loopback> \
//!     --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Runs one workload, checks its outputs, and prints as the last line of
//! standard output one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics (and tracing overhead) with `--trace 1`. A failed check prints
//! `"correct": false` and exits with status 1. Run metadata, checks and the
//! span log are also written under `perfbench/results/`. `--tiny` shrinks
//! every workload to a few seconds for the self-tests. See `README.md`.

mod fleet;
mod replay;
mod report;
mod sim;
mod trace;
mod workload;

use report::{json_str, MetricDef, Outcome, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use trace::Tracer;
use workload::Ctx;

/// A workload: runs its set-up, passes and checks.
type Workload = fn(&mut Ctx) -> Outcome;

const WORKLOADS: &[(&str, Workload)] = &[
    ("pace-batch", sim::pace_batch),
    ("cempar-query", sim::cempar_query),
    ("session-churn", sim::session_churn),
    ("peerd-loopback", fleet::peerd_loopback),
];

const REPLAY_NOTE: &str = "layer replays (textproc.*, ml.*) size each layer's cost on this \
     workload's inputs; they do not attribute the end-to-end wall time";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            args.tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(&(name, run)) = WORKLOADS.iter().find(|(n, _)| *n == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        eprintln!("perfbench: --workload must be one of {}", names.join(", "));
        return ExitCode::from(2);
    };

    // Pin the worker count of the parallel substrate to the core count, so
    // every run of a machine uses the same parallelism; record both.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var("P2PDT_THREADS", nproc.to_string());

    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        tiny: args.tiny,
        tracer: Tracer::new(false),
        peak_rss_mib: 0.0,
    };
    let mut out = run(&mut ctx);
    out.set("peak_rss_mib", ctx.peak_rss_mib);
    let mut meta = vec![
        ("workload".to_string(), name.to_string()),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
        ("trace".to_string(), u8::from(args.trace).to_string()),
        ("tiny".to_string(), args.tiny.to_string()),
        ("commit".to_string(), report::git_commit()),
        ("nproc".to_string(), nproc.to_string()),
        ("P2PDT_THREADS".to_string(), nproc.to_string()),
    ];
    meta.append(&mut out.meta);

    let catalog: &[MetricDef] = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics = match out.metrics_json(catalog) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    let meta_line: Vec<String> = meta.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("run {}", meta_line.join(" "));
    for (check, ok, detail) in &out.checks {
        let status = if *ok { "ok" } else { "FAILED" };
        println!("check {status}: {check} ({detail})");
    }
    for def in catalog {
        let value = out.metrics[def.name];
        let better = format!("{} is better", def.better);
        if def.moves.is_empty() {
            println!("metric {} = {value} {} ({better})", def.name, def.unit);
        } else {
            println!(
                "metric {} = {value} {} ({better}) -> {}",
                def.name, def.unit, def.moves
            );
        }
    }
    if args.trace {
        println!("note: {REPLAY_NOTE}");
    }
    if let Err(e) = write_results(&args, name, &meta, &out, &metrics, &ctx.tracer) {
        eprintln!("perfbench: could not write results: {e}");
    }

    let correct = out.correct();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.attempted.max(1),
        out.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Writes the run record (metadata, checks, metrics) and, for traced runs,
/// the span log under `perfbench/results/`.
fn write_results(
    args: &Args,
    name: &str,
    meta: &[(String, String)],
    out: &Outcome,
    metrics: &str,
    tracer: &Tracer,
) -> std::io::Result<()> {
    let dir = std::path::Path::new("perfbench/results");
    std::fs::create_dir_all(dir)?;
    let stem = format!("{name}-seed{}-trace{}", args.seed, u8::from(args.trace));
    let meta_json: Vec<String> = meta
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let checks_json: Vec<String> = out
        .checks
        .iter()
        .map(|(c, ok, d)| {
            format!(
                "{{\"check\": {}, \"ok\": {ok}, \"detail\": {}}}",
                json_str(c),
                json_str(d)
            )
        })
        .collect();
    let record = format!(
        "{{\n\"meta\": {{{}}},\n\"checks\": [{}],\n\"attempted\": {},\n\"failed\": {},\n\"metrics\": {metrics}\n}}\n",
        meta_json.join(", "),
        checks_json.join(", "),
        out.attempted,
        out.failed
    );
    std::fs::write(dir.join(format!("{stem}.json")), record)?;
    if args.trace {
        std::fs::write(dir.join(format!("{stem}-spans.json")), tracer.to_json())?;
    }
    Ok(())
}
