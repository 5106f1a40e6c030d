//! Self-tests of the benchmark: a tiny run of every workload completes and
//! passes its checks, the metric names it prints match `BENCHMARK.json`,
//! and the deterministic metrics repeat for a seed and change with it.

use std::path::PathBuf;
use std::process::Command;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits one level below the repository root")
        .to_path_buf()
}

fn benchmark_json() -> String {
    std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json exists")
}

/// The `"name"` values of the array under `key` in `BENCHMARK.json`.
fn names_under(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let end = body.find(']').expect("array is closed");
    body[..end]
        .split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("name is a string").to_string())
        .collect()
}

struct Run {
    stdout: String,
    result: String,
}

impl Run {
    /// Metric names of the result line, in order.
    fn metric_names(&self) -> Vec<String> {
        let metrics = &self.result[self.result.find("\"metrics\"").expect("metrics key")..];
        let chunks: Vec<&str> = metrics.split("{\"value\"").collect();
        // Each chunk but the last ends with the name of the metric after it.
        chunks[..chunks.len() - 1]
            .iter()
            .map(|chunk| chunk.rsplit('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    fn value(&self, name: &str) -> String {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = self
            .result
            .find(&key)
            .unwrap_or_else(|| panic!("no metric {name}"))
            + key.len();
        self.result[at..]
            .split(',')
            .next()
            .expect("value")
            .to_string()
    }
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "0",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--tiny"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result = stdout.lines().last().expect("a result line").to_string();
    assert!(result.starts_with("{\"correct\": true"), "{result}");
    Run { stdout, result }
}

#[test]
fn every_workload_runs_tiny_and_prints_the_catalog() {
    let json = benchmark_json();
    let workloads = names_under(&json, "workloads");
    assert_eq!(
        workloads,
        [
            "pace-batch",
            "cempar-query",
            "session-churn",
            "peerd-loopback"
        ]
    );
    let end_to_end = names_under(&json, "end_to_end");
    let per_layer = names_under(&json, "per_layer");
    for workload in &workloads {
        let plain = run(workload, 5, false);
        assert_eq!(plain.metric_names(), end_to_end, "{workload}");
        assert!(!plain.stdout.contains("check FAILED"), "{}", plain.stdout);
        let traced = run(workload, 5, true);
        assert_eq!(traced.metric_names(), per_layer, "{workload}");
        assert!(traced
            .stdout
            .contains("do not attribute the end-to-end wall time"));
    }
}

#[test]
fn deterministic_metrics_repeat_per_seed_and_move_with_it() {
    for workload in ["pace-batch", "cempar-query", "session-churn"] {
        let a = run(workload, 7, true);
        let b = run(workload, 7, true);
        let c = run(workload, 8, true);
        let counters: Vec<String> = a
            .metric_names()
            .into_iter()
            .filter(|n| n.starts_with("p2psim.") || n.starts_with("reliable."))
            .collect();
        for name in &counters {
            assert_eq!(a.value(name), b.value(name), "{workload} {name}");
        }
        assert!(
            counters.iter().any(|n| a.value(n) != c.value(n)),
            "{workload}: counters do not depend on the seed"
        );
        let a = run(workload, 7, false);
        let b = run(workload, 7, false);
        let c = run(workload, 8, false);
        for name in ["bytes_per_peer", "macro_f1", "served_frac"] {
            assert_eq!(a.value(name), b.value(name), "{workload} {name}");
        }
        assert_ne!(
            a.value("bytes_per_peer"),
            c.value("bytes_per_peer"),
            "{workload}"
        );
        assert_ne!(a.value("macro_f1"), c.value("macro_f1"), "{workload}");
    }
}
