//! Kernel microbenchmarks: sparse dot products, CSR row scoring, DCD/SGD
//! training epochs, kernel-SVM rows — scalar reference vs the
//! shared-storage/CSR/postings paths. Panics (non-zero exit) if a postings
//! kernel row differs from per-vector `Kernel::eval` in any bit.
//!
//! Usage:
//! ```text
//! cargo run --release -p bench --bin kernels            # 200-peer workload
//! cargo run --release -p bench --bin kernels -- --quick # 12-peer (CI smoke)
//! ```
//!
//! Writes `BENCH_kernels.json` to the repository root (quick mode writes
//! `BENCH_kernels_quick.json` so committed numbers are not clobbered by CI).

use bench::kernels::{measure, to_json};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let seed = 2010;
    let num_users = if quick { 12 } else { 200 };

    eprintln!("measuring kernels on the {num_users}-peer workload...");
    let (rows, docs, avg_nnz) = measure(num_users, seed);
    for r in &rows {
        match (r.fast_ns_per_op, r.speedup()) {
            (Some(f), Some(s)) => eprintln!(
                "  {:<20} {:>10.1} ns/op -> {:>10.1} ns/op (x{:.2})",
                r.op, r.scalar_ns_per_op, f, s
            ),
            _ => eprintln!("  {:<20} {:>10.1} ns/op", r.op, r.scalar_ns_per_op),
        }
    }

    let json = to_json(&rows, docs, avg_nnz, num_users, seed);
    let filename = if quick {
        "BENCH_kernels_quick.json"
    } else {
        "BENCH_kernels.json"
    };
    let root = bench::workspace_root();
    let path = root.join(filename);
    std::fs::write(&path, &json).expect("write kernels json");
    println!("{json}");
    eprintln!("wrote {}", path.display());
}
