//! Kernel-level microbenchmarks of the sparse linear-algebra hot paths.
//!
//! The end-to-end throughput harness (`throughput.rs`) measures pipeline
//! stages; this module times the individual kernels those stages are built
//! from, on the same tag-heavy workload, so a perf regression can be located
//! without bisecting the whole pipeline:
//!
//! * `sparse_dot` — sorted merge-join `SparseVector::dot` (kernel SVM rows,
//!   LSH distances);
//! * `dot_dense` — `SparseVector::dot_dense` vs the bounds-check-free
//!   [`textproc::CsrMatrix::row_dot_dense`] (the SVM solvers' inner product);
//! * `tag_matrix_scoring` — per-tag scalar decisions vs one
//!   [`ml::batch::TagWeightMatrix`] pass over the document nonzeros;
//! * `dcd_cold_train` — one cold one-vs-all DCD fit, `&[SparseVector]` vs the
//!   shared-context CSR path;
//! * `sgd_warm_epochs` — the warm-start SGD refit (pure SGD epochs), slice vs
//!   CSR;
//! * `kernel_row` — one query's kernel row over a set of support vectors,
//!   one merge-join [`ml::Kernel::eval`] per vector vs one
//!   [`ml::batch::BatchKernelScorer`] pass over the query's nonzeros through
//!   inverted postings. [`measure`] first checks that the two rows agree bit
//!   for bit under every kernel and panics if they do not, so the `--quick`
//!   CI run gates the equivalence.
//!
//! The binary writes `BENCH_kernels.json`; `EXPERIMENTS.md` §K1 records a
//! captured run. Both sides of every comparison compute bit-identical
//! results (pinned by the `ml` equivalence tests), so the ratios are
//! work-for-work.

use crate::throughput::{pooled_training_set, throughput_spec, throughput_split};
use dataset::CorpusGenerator;
use ml::batch::BatchKernelScorer;
use ml::multilabel::OneVsAllTrainer;
use ml::svm::{BinaryClassifier, CsrLinearTrainer, KernelSvm, LinearSvmTrainer, SupportVector};
use ml::{Kernel, MultiLabelDataset};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;
use textproc::SparseVector;

/// One microbenchmark row: a kernel timed on the scalar reference and (when
/// a shared-storage variant exists) on the fast path.
#[derive(Debug, Clone)]
pub struct KernelRow {
    /// Kernel name (stable identifier for the JSON).
    pub op: &'static str,
    /// Number of operations timed (dots, documents, or fits).
    pub ops: usize,
    /// Nanoseconds per operation on the scalar reference path.
    pub scalar_ns_per_op: f64,
    /// Nanoseconds per operation on the CSR/batched path, if one exists.
    pub fast_ns_per_op: Option<f64>,
}

impl KernelRow {
    /// Scalar-over-fast ratio (`None` for characterization-only rows).
    pub fn speedup(&self) -> Option<f64> {
        self.fast_ns_per_op
            .map(|f| self.scalar_ns_per_op / f.max(1e-9))
    }
}

/// The pooled training dataset of the throughput workload at `num_users` —
/// built through the same corpus/split/pooling helpers `throughput::measure`
/// uses, so the kernel rows decompose exactly the workload the end-to-end
/// rows measure.
fn pooled_dataset(num_users: usize, seed: u64) -> MultiLabelDataset {
    let corpus = CorpusGenerator::new(throughput_spec(num_users, seed)).generate();
    let split = throughput_split(&corpus, seed);
    let vectorized = dataset::VectorizedCorpus::build(&corpus);
    pooled_training_set(&vectorized, &split)
}

fn time<F: FnMut() -> f64>(mut f: F) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64()
}

/// Runs every kernel microbenchmark on the `num_users` workload.
pub fn measure(num_users: usize, seed: u64) -> (Vec<KernelRow>, usize, f64) {
    let data = pooled_dataset(num_users, seed);
    let xs = data.vectors();
    let n = xs.len();
    let csr = data.to_csr();
    let avg_nnz = csr.nnz() as f64 / n.max(1) as f64;
    let dim = csr.dim();
    let w: Vec<f64> = (0..dim + 1).map(|j| (j as f64 * 0.37).sin()).collect();
    let mut rows = Vec::new();
    let reps = 200usize;

    // sparse_dot: every consecutive row pair, merge-join.
    let ops = reps * n.saturating_sub(1);
    let secs = time(|| {
        let mut acc = 0.0;
        for _ in 0..reps {
            for i in 1..n {
                acc += xs[i - 1].dot(&xs[i]);
            }
        }
        acc
    });
    rows.push(KernelRow {
        op: "sparse_dot",
        ops,
        scalar_ns_per_op: secs * 1e9 / ops.max(1) as f64,
        fast_ns_per_op: None,
    });

    // dot_dense: slice path vs CSR row kernel, identical accumulation order.
    let ops = reps * n;
    let scalar_secs = time(|| {
        let mut acc = 0.0;
        for _ in 0..reps {
            for x in xs {
                acc += x.dot_dense(&w);
            }
        }
        acc
    });
    let csr_secs = time(|| {
        let mut acc = 0.0;
        for _ in 0..reps {
            for i in 0..n {
                acc += csr.row_dot_dense(i, &w);
            }
        }
        acc
    });
    rows.push(KernelRow {
        op: "dot_dense",
        ops,
        scalar_ns_per_op: scalar_secs * 1e9 / ops.max(1) as f64,
        fast_ns_per_op: Some(csr_secs * 1e9 / ops.max(1) as f64),
    });

    // tag_matrix_scoring: per-tag scalar decisions vs one CSR pass per doc.
    let trainer = LinearSvmTrainer::default();
    let ova = OneVsAllTrainer::default();
    let model = ova.train_linear_csr(&data, &trainer);
    let matrix = model.weight_matrix();
    let score_reps = 20usize;
    let ops = score_reps * n;
    let scalar_secs = time(|| {
        let mut acc = 0.0;
        for _ in 0..score_reps {
            for x in xs {
                for (_, clf) in model.iter() {
                    acc += clf.decision(x);
                }
            }
        }
        acc
    });
    let batched_secs = time(|| {
        let mut acc = 0.0;
        let mut scratch = Vec::new();
        for _ in 0..score_reps {
            for x in xs {
                matrix.decisions_into(x, &mut scratch);
                acc += scratch.iter().sum::<f64>();
            }
        }
        acc
    });
    rows.push(KernelRow {
        op: "tag_matrix_scoring",
        ops,
        scalar_ns_per_op: scalar_secs * 1e9 / ops.max(1) as f64,
        fast_ns_per_op: Some(batched_secs * 1e9 / ops.max(1) as f64),
    });

    // dcd_cold_train: one full one-vs-all fit (every eligible tag).
    let tags: Vec<_> = data.tag_universe().into_iter().collect();
    let scalar_secs = time(|| {
        let mut acc = 0.0;
        for &tag in &tags {
            let ys = data.label_mask(tag);
            acc += trainer.train(xs, &ys).bias();
        }
        acc
    });
    let csr_secs = time(|| {
        let mut acc = 0.0;
        let mut ctx = CsrLinearTrainer::new(&trainer, &csr);
        let mut mask = Vec::new();
        for &tag in &tags {
            data.label_mask_into(tag, &mut mask);
            acc += ctx.train(&mask).bias();
        }
        acc
    });
    rows.push(KernelRow {
        op: "dcd_cold_train",
        ops: tags.len(),
        scalar_ns_per_op: scalar_secs * 1e9 / tags.len().max(1) as f64,
        fast_ns_per_op: Some(csr_secs * 1e9 / tags.len().max(1) as f64),
    });

    // sgd_warm_epochs: warm refit = warm_passes pure SGD epochs per tag.
    let warm_models: Vec<_> = tags
        .iter()
        .map(|&tag| {
            let ys = data.label_mask(tag);
            trainer.train(xs, &ys)
        })
        .collect();
    let scalar_secs = time(|| {
        let mut acc = 0.0;
        for (&tag, warm) in tags.iter().zip(&warm_models) {
            let ys = data.label_mask(tag);
            acc += trainer.train_warm(xs, &ys, warm).bias();
        }
        acc
    });
    let csr_secs = time(|| {
        let mut acc = 0.0;
        let mut ctx = CsrLinearTrainer::new(&trainer, &csr);
        let mut mask = Vec::new();
        for (&tag, warm) in tags.iter().zip(&warm_models) {
            data.label_mask_into(tag, &mut mask);
            acc += ctx.train_warm(&mask, warm).bias();
        }
        acc
    });
    rows.push(KernelRow {
        op: "sgd_warm_epochs",
        ops: tags.len(),
        scalar_ns_per_op: scalar_secs * 1e9 / tags.len().max(1) as f64,
        fast_ns_per_op: Some(csr_secs * 1e9 / tags.len().max(1) as f64),
    });

    // kernel_row: the distinct even documents are support vectors, the odd
    // ones queries; per-vector Kernel::eval vs the postings row. The scorer
    // merges bit-identical vectors into one row, so duplicates are dropped
    // here too and row `i` lines up with `svs[i]`.
    let mut seen = BTreeSet::new();
    let svs: Vec<&SparseVector> = xs
        .iter()
        .step_by(2)
        .filter(|v| {
            let bits: Vec<u64> = v.values().iter().map(|x| x.to_bits()).collect();
            seen.insert((v.indices().to_vec(), bits))
        })
        .collect();
    let queries: Vec<&SparseVector> = xs.iter().skip(1).step_by(2).collect();
    let scorer_for = |kernel: Kernel| {
        let support = svs
            .iter()
            .enumerate()
            .map(|(i, &v)| SupportVector {
                vector: v.clone(),
                label: i % 2 == 0,
                alpha: 1.0,
            })
            .collect();
        let model = KernelSvm::from_support_vectors(support, 0.0, kernel);
        BatchKernelScorer::from_classifiers([(0, &model)])
    };
    let mut row = Vec::new();
    for kernel in [
        Kernel::Linear,
        Kernel::default(),
        Kernel::Polynomial {
            gamma: 0.5,
            coef0: 1.0,
            degree: 3,
        },
    ] {
        let scorer = scorer_for(kernel);
        assert_eq!(scorer.num_unique_vectors(), svs.len());
        for x in &queries {
            scorer.kernel_row_into(x, &mut row);
            for (&k, sv) in row.iter().zip(&svs) {
                assert_eq!(
                    k.to_bits(),
                    kernel.eval(sv, x).to_bits(),
                    "kernel_row: postings row differs from Kernel::eval under {kernel:?}"
                );
            }
        }
    }
    let kernel = Kernel::default();
    let scorer = scorer_for(kernel);
    let row_reps = 20usize;
    let ops = row_reps * queries.len();
    let scalar_secs = time(|| {
        let mut acc = 0.0;
        for _ in 0..row_reps {
            for x in &queries {
                for sv in &svs {
                    acc += kernel.eval(sv, x);
                }
            }
        }
        acc
    });
    let postings_secs = time(|| {
        let mut acc = 0.0;
        for _ in 0..row_reps {
            for x in &queries {
                scorer.kernel_row_into(x, &mut row);
                acc += row.iter().sum::<f64>();
            }
        }
        acc
    });
    rows.push(KernelRow {
        op: "kernel_row",
        ops,
        scalar_ns_per_op: scalar_secs * 1e9 / ops.max(1) as f64,
        fast_ns_per_op: Some(postings_secs * 1e9 / ops.max(1) as f64),
    });

    (rows, n, avg_nnz)
}

/// Renders the rows as the `BENCH_kernels.json` document.
pub fn to_json(
    rows: &[KernelRow],
    docs: usize,
    avg_nnz: f64,
    num_users: usize,
    seed: u64,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"kernels\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"peers\": {num_users},\n"));
    out.push_str(&format!("  \"docs\": {docs},\n"));
    out.push_str(&format!("  \"avg_nnz_per_doc\": {avg_nnz:.1},\n"));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let fast = r
            .fast_ns_per_op
            .map_or("null".to_string(), |f| format!("{f:.1}"));
        let speedup = r
            .speedup()
            .map_or("null".to_string(), |s| format!("{s:.2}"));
        out.push_str(&format!(
            "    {{\"op\": \"{}\", \"ops\": {}, \"scalar_ns_per_op\": {:.1}, \"csr_ns_per_op\": {}, \"speedup\": {}}}{}\n",
            r.op,
            r.ops,
            r.scalar_ns_per_op,
            fast,
            speedup,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_every_kernel_with_positive_times() {
        let (rows, docs, avg_nnz) = measure(4, 7);
        assert_eq!(rows.len(), 6);
        assert!(docs > 0);
        assert!(avg_nnz > 0.0);
        for r in &rows {
            assert!(r.scalar_ns_per_op > 0.0, "{}", r.op);
            if let Some(f) = r.fast_ns_per_op {
                assert!(f > 0.0, "{}", r.op);
                assert!(r.speedup().unwrap() > 0.0);
            }
        }
        assert!(rows[0].speedup().is_none());
        let json = to_json(&rows, docs, avg_nnz, 4, 7);
        assert!(json.contains("\"dcd_cold_train\""));
        assert!(json.contains("\"sgd_warm_epochs\""));
        assert!(json.contains("\"kernel_row\""));
    }
}
