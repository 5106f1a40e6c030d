//! Layer replays: each library layer run on its own over the workload's
//! inputs, after the measured passes, to size that layer's cost.
//!
//! A replay calls the layer's public API directly with a fixed share of the
//! workload's data (the first [`PEERS`] non-empty per-peer training slices
//! and [`QUERIES`] held-out documents), so its figures say how expensive the
//! layer is on these inputs. They do not attribute the end-to-end wall time:
//! the protocols call these layers with other batch shapes and orders.

use crate::report::Outcome;
use crate::workload::Ctx;
use dataset::{Corpus, TrainTestSplit, VectorizedCorpus};
use ml::cascade::CascadeSvm;
use ml::kmeans::KMeans;
use ml::lsh::LshIndex;
use ml::{BatchKernelScorer, KernelSvm, MultiLabelDataset, OneVsAllModel};
use p2pclassify::{wire, CemparConfig, PaceConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use textproc::{SparseVector, Weighting};

/// Per-peer training slices a replay trains on.
pub const PEERS: usize = 64;
/// Held-out documents a replay scores.
pub const QUERIES: usize = 256;

pub fn run(ctx: &mut Ctx, corpus: &Corpus, split: &TrainTestSplit, out: &mut Outcome) {
    let t = &mut ctx.tracer;
    t.set_enabled(true);
    let pace = PaceConfig::default();
    let cempar = CemparConfig::default();

    let (vectorized, vectorize_s) = t.time("textproc.vectorize", |_| {
        VectorizedCorpus::build_with_weighting(corpus, Weighting::TfIdf)
    });
    let nnz: usize = (0..vectorized.len())
        .map(|d| vectorized.vector(d).nnz())
        .sum();
    out.set("textproc.vectorize_s", vectorize_s);
    out.set(
        "textproc.nnz_per_doc",
        nnz as f64 / vectorized.len().max(1) as f64,
    );

    let mut by_user = vec![MultiLabelDataset::new(); corpus.num_users().max(1)];
    for &doc in &split.train {
        let user = corpus
            .document(doc)
            .expect("split refers to corpus documents")
            .user;
        by_user[user].push(vectorized.example(doc));
    }
    let slices: Vec<MultiLabelDataset> = by_user
        .into_iter()
        .filter(|d| !d.is_empty())
        .take(PEERS)
        .collect();
    let stride = (split.test.len() / QUERIES).max(1);
    let queries: Vec<SparseVector> = split
        .test
        .iter()
        .step_by(stride)
        .take(QUERIES)
        .map(|&d| vectorized.vector(d).clone())
        .collect();
    out.meta("replay_peers", slices.len());
    out.meta("replay_queries", queries.len());

    let (linear, linear_s) = t.time("ml.svm.linear_train", |_| {
        slices
            .iter()
            .map(|d| pace.one_vs_all.train_linear_csr(d, &pace.svm))
            .collect::<Vec<_>>()
    });
    out.set("ml.svm.linear_train_s", linear_s);

    let (kernel, kernel_s) = t.time("ml.svm.kernel_train", |_| {
        slices
            .iter()
            .map(|d| cempar.one_vs_all.train_kernel_shared(d, &cempar.svm))
            .collect::<Vec<_>>()
    });
    out.set("ml.svm.kernel_train_s", kernel_s);
    let svs: usize = kernel.iter().map(support_vectors).sum();
    out.set("ml.svm.support_vectors", svs as f64);

    // Cascade: peers join regions round-robin, each region merges per tag.
    let regions = CemparConfig::for_network(slices.len()).regions;
    let combiner = CascadeSvm::new(cempar.cascade.clone());
    let (merged, merge_s) = t.time("ml.cascade.merge", |_| {
        (0..regions)
            .map(|r| {
                let mut per_tag: BTreeMap<u32, Vec<KernelSvm>> = BTreeMap::new();
                for model in kernel.iter().skip(r).step_by(regions) {
                    for (tag, clf) in model.iter() {
                        per_tag.entry(tag).or_default().push(clf.clone());
                    }
                }
                per_tag
                    .into_iter()
                    .filter_map(|(tag, models)| {
                        let sv_in: usize = models.iter().map(KernelSvm::num_support_vectors).sum();
                        combiner.merge(&models).map(|m| (tag, sv_in, m))
                    })
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    });
    out.set("ml.cascade.merge_s", merge_s);
    let sv_in: usize = merged.iter().flatten().map(|(_, n, _)| n).sum();
    let sv_out: usize = merged
        .iter()
        .flatten()
        .map(|(_, _, m)| m.num_support_vectors())
        .sum();
    out.set("ml.cascade.sv_in", sv_in as f64);
    out.set("ml.cascade.sv_out", sv_out as f64);

    // A query is scored against every region's cascade.
    let scorers: Vec<BatchKernelScorer> = merged
        .iter()
        .map(|region| BatchKernelScorer::from_classifiers(region.iter().map(|(t, _, m)| (*t, m))))
        .collect();
    let rows: usize = scorers
        .iter()
        .map(BatchKernelScorer::num_unique_vectors)
        .sum();
    out.set("ml.batch.kernel_rows_per_query", rows as f64);
    let (_, kernel_score_s) = t.time("ml.batch.kernel_score", |_| {
        for scorer in &scorers {
            black_box(scorer.scores_batch(&queries));
        }
    });
    out.set("ml.batch.kernel_score_s", kernel_score_s);

    let matrices: Vec<_> = linear.iter().map(OneVsAllModel::weight_matrix).collect();
    let (_, linear_score_s) = t.time("ml.batch.linear_score", |_| {
        for matrix in &matrices {
            black_box(matrix.scores_batch(&queries));
        }
    });
    out.set("ml.batch.linear_score_s", linear_score_s);

    let mut index = LshIndex::new(pace.lsh.clone());
    for (peer, slice) in slices.iter().enumerate() {
        for c in KMeans::fit(slice.vectors(), &pace.kmeans).centroids() {
            index.insert(c.clone(), peer);
        }
    }
    let (_, lsh_s) = t.time("ml.lsh.query", |_| {
        for q in &queries {
            black_box(index.query_batched(q, pace.top_k));
        }
    });
    out.set("ml.lsh.query_s", lsh_s);

    let accuracies: Vec<f64> = linear
        .iter()
        .zip(&slices)
        .map(|(m, d)| ml::codec::ensemble_accuracy(m, d))
        .collect();
    let (frames, encode_s) = t.time("ml.codec.encode", |_| {
        let mut frames: Vec<Vec<u8>> = linear
            .iter()
            .zip(&accuracies)
            .map(|(m, &acc)| wire::encode_pace_model(m, acc, pace.wire.precision))
            .collect();
        frames.extend(
            kernel
                .iter()
                .map(|m| wire::encode_kernel_model(m, cempar.wire.precision)),
        );
        frames
    });
    let (decoded_ok, decode_s) = t.time("ml.codec.decode", |_| {
        let (pace_frames, kernel_frames) = frames.split_at(linear.len());
        pace_frames
            .iter()
            .all(|f| wire::decode_pace_model(f).is_ok())
            && kernel_frames
                .iter()
                .all(|f| wire::decode_kernel_model(f).is_ok())
    });
    out.set("ml.codec.encode_s", encode_s);
    out.set("ml.codec.decode_s", decode_s);
    out.set(
        "ml.codec.model_bytes",
        frames.iter().map(Vec::len).sum::<usize>() as f64,
    );
    out.check(
        "replayed model frames decode",
        decoded_ok,
        format!("{} frames", frames.len()),
    );
    t.set_enabled(false);
}

fn support_vectors(model: &OneVsAllModel<KernelSvm>) -> usize {
    model.iter().map(|(_, c)| c.num_support_vectors()).sum()
}
