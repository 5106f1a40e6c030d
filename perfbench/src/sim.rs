//! The three simulator workloads, driven through the `doctagger` facade.

use crate::replay;
use crate::report::Outcome;
use crate::workload::{summarize, Ctx, Pass, INGEST_REPEATS};
use dataset::{Corpus, CorpusGenerator, CorpusSpec, DocumentId, TrainTestSplit};
use doctagger::{DocTaggerConfig, P2PDocTagger, ProtocolKind, SessionConfig, SessionDriver};
use ml::MultiLabelMetrics;
use p2pclassify::{CemparConfig, ReliabilityConfig};
use p2psim::churn::ChurnModel;
use p2psim::faults::FaultPlan;
use p2psim::{SimConfig, SimStats};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The tag-heavy corpus shape of the throughput benchmarks: 48 tags, Zipf
/// popularity, interest locality, 12–19 documents per user.
fn corpus_spec(num_users: usize, seed: u64) -> CorpusSpec {
    CorpusSpec {
        num_tags: 48,
        num_users,
        min_docs_per_user: 12,
        max_docs_per_user: 20,
        words_per_doc: 40,
        words_per_tag: 25,
        background_vocab: 300,
        interests_per_user: 6,
        seed,
        ..CorpusSpec::default()
    }
}

struct Inputs {
    corpus: Arc<Corpus>,
    split: TrainTestSplit,
    config: DocTaggerConfig,
}

/// Set-up: corpus generation, the held-out split and system construction.
fn setup(ctx: &mut Ctx, peers: usize, protocol: &ProtocolKind) -> (Inputs, f64) {
    let seed = ctx.seed;
    ctx.setup(|| {
        let corpus = Arc::new(CorpusGenerator::new(corpus_spec(peers, seed)).generate());
        let split = held_out_split(&corpus, seed);
        let config = batch_config(protocol.clone(), corpus.num_users(), seed);
        std::hint::black_box(P2PDocTagger::new(config.clone()));
        Inputs {
            corpus,
            split,
            config,
        }
    })
}

fn batch_config(protocol: ProtocolKind, peers: usize, seed: u64) -> DocTaggerConfig {
    DocTaggerConfig {
        protocol,
        network: Some(SimConfig {
            num_peers: peers.max(1),
            churn: ChurnModel::None,
            seed,
            ..SimConfig::default()
        }),
        seed,
        ..DocTaggerConfig::default()
    }
}

/// The held-out split: 20 % of each user's documents are manually tagged
/// and train, the rest are auto-tagged.
fn held_out_split(corpus: &Corpus, seed: u64) -> TrainTestSplit {
    TrainTestSplit::stratified_by_user(corpus, 0.2, seed ^ 0xABCD)
}

/// A fresh system that has ingested the corpus and learned the split.
fn learned(inputs: &Inputs, t: &mut crate::trace::Tracer, pass: &mut Pass) -> Option<P2PDocTagger> {
    let mut system = P2PDocTagger::new(inputs.config.clone());
    let corpus = inputs.corpus.clone();
    let (_, ingest_s) = t.time("doctagger.ingest", |_| system.ingest_shared(corpus));
    let (learned, learn_s) = t.time("doctagger.learn", |_| system.learn(&inputs.split));
    pass.ingest_docs = inputs.corpus.len();
    pass.ingest_s = ingest_s;
    pass.train_docs = inputs.split.train.len();
    pass.learn_s = learn_s;
    pass.converge_s = learn_s;
    pass.attempted += 1;
    match learned {
        Ok(()) => Some(system),
        Err(_) => {
            pass.failed += 1;
            None
        }
    }
}

/// Traffic, link counters and the deterministic fingerprint of a finished
/// pass.
fn finish(pass: &mut Pass, system: &P2PDocTagger) {
    let stats = system.network_stats();
    pass.peers = system.num_peers();
    pass.bytes = stats.total_bytes();
    pass.link = system.protocol_link_stats();
    pass.fingerprint = format!(
        "bytes={} macro_f1={} served={}/{} link={:?} faults={:?}",
        pass.bytes, pass.macro_f1, pass.served, pass.requested, pass.link, stats.faults
    );
    pass.sim = Some(stats);
}

/// Bytes put on the wire, summed over sending peers, equal the bytes
/// delivered plus dropped; bytes received equal bytes delivered. The public
/// counters are bumped together, so this guards only the accounting
/// plumbing (a peer-index mismatch); the macro-F1 floor catches lossy
/// changes.
fn check_conservation(out: &mut Outcome, stats: &SimStats, peers: usize) {
    let sent: u64 = (0..peers)
        .map(|p| stats.bytes_sent_by(p2psim::PeerId::from(p)))
        .sum();
    let received: u64 = (0..peers)
        .map(|p| stats.bytes_received_by(p2psim::PeerId::from(p)))
        .sum();
    let ok = sent == stats.total_bytes_delivered() + stats.total_bytes_dropped()
        && received == stats.total_bytes_delivered();
    out.check(
        "bytes sent = bytes delivered + bytes dropped",
        ok,
        format!(
            "sent={sent} received={received} delivered={} dropped={}",
            stats.total_bytes_delivered(),
            stats.total_bytes_dropped()
        ),
    );
}

/// The shared checks of the two batch workloads.
fn check_batch(out: &mut Outcome, passes: &[Pass], floor: f64) {
    let last = passes.last().expect("at least one pass");
    let answered = passes
        .iter()
        .all(|p| p.served == p.requested && p.failed == 0);
    out.check(
        "every auto-tag request answered",
        answered,
        format!("served {}/{} in the last pass", last.served, last.requested),
    );
    out.check(
        "macro_f1 above the local-only floor",
        last.macro_f1 > floor,
        format!("macro_f1={} local-only={floor}", last.macro_f1),
    );
    if let Some(stats) = &last.sim {
        check_conservation(out, stats, last.peers);
    }
}

/// Macro-F1 of local-only learning on the same inputs, over `docs`.
fn local_only_floor(inputs: &Inputs, docs: &[DocumentId]) -> f64 {
    let config = DocTaggerConfig {
        protocol: ProtocolKind::local_only(),
        ..inputs.config.clone()
    };
    let mut system = P2PDocTagger::new(config);
    system.ingest_shared(inputs.corpus.clone());
    system.learn(&inputs.split).expect("local-only learns");
    let outcome = system.auto_tag_docs(docs).expect("local-only tags");
    outcome.metrics.macro_f1()
}

/// `pace-batch`: PACE ingests, learns and auto-tags every held-out document
/// in one `auto_tag_all` request.
pub fn pace_batch(ctx: &mut Ctx) -> Outcome {
    let peers = if ctx.tiny { 40 } else { 1000 };
    let (inputs, setup_s) = setup(ctx, peers, &ProtocolKind::pace());
    let passes = ctx.passes(|t| {
        let mut pass = Pass {
            epochs: 1,
            ..Pass::default()
        };
        let Some(mut system) = learned(&inputs, t, &mut pass) else {
            return pass;
        };
        let docs = inputs.split.test.len();
        let (outcome, secs) = t.time("doctagger.autotag", |_| system.auto_tag_all());
        pass.autotag_s = secs;
        // The one request of the pass is the whole batch.
        pass.latency_ms.push(secs * 1e3);
        pass.attempted += docs as u64;
        pass.requested += docs as u64;
        pass.autotag_docs = docs;
        match outcome {
            Ok(o) => {
                pass.served += o.tagged as u64;
                pass.failed += o.failed as u64;
                pass.macro_f1 = o.metrics.macro_f1();
            }
            Err(_) => pass.failed += docs as u64,
        }
        finish(&mut pass, &system);
        pass
    });
    let mut out = Outcome::default();
    out.meta("peers", peers);
    out.meta("documents", inputs.corpus.len());
    out.meta("autotag_docs_per_request", inputs.split.test.len());
    summarize(ctx, &passes, setup_s, &mut out);
    let floor = local_only_floor(&inputs, &inputs.split.test);
    check_batch(&mut out, &passes, floor);
    if ctx.trace {
        replay::run(ctx, &inputs.corpus, &inputs.split, &mut out);
    }
    out
}

/// Every `stride`-th held-out document, at most `n` of them.
fn sample(test: &[DocumentId], n: usize) -> Vec<DocumentId> {
    let stride = (test.len() / n.max(1)).max(1);
    test.iter().step_by(stride).take(n).copied().collect()
}

/// `cempar-query`: CEMPaR learns, then one client auto-tags a fixed sample
/// of held-out documents one request at a time.
pub fn cempar_query(ctx: &mut Ctx) -> Outcome {
    let peers = if ctx.tiny { 40 } else { 1000 };
    let queries = if ctx.tiny { 24 } else { 500 };
    let protocol = ProtocolKind::Cempar(CemparConfig::for_network(peers));
    let (inputs, setup_s) = setup(ctx, peers, &protocol);
    let docs = sample(&inputs.split.test, queries);
    let all_tags: BTreeSet<u32> = (0..inputs.corpus.num_tags() as u32).collect();
    let passes = ctx.passes(|t| {
        let mut pass = Pass {
            epochs: 1,
            ..Pass::default()
        };
        let Some(mut system) = learned(&inputs, t, &mut pass) else {
            return pass;
        };
        let mut predictions = Vec::with_capacity(docs.len());
        let mut truths = Vec::with_capacity(docs.len());
        for &doc in &docs {
            let (tags, secs) = t.time("doctagger.autotag", |_| system.auto_tag(doc));
            pass.autotag_s += secs;
            pass.latency_ms.push(secs * 1e3);
            pass.attempted += 1;
            pass.requested += 1;
            pass.autotag_docs += 1;
            let predicted: BTreeSet<u32> = match tags {
                Ok(names) => {
                    pass.served += 1;
                    names
                        .iter()
                        .filter_map(|n| inputs.corpus.tag_id(n))
                        .collect()
                }
                Err(_) => {
                    pass.failed += 1;
                    BTreeSet::new()
                }
            };
            predictions.push(predicted);
            truths.push(inputs.corpus.tag_ids_of(doc));
        }
        pass.macro_f1 = MultiLabelMetrics::evaluate(&predictions, &truths, &all_tags).macro_f1();
        finish(&mut pass, &system);
        pass
    });
    let mut out = Outcome::default();
    out.meta("peers", peers);
    out.meta("documents", inputs.corpus.len());
    out.meta("query_docs", docs.len());
    summarize(ctx, &passes, setup_s, &mut out);
    let floor = local_only_floor(&inputs, &docs);
    check_batch(&mut out, &passes, floor);
    if ctx.trace {
        replay::run(ctx, &inputs.corpus, &inputs.split, &mut out);
    }
    out
}

fn session_config(epochs: usize, seed: u64) -> SessionConfig {
    SessionConfig {
        epochs,
        epoch_secs: 600.0,
        churn: ChurnModel::Exponential {
            mean_session_secs: 3_000.0,
            mean_offline_secs: 300.0,
        },
        faults: FaultPlan::chaos(0.1, None, true),
        incremental: true,
        seed,
        ..SessionConfig::default()
    }
}

/// `session-churn`: a streaming PACE session under churn, loss, corruption
/// and crash-restarts, with reliable delivery and warm-start learning.
pub fn session_churn(ctx: &mut Ctx) -> Outcome {
    let peers = if ctx.tiny { 24 } else { 200 };
    let epochs = 5;
    let seed = ctx.seed;
    let protocol = ProtocolKind::pace().with_reliability(Some(ReliabilityConfig::default()));
    let (corpus, setup_s) = ctx.setup(|| {
        let corpus = Arc::new(CorpusGenerator::new(corpus_spec(peers, seed)).generate());
        std::hint::black_box(SessionDriver::new_shared(
            protocol.clone(),
            session_config(epochs, seed),
            corpus.clone(),
        ));
        corpus
    });
    let mut delivered_within_sends = true;
    let passes = ctx.passes(|t| {
        let mut pass = Pass {
            epochs,
            peers,
            ..Pass::default()
        };
        let build = || {
            SessionDriver::new_shared(
                protocol.clone(),
                session_config(epochs, seed),
                corpus.clone(),
            )
        };
        // The last driver built runs the session.
        let (mut driver, ingest_s) = t.time("doctagger.ingest", |_| {
            for _ in 1..INGEST_REPEATS {
                std::hint::black_box(build());
            }
            build()
        });
        pass.ingest_docs = corpus.len() * INGEST_REPEATS;
        pass.ingest_s = ingest_s;
        let (outcome, run_s) = t.time("doctagger.session", |_| driver.run());
        pass.attempted += epochs as u64;
        let outcome = match outcome {
            Ok(o) => o,
            Err(_) => {
                pass.failed += epochs as u64;
                return pass;
            }
        };
        for e in &outcome.epochs {
            pass.train_docs += e.new_manual;
            pass.learn_s += e.learn_secs;
            pass.refine_s += e.refine_secs;
            pass.autotag_s += e.auto_secs;
            pass.autotag_docs += e.auto_requested;
            pass.requested += e.auto_requested as u64;
            pass.served += e.auto_tagged as u64;
            // The facade times each epoch's auto-tag requests as one batch,
            // so a latency sample is one epoch batch, not one request.
            if e.auto_requested > 0 {
                pass.latency_ms.push(e.auto_secs * 1e3);
            }
        }
        pass.converge_s = (pass.learn_s + pass.refine_s) / epochs as f64;
        pass.other_s = run_s - pass.learn_s - pass.refine_s - pass.autotag_s;
        pass.macro_f1 = outcome.final_macro_f1();
        finish(&mut pass, driver.system());
        delivered_within_sends &= pass.link.delivered <= pass.link.sends;
        pass
    });
    let mut out = Outcome::default();
    out.meta("peers", peers);
    out.meta("documents", corpus.len());
    out.meta("epochs", epochs);
    summarize(ctx, &passes, setup_s, &mut out);
    let last = passes.last().expect("at least one pass");
    out.check(
        "every session completes",
        passes.iter().all(|p| p.failed == 0),
        format!("{} sessions", passes.len()),
    );
    out.check(
        "LinkStats.delivered <= sends",
        delivered_within_sends,
        format!(
            "delivered={} sends={}",
            last.link.delivered, last.link.sends
        ),
    );
    if let Some(stats) = &last.sim {
        check_conservation(&mut out, stats, peers);
    }
    if ctx.trace {
        let split = held_out_split(&corpus, seed);
        replay::run(ctx, &corpus, &split, &mut out);
    }
    out
}
