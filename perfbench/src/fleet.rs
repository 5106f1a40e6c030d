//! The `peerd-loopback` workload: a CEMPaR fleet of peer daemons over
//! 127.0.0.1, driven through `peerd::LoopbackHarness`.
//!
//! A pass starts a fleet and runs [`ROUNDS`] rounds. In a round every peer
//! trains on the next chunk of its own training documents, the benchmark
//! waits until each contribution is installed where CEMPaR routes it, and
//! then one client runs a closed loop of `predict` calls on held-out
//! documents, rotating over the peers.

use crate::replay;
use crate::report::{median, Outcome};
use crate::workload::{summarize, Ctx, Pass, INGEST_REPEATS};
use dataset::{Corpus, CorpusGenerator, CorpusSpec, DocumentId, TrainTestSplit, VectorizedCorpus};
use doctagger::timing::Stopwatch;
use ml::{MultiLabelDataset, MultiLabelMetrics};
use p2pclassify::protocol::select_tags_adaptive;
use p2pclassify::sansio::{CemparCore, PeerCore};
use p2pclassify::{CemparConfig, LinkStats};
use p2psim::overlay::SuperPeerDirectory;
use p2psim::PeerId;
use peerd::LoopbackHarness;
use std::collections::BTreeSet;
use std::time::Duration;
use textproc::Weighting;

const PEERS: usize = 3;
const ROUNDS: usize = 16;
const CONVERGE_TIMEOUT: Duration = Duration::from_secs(10);
const PREDICT_TIMEOUT: Duration = Duration::from_secs(5);
/// Snapshot round trips timed for `peerd.command_rtt_p50_ms`.
const RTT_PROBES: usize = 60;

fn corpus_spec(docs_per_peer: usize, seed: u64) -> CorpusSpec {
    CorpusSpec {
        num_tags: 12,
        num_users: PEERS,
        min_docs_per_user: docs_per_peer,
        max_docs_per_user: docs_per_peer + 1,
        words_per_doc: 40,
        words_per_tag: 25,
        background_vocab: 300,
        interests_per_user: 6,
        seed,
        ..CorpusSpec::default()
    }
}

struct Inputs {
    corpus: Corpus,
    split: TrainTestSplit,
}

fn fleet_cores(config: &CemparConfig) -> (Vec<PeerCore>, Vec<Vec<u64>>) {
    let peers: Vec<PeerId> = (0..PEERS as u64).map(PeerId).collect();
    let cores: Vec<CemparCore> = peers
        .iter()
        .map(|&p| CemparCore::new(p, peers.clone(), config.clone()))
        .collect();
    // Each contribution is installed at its contributor and at the
    // super-peer of the contributor's region.
    let directory = SuperPeerDirectory::new(config.regions);
    let mut holds: Vec<Vec<u64>> = vec![Vec::new(); PEERS];
    for source in &peers {
        let region = directory.region_of_key(source.ring_key());
        let super_peer = cores[0].super_peer_of_region(region);
        holds[source.index()].push(source.0);
        if super_peer != *source {
            holds[super_peer.index()].push(source.0);
        }
    }
    for h in &mut holds {
        h.sort_unstable();
    }
    (cores.into_iter().map(PeerCore::Cempar).collect(), holds)
}

/// Polls every peer until its installed set is `holds[peer]` at `version`.
/// Unlike `LoopbackHarness::wait_installed`, it polls without a 10 ms sleep,
/// which would quantize `converge_s`.
fn converge(harness: &LoopbackHarness, holds: &[Vec<u64>], version: u64) -> bool {
    let start = Stopwatch::start();
    let mut pending: Vec<usize> = (0..PEERS).collect();
    while !pending.is_empty() {
        if start.elapsed_secs() > CONVERGE_TIMEOUT.as_secs_f64() {
            return false;
        }
        pending.retain(|&i| {
            let expected: Vec<(u64, u64)> = holds[i].iter().map(|&s| (s, version)).collect();
            harness
                .snapshot(PeerId(i as u64))
                .map_or(true, |s| s.installed != expected)
        });
    }
    true
}

pub fn peerd_loopback(ctx: &mut Ctx) -> Outcome {
    let docs_per_peer = if ctx.tiny { 60 } else { 600 };
    let predicts_per_round = if ctx.tiny { 6 } else { 25 };
    let seed = ctx.seed;
    let config = CemparConfig::default();
    let (inputs, setup_s) = ctx.setup(|| {
        let corpus = CorpusGenerator::new(corpus_spec(docs_per_peer, seed)).generate();
        let split = TrainTestSplit::stratified_by_user(&corpus, 0.5, seed ^ 0xABCD);
        let (cores, _) = fleet_cores(&config);
        let harness = LoopbackHarness::start(cores).expect("loopback fleet starts");
        harness.shutdown();
        Inputs { corpus, split }
    });
    let all_tags: BTreeSet<u32> = (0..inputs.corpus.num_tags() as u32).collect();

    let mut unconverged = 0;
    let passes = ctx.passes(|t| {
        let mut pass = Pass {
            epochs: ROUNDS,
            peers: PEERS,
            ..Pass::default()
        };
        let vectorize = || VectorizedCorpus::build_with_weighting(&inputs.corpus, Weighting::TfIdf);
        let (vectorized, ingest_s) = t.time("peerd.ingest", |_| {
            for _ in 1..INGEST_REPEATS {
                std::hint::black_box(vectorize());
            }
            vectorize()
        });
        pass.ingest_docs = inputs.corpus.len() * INGEST_REPEATS;
        pass.ingest_s = ingest_s;
        let mut chunks: Vec<Vec<MultiLabelDataset>> = vec![Vec::new(); PEERS];
        for (peer, docs) in inputs.corpus.documents_by_user().iter().enumerate() {
            let train: Vec<DocumentId> = docs
                .iter()
                .copied()
                .filter(|d| inputs.split.train.binary_search(d).is_ok())
                .collect();
            let n = train.len();
            chunks[peer] = (0..ROUNDS)
                .map(|r| vectorized.dataset_of(&train[r * n / ROUNDS..(r + 1) * n / ROUNDS]))
                .collect();
        }

        let (cores, holds) = fleet_cores(&config);
        let harness = LoopbackHarness::start(cores).expect("loopback fleet starts");
        let mut predictions = Vec::new();
        let mut truths = Vec::new();
        // A failed round or predict ends the pass, which keeps a broken fleet
        // from running the clock out on timeouts.
        'rounds: for round in 0..ROUNDS {
            let (converged, secs) = t.time("peerd.train", |_| {
                for (peer, chunk) in chunks.iter().enumerate() {
                    pass.train_docs += chunk[round].len();
                    let _ = harness.train(PeerId(peer as u64), &chunk[round]);
                }
                converge(&harness, &holds, round as u64 + 1)
            });
            pass.attempted += 1;
            pass.learn_s += secs;
            if !converged {
                pass.failed += 1;
                unconverged += 1;
                break;
            }
            for i in 0..predicts_per_round {
                let probes = &inputs.split.test;
                let doc = probes[(round * predicts_per_round + i) % probes.len()];
                let peer = PeerId((i % PEERS) as u64);
                let x = vectorized.vector(doc);
                let (scores, secs) = t.time("peerd.predict", |_| {
                    harness.predict(peer, x, PREDICT_TIMEOUT)
                });
                pass.autotag_s += secs;
                pass.autotag_docs += 1;
                pass.attempted += 1;
                pass.requested += 1;
                pass.latency_ms.push(secs * 1e3);
                let predicted = match scores {
                    Ok(scores) => {
                        pass.served += 1;
                        select_tags_adaptive(
                            &scores,
                            config.vote_threshold,
                            config.rel_threshold,
                            config.min_tags,
                        )
                    }
                    Err(_) => {
                        pass.failed += 1;
                        break 'rounds;
                    }
                };
                predictions.push(predicted);
                truths.push(inputs.corpus.tag_ids_of(doc));
            }
        }
        for peer in 0..PEERS {
            if let Ok(s) = harness.snapshot(PeerId(peer as u64)) {
                pass.frames += s.frames_sent;
                pass.bytes += s.bytes_sent;
                add_link(&mut pass.link, &s.link);
            }
        }
        harness.shutdown();
        pass.converge_s = pass.learn_s / ROUNDS as f64;
        pass.macro_f1 = MultiLabelMetrics::evaluate(&predictions, &truths, &all_tags).macro_f1();
        pass.fingerprint = format!(
            "bytes={} frames={} macro_f1={} served={}/{} link={:?}",
            pass.bytes, pass.frames, pass.macro_f1, pass.served, pass.requested, pass.link
        );
        pass
    });

    let mut out = Outcome::default();
    out.meta("peers", PEERS);
    out.meta("fleet_peers", PEERS);
    out.meta("rounds_per_pass", ROUNDS);
    out.meta("documents", inputs.corpus.len());
    summarize(ctx, &passes, setup_s, &mut out);
    out.check(
        "every round reaches the expected installed set",
        unconverged == 0,
        format!(
            "{unconverged} of {} rounds did not converge",
            passes.len() * ROUNDS
        ),
    );
    out.check(
        "every predict returns scores within its timeout",
        passes.iter().all(|p| p.served == p.requested),
        format!(
            "{}/{} answered",
            passes.iter().map(|p| p.served).sum::<u64>(),
            passes.iter().map(|p| p.requested).sum::<u64>()
        ),
    );
    if ctx.trace {
        per_layer(ctx, &passes, &config, &mut out);
        replay::run(ctx, &inputs.corpus, &inputs.split, &mut out);
    }
    out
}

fn per_layer(ctx: &mut Ctx, passes: &[Pass], config: &CemparConfig, out: &mut Outcome) {
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let med = |f: &dyn Fn(&Pass) -> f64| median(&traced.iter().map(|p| f(p)).collect::<Vec<_>>());
    out.set("peerd.train_s", med(&|p| p.learn_s));
    out.set("peerd.predict_s", med(&|p| p.autotag_s));
    // The fleet does not go through the doctagger facade.
    for name in ["ingest_s", "learn_s", "refine_s", "autotag_s", "other_s"] {
        out.set(&format!("doctagger.{name}"), 0.0);
    }
    let last = passes.last().expect("at least one pass");
    out.set("peerd.bytes_sent", last.bytes as f64);
    out.set("peerd.retransmits", last.link.retransmits as f64);
    out.set("peerd.frames_sent", last.frames as f64);

    // Command round trip on an idle fleet: reactor wake-up plus the command
    // channel, no protocol work.
    let (cores, _) = fleet_cores(config);
    let harness = LoopbackHarness::start(cores).expect("loopback fleet starts");
    let mut rtt = Vec::with_capacity(RTT_PROBES);
    for i in 0..RTT_PROBES {
        let (_, secs) = ctx.tracer.time("peerd.snapshot", |_| {
            harness.snapshot(PeerId((i % PEERS) as u64))
        });
        rtt.push(secs * 1e3);
    }
    harness.shutdown();
    out.set("peerd.command_rtt_p50_ms", median(&rtt));
    out.meta("command_rtt_samples", rtt.len());
}

fn add_link(total: &mut LinkStats, s: &LinkStats) {
    total.sends += s.sends;
    total.delivered += s.delivered;
    total.lost_sends += s.lost_sends;
    total.offline_drops += s.offline_drops;
    total.retransmits += s.retransmits;
    total.recovered += s.recovered;
    total.corrupted_rx += s.corrupted_rx;
    total.gave_up += s.gave_up;
    total.resyncs += s.resyncs;
    total.backoff_ms += s.backoff_ms;
}
