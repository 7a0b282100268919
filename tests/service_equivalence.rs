//! Service-equivalence suite: the gk-serve dynamic batcher must be an
//! *exactly* transparent wrapper over the direct filter paths.
//!
//! Whatever the batcher does — coalescing requests from different clients
//! into one backend invocation, splitting large requests into segments,
//! interleaving tenants under the deficit-weighted fair queue — the decisions
//! handed back for a request must be FNV-digest-identical to calling the
//! backend (or the streaming GPU pipeline) directly on that request's pairs.
//!
//! Four angles:
//!   * every filter kind, through a real TCP server, against the direct
//!     backend invocation;
//!   * a coalescing server vs a solo (coalesce-off) server on the same
//!     workload;
//!   * concurrent multi-tenant submission with unequal weights, where
//!     coalescing across tenants is guaranteed by a paused executor;
//!   * GateKeeper through the service vs `GateKeeperGpu::filter_stream_with`.

use gatekeeper_gpu::core::backend::{CpuSimdBackend, FilterBackend, FilterJob, FilterKind};
use gatekeeper_gpu::core::{FilterConfig, GateKeeperGpu};
use gatekeeper_gpu::filters::traits::decision_digest;
use gatekeeper_gpu::seq::datasets::DatasetProfile;
use gatekeeper_gpu::serve::batcher::BatcherConfig;
use gatekeeper_gpu::serve::client::{GkClient, Reply};
use gatekeeper_gpu::serve::server::GkServer;
use std::sync::Arc;
use std::time::Duration;

const DEADLINE: Duration = Duration::from_millis(100);

fn decisions(reply: Reply) -> Vec<gatekeeper_gpu::filters::traits::FilterDecision> {
    match reply {
        Reply::Decisions(decisions) => decisions,
        other => panic!("expected decisions, got {other:?}"),
    }
}

#[test]
fn every_filter_kind_matches_direct_backend_through_the_socket() {
    let backend = Arc::new(CpuSimdBackend::new(1));
    let server =
        GkServer::start("127.0.0.1:0", backend.clone(), BatcherConfig::default()).expect("bind");
    let client = GkClient::connect(server.local_addr()).expect("connect");
    for kind in FilterKind::ALL {
        for threshold in [0u32, 2, 5] {
            let pairs = DatasetProfile::set3()
                .generate(300, 7 * threshold as u64 + kind.code() as u64)
                .pairs;
            let direct = backend.run(&FilterJob::new(kind, threshold, &pairs));
            let served = decisions(
                client
                    .filter(kind, threshold, DEADLINE, pairs)
                    .expect("reply"),
            );
            assert_eq!(
                decision_digest(&served),
                decision_digest(&direct),
                "digest mismatch for {kind} e={threshold}"
            );
        }
    }
    server.shutdown();
}

#[test]
fn coalesced_and_solo_servers_agree_request_by_request() {
    let coalesced = GkServer::start(
        "127.0.0.1:0",
        Arc::new(CpuSimdBackend::new(1)),
        BatcherConfig::default().with_coalesce(true),
    )
    .expect("bind");
    let solo = GkServer::start(
        "127.0.0.1:0",
        Arc::new(CpuSimdBackend::new(1)),
        BatcherConfig::default().with_coalesce(false),
    )
    .expect("bind");

    for addr_pair in [(coalesced.local_addr(), solo.local_addr())] {
        let (coalesced_addr, solo_addr) = addr_pair;
        // 6 concurrent clients per server so the coalescing one actually
        // builds multi-segment batches.
        let handles: Vec<_> = (0..6u64)
            .map(|seed| {
                std::thread::spawn(move || {
                    let a = GkClient::connect(coalesced_addr).expect("connect");
                    let b = GkClient::connect(solo_addr).expect("connect");
                    for round in 0..4u64 {
                        let pairs = DatasetProfile::set3()
                            .generate(150, seed * 31 + round)
                            .pairs;
                        let via_coalesced = decisions(
                            a.filter(FilterKind::GateKeeper, 3, DEADLINE, pairs.clone())
                                .expect("reply"),
                        );
                        let via_solo = decisions(
                            b.filter(FilterKind::GateKeeper, 3, DEADLINE, pairs)
                                .expect("reply"),
                        );
                        assert_eq!(decision_digest(&via_coalesced), decision_digest(&via_solo));
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("client thread");
        }
    }
    let stats = coalesced.stats();
    assert!(stats.batches >= 1);
    coalesced.shutdown();
    solo.shutdown();
}

#[test]
fn concurrent_multi_tenant_submission_keeps_every_answer_intact() {
    let backend = Arc::new(CpuSimdBackend::new(1));
    // Unequal weights and a tiny quantum force the fair queue to interleave
    // tenants' segments inside shared batches.
    let config = BatcherConfig::default()
        .with_quantum_pairs(64)
        .with_max_batch_pairs(1024)
        .with_tenant_weight(0, 1)
        .with_tenant_weight(1, 3)
        .with_tenant_weight(2, 7);
    let server = GkServer::start("127.0.0.1:0", backend.clone(), config).expect("bind");
    let addr = server.local_addr();
    let handles: Vec<_> = (0..3u32)
        .map(|tenant| {
            let backend = backend.clone();
            std::thread::spawn(move || {
                let client = GkClient::connect_as(addr, tenant).expect("connect");
                for round in 0..5u64 {
                    let pairs = DatasetProfile::set3()
                        .generate(200, tenant as u64 * 97 + round)
                        .pairs;
                    let direct = backend.run(&FilterJob::new(FilterKind::SneakySnake, 4, &pairs));
                    let served = decisions(
                        client
                            .filter(FilterKind::SneakySnake, 4, DEADLINE, pairs)
                            .expect("reply"),
                    );
                    assert_eq!(decision_digest(&served), decision_digest(&direct));
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("tenant thread");
    }
    assert_eq!(server.stats().admitted, 15);
    server.shutdown();
}

#[test]
fn service_gatekeeper_matches_the_streaming_pipeline() {
    let server = GkServer::start(
        "127.0.0.1:0",
        Arc::new(CpuSimdBackend::new(1)),
        BatcherConfig::default(),
    )
    .expect("bind");
    let client = GkClient::connect(server.local_addr()).expect("connect");

    let pairs = DatasetProfile::set3().generate(900, 42).pairs;
    let read_len = pairs[0].read.len();

    // Reference: the whole-genome streaming entry point, fed the same pairs
    // in arbitrary batch sizes.
    let gpu = GateKeeperGpu::with_default_device(FilterConfig::new(read_len, 3));
    let mut streamed = Vec::new();
    gpu.filter_stream_with(
        pairs.chunks(250).map(|chunk| chunk.to_vec()),
        |_, chunk_decisions| streamed.extend_from_slice(chunk_decisions),
    );

    let served = decisions(
        client
            .filter(FilterKind::GateKeeper, 3, DEADLINE, pairs)
            .expect("reply"),
    );
    assert_eq!(served.len(), streamed.len());
    assert_eq!(decision_digest(&served), decision_digest(&streamed));
    server.shutdown();
}
