//! Regression test for the 16 MiB estimate-reply cap.
//!
//! Before chunked continuation frames, a domain whose estimate vector
//! exceeded [`MAX_PAYLOAD_LEN`] drew a typed refusal from the server —
//! queries against multi-million-item domains simply failed. Now the
//! reply arrives as contiguous `EstimatesPart` chunks (and snapshots as
//! contiguous `Snapshot` chunks) that the client reassembles, with each
//! chunk individually under the cap. This test runs a GRR domain *just*
//! over the cap (the smallest m whose `Estimates` payload of `12 + 8m`
//! bytes exceeds 16 MiB) end to end through a real server and verifies the reassembled vectors are
//! bit-identical to a local computation over the same counts.

use idldp_core::budget::Epsilon;
use idldp_core::grr::GeneralizedRandomizedResponse;
use idldp_core::mechanism::Mechanism;
use idldp_core::report::ReportData;
use idldp_core::snapshot::AccumulatorSnapshot;
use idldp_server::{ReportClient, ReportServer, ServerConfig, MAX_PAYLOAD_LEN};
use std::sync::Arc;

#[test]
fn over_cap_estimate_and_snapshot_replies_reassemble_bit_identically() {
    // Smallest m with 12 + 8m > MAX_PAYLOAD_LEN.
    let m = (MAX_PAYLOAD_LEN - 12) / 8 + 1;
    assert!(
        12 + 8 * m > MAX_PAYLOAD_LEN,
        "domain must overflow one frame"
    );

    let mechanism: Arc<dyn Mechanism> =
        Arc::new(GeneralizedRandomizedResponse::new(Epsilon::new(1.0).unwrap(), m).unwrap());

    // A handful of cheap Value reports: the *reply* is what's huge here,
    // not the ingest. Known values make the expected counts exact.
    let values = [0usize, 1, 1, m / 2, m - 1, m - 1, m - 1];
    let reports: Vec<ReportData> = values.iter().map(|&v| ReportData::Value(v)).collect();
    let mut expected_counts = vec![0u64; m];
    for &v in &values {
        expected_counts[v] += 1;
    }
    let users = values.len() as u64;
    let expected_snapshot = AccumulatorSnapshot::new(expected_counts.clone(), users).unwrap();
    let expected_estimates = mechanism
        .frequency_oracle(users)
        .estimate_from(&expected_snapshot)
        .unwrap();

    let server = ReportServer::start(Arc::clone(&mechanism), ServerConfig::default()).unwrap();
    let (mut client, resumed) =
        ReportClient::connect(server.local_addr(), mechanism.as_ref()).unwrap();
    assert_eq!(resumed, 0);
    client.push_all(&reports).unwrap();

    // Estimates: over the cap, so the reply is chunked and reassembled
    // transparently — and still bit-identical to the local oracle.
    let (got_users, got_estimates) = client.query_estimates().unwrap();
    assert_eq!(got_users, users);
    assert_eq!(got_estimates.len(), m);
    for (i, (a, b)) in got_estimates.iter().zip(&expected_estimates).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "estimate {i}");
    }

    // Raw counts: also chunked (m > CHUNK_ELEMS), exact integers.
    let (snap_users, counts) = client.query_snapshot().unwrap();
    assert_eq!(snap_users, users);
    assert_eq!(counts, expected_counts);

    // Top-k over the same huge domain stays a single small frame.
    let (_, top) = client.query_top_k(2).unwrap();
    let top_items: Vec<u64> = top.iter().map(|&(item, _)| item).collect();
    assert_eq!(top_items, vec![(m - 1) as u64, 1]);

    drop(client);
    server.shutdown();
}
