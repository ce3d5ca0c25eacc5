//! Concurrency tests for the read/write tier split.
//!
//! The read tier's contract: any number of concurrent retrieves under
//! shared guards return exactly what the same retrieves would return run
//! serially — byte for byte — and a slow scan on one connection does not
//! delay a point lookup on another beyond the poll pass they share.

use std::sync::Arc;

use moira_core::queries::testutil::{add_test_machine, add_test_user, state_with_admin};
use moira_core::registry::Registry;
use moira_core::seed::seed_capacls;
use moira_core::server::MoiraServer;
use moira_core::state::{shared, Caller, MoiraState, SharedState};
use proptest::prelude::*;

/// A seeded state with enough rows for wildcard scans to do real work.
fn populated() -> (SharedState, Arc<Registry>) {
    let (mut s, _) = state_with_admin("ops");
    for i in 0..40 {
        add_test_machine(&mut s, &format!("VS{i:03}"));
        add_test_user(&mut s, &format!("reader{i:02}"), 2000 + i);
    }
    (shared(s), Arc::new(Registry::standard()))
}

/// The pool of retrieve-class requests the property test draws from.
/// Each is (query, args) — all registered as `Handler::Read`.
const READS: &[(&str, &[&str])] = &[
    ("get_machine", &["*"]),
    ("get_machine", &["VS0*"]),
    ("get_machine", &["VS01?"]),
    ("get_user_by_login", &["reader*"]),
    ("get_user_by_login", &["reader07"]),
    ("get_all_logins", &["*"]),
    ("get_list_info", &["*"]),
    ("get_server_info", &["*"]),
    ("_list_queries", &[]),
];

/// Runs one request against a shared guard, capturing the full result
/// (rows or error code) as comparable bytes.
fn run_read(registry: &Registry, state: &MoiraState, caller: &Caller, idx: usize) -> String {
    let (name, args) = READS[idx];
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    match registry.execute_read(state, caller, name, &args) {
        Ok(rows) => format!("ok:{rows:?}"),
        Err(e) => format!("err:{}", e.code()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Any interleaving of concurrent reads is byte-identical to serial
    /// execution: the workload is split across threads that all hold
    /// shared guards at once, and every per-request result must match the
    /// single-threaded reference run against the same seed state.
    #[test]
    fn concurrent_reads_equal_serial(
        picks in prop::collection::vec(0usize..9, 1..24),
        threads in 2usize..5,
    ) {
        let (state, registry) = populated();
        let caller = Caller::root("prop");

        // Reference: serial execution under one shared guard.
        let serial: Vec<String> = {
            let guard = state.read();
            picks
                .iter()
                .map(|&i| run_read(&registry, &guard, &caller, i))
                .collect()
        };

        // Concurrent: the same requests round-robined over worker threads,
        // each thread holding its own shared guard for its whole slice.
        let mut concurrent: Vec<(usize, String)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    let state = state.clone();
                    let registry = registry.clone();
                    let caller = caller.clone();
                    let slice: Vec<(usize, usize)> = picks
                        .iter()
                        .enumerate()
                        .skip(w)
                        .step_by(threads)
                        .map(|(slot, &q)| (slot, q))
                        .collect();
                    scope.spawn(move || {
                        let guard = state.read();
                        slice
                            .into_iter()
                            .map(|(slot, q)| (slot, run_read(&registry, &guard, &caller, q)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("reader thread"))
                .collect()
        });
        concurrent.sort_by_key(|(slot, _)| *slot);

        prop_assert_eq!(concurrent.len(), serial.len());
        for (slot, result) in concurrent {
            prop_assert_eq!(&result, &serial[slot], "request {} diverged", slot);
        }
    }
}

/// The obs counters are exact: with retrieves on the read tier interleaved
/// with write batches and an overload burst that sheds,
/// `server.reads_dispatched`, `server.writes_dispatched`, and
/// `server.shed_requests` in the registry equal the server's own ledgers to
/// the unit — no lost updates.
#[test]
fn obs_counters_exact_under_worker_pool() {
    use moira_protocol::transport::{pair, recv_blocking, Channel};
    use moira_protocol::wire::{MajorRequest, Reply, Request};

    let registry = Arc::new(Registry::standard());
    let (mut s, _) = state_with_admin("ops");
    seed_capacls(&mut s, &registry);
    for i in 0..20 {
        add_test_machine(&mut s, &format!("VS{i:03}"));
    }
    let state = shared(s);
    let mut server = MoiraServer::new(state, registry, None);

    let mut clients = Vec::new();
    for _ in 0..6 {
        let (client, end) = pair();
        server.attach(Box::new(end), "local", 0);
        clients.push(client);
    }
    for c in &mut clients {
        c.send(Request::new(MajorRequest::Auth, &["ops", "test"]).encode())
            .unwrap();
    }
    server.run_until_idle(2);
    for c in &mut clients {
        let r = Reply::decode(recv_blocking(c, 100).unwrap()).unwrap();
        assert_eq!(r.code, 0);
    }

    // Interleaved rounds: even clients scan on the read tier while odd
    // clients append machines on the serial tier, all within one pass.
    for round in 0..5 {
        for (i, c) in clients.iter_mut().enumerate() {
            let req = if i % 2 == 0 {
                Request::new(MajorRequest::Query, &["get_machine", "VS*"])
            } else {
                let name = format!("NEW{round}X{i}");
                Request::new(MajorRequest::Query, &["add_machine", &name, "VAX"])
            };
            c.send(req.encode()).unwrap();
        }
        server.run_until_idle(2);
        for c in &mut clients {
            loop {
                let r = Reply::decode(recv_blocking(c, 100).unwrap()).unwrap();
                if !r.is_more_data() {
                    break;
                }
            }
        }
    }

    // Overload burst: with a limit of 2, a 6-request pass sheds 4.
    server.set_overload_limit(Some(2));
    for c in &mut clients {
        c.send(Request::new(MajorRequest::Query, &["get_machine", "VS001"]).encode())
            .unwrap();
    }
    server.run_until_idle(2);
    for c in &mut clients {
        loop {
            let r = Reply::decode(recv_blocking(c, 100).unwrap()).unwrap();
            if !r.is_more_data() {
                break;
            }
        }
    }

    let (reads, writes) = server.dispatch_counts();
    let sheds = server.shed_requests();
    assert!(reads > 0 && writes > 0, "both tiers exercised");
    assert!(sheds > 0, "the overload burst shed something");

    let snap = server.obs().snapshot();
    assert_eq!(snap.counter("server.reads_dispatched"), reads);
    assert_eq!(snap.counter("server.writes_dispatched"), writes);
    assert_eq!(snap.counter("server.shed_requests"), sheds);
    // The latency histograms saw every dispatched request too.
    assert_eq!(
        snap.histogram("server.latency.read").map_or(0, |h| h.count),
        reads
    );
    assert_eq!(
        snap.histogram("server.latency.write")
            .map_or(0, |h| h.count),
        writes
    );
}

/// A long wildcard scan on one connection must not delay a point lookup on
/// another beyond the poll pass they share: both replies are ready after a
/// single `poll_once`, and both ran on the shared tier.
#[test]
fn slow_scan_does_not_delay_point_query() {
    use moira_protocol::transport::{pair, recv_blocking, Channel};
    use moira_protocol::wire::{MajorRequest, Reply, Request};

    let registry = Arc::new(Registry::standard());
    let (mut s, _) = state_with_admin("ops");
    seed_capacls(&mut s, &registry);
    for i in 0..300 {
        add_test_machine(&mut s, &format!("FARM{i:04}"));
    }
    add_test_user(&mut s, "pointy", 9001);
    let state = shared(s);
    let mut server = MoiraServer::new(state, registry, None);

    let (mut scanner, scan_end) = pair();
    let (mut pointer, point_end) = pair();
    server.attach(Box::new(scan_end), "local", 0);
    server.attach(Box::new(point_end), "local", 0);

    // Authenticate both (separate pass; Auth is write-tier).
    for c in [&mut scanner, &mut pointer] {
        c.send(Request::new(MajorRequest::Auth, &["ops", "test"]).encode())
            .unwrap();
    }
    server.run_until_idle(2);
    for c in [&mut scanner, &mut pointer] {
        let r = Reply::decode(recv_blocking(c, 100).unwrap()).unwrap();
        assert_eq!(r.code, 0);
    }
    let before = server.dispatch_counts();

    // Both requests land before the next pass: a 300-row Like scan and a
    // point lookup.
    scanner
        .send(Request::new(MajorRequest::Query, &["get_machine", "FARM*"]).encode())
        .unwrap();
    pointer
        .send(Request::new(MajorRequest::Query, &["get_user_by_login", "pointy"]).encode())
        .unwrap();
    let processed = server.poll_once();
    assert_eq!(processed, 2);

    // The point query's reply is available NOW — one pass, no waiting for
    // the scan to finish on some serial queue.
    let tuple = Reply::decode(recv_blocking(&mut pointer, 100).unwrap()).unwrap();
    assert!(tuple.is_more_data());
    assert_eq!(tuple.string_fields().unwrap()[0], "pointy");
    let done = Reply::decode(recv_blocking(&mut pointer, 100).unwrap()).unwrap();
    assert_eq!(done.code, 0);

    // The scan also completed in the same pass, with all 300 tuples.
    let mut scan_replies = Vec::new();
    loop {
        let r = Reply::decode(recv_blocking(&mut scanner, 100).unwrap()).unwrap();
        let done = !r.is_more_data();
        scan_replies.push(r);
        if done {
            break;
        }
    }
    assert_eq!(scan_replies.len(), 301);

    // Both ran on the shared tier.
    let after = server.dispatch_counts();
    assert_eq!((after.0 - before.0, after.1 - before.1), (2, 0));
}
