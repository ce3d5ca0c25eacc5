//! Read-tier throughput: measured wall-clock retrieve rate of the server's
//! one dispatch path.
//!
//! Drives `CLIENTS` in-process clients against the server loop. Each round
//! lands one retrieve per client before a single `poll_once`, so every
//! pass offers the read tier `CLIENTS` requests to run inline under one
//! shared guard. The mix is mostly point lookups with one wildcard scan in
//! eight. Every reply is checked.
//!
//! The headline is wall-clock queries/sec of the whole loop (decode,
//! classify, read tier, encode, send, client receive), the median of
//! `TRIALS` runs on a freshly built server each, reported with the host's
//! core count. Per-request handler time comes from the server's
//! `server.latency.read` obs histogram of the median run.

use std::sync::Arc;

use moira_bench::{write_json, Table};
use moira_core::registry::Registry;
use moira_core::server::MoiraServer;
use moira_core::state::shared;
use moira_protocol::transport::{pair, recv_blocking, Channel, InProcChannel};
use moira_protocol::wire::{MajorRequest, Reply, Request};
use moira_sim::{populate, PopulationSpec};

const CLIENTS: usize = 8;
const ROUNDS: usize = 120;
const TRIALS: usize = 5;

/// Builds a populated server with `CLIENTS` authenticated connections.
fn build() -> (MoiraServer, Vec<InProcChannel>, Vec<String>) {
    let registry = Arc::new(Registry::standard());
    let mut state = moira_core::state::MoiraState::new(moira_common::VClock::new());
    moira_core::seed::seed_capacls(&mut state, &registry);
    let report = populate(&mut state, &registry, &PopulationSpec::small()).expect("population");
    let logins = report.active_logins.clone();
    let mut server = MoiraServer::new(shared(state), registry, None);
    let mut clients = Vec::with_capacity(CLIENTS);
    for _ in 0..CLIENTS {
        let (client, server_end) = pair();
        server.attach(Box::new(server_end), "local", 0);
        clients.push(client);
    }
    for c in clients.iter_mut() {
        c.send(Request::new(MajorRequest::Auth, &["root", "read-bench"]).encode())
            .unwrap();
    }
    server.run_until_idle(2);
    for c in clients.iter_mut() {
        let r = Reply::decode(recv_blocking(c, 1_000_000).expect("auth reply")).unwrap();
        assert_eq!(r.code, 0);
    }
    (server, clients, logins)
}

/// The retrieve mix: mostly point lookups, some wildcard scans.
fn request_for(logins: &[String], round: usize, client: usize) -> Request {
    let n = round * CLIENTS + client;
    if n % 8 == 7 {
        Request::new(MajorRequest::Query, &["get_machine", "*"])
    } else {
        let login = &logins[n % logins.len()];
        Request::new(MajorRequest::Query, &["get_user_by_login", login])
    }
}

/// One trial: wall-clock qps of the request loop (build excluded) and the
/// read-tier handler time p50/p99 in nanoseconds.
fn run_trial() -> (f64, u64, u64) {
    let (mut server, mut clients, logins) = build();
    let t0 = std::time::Instant::now();
    for round in 0..ROUNDS {
        for (i, c) in clients.iter_mut().enumerate() {
            c.send(request_for(&logins, round, i).encode()).unwrap();
        }
        server.poll_once();
        for c in clients.iter_mut() {
            loop {
                let r = Reply::decode(recv_blocking(c, 1_000_000).expect("reply")).unwrap();
                assert!(r.code == 0 || r.is_more_data(), "query failed: {}", r.code);
                if !r.is_more_data() {
                    break;
                }
            }
        }
    }
    let qps = (ROUNDS * CLIENTS) as f64 / t0.elapsed().as_secs_f64();
    let snap = server.obs().snapshot();
    assert_eq!(
        snap.counter("server.reads_dispatched"),
        (ROUNDS * CLIENTS) as u64,
        "every retrieve ran on the read tier"
    );
    let read = snap
        .histogram("server.latency.read")
        .expect("read latency recorded");
    (qps, read.p50(), read.p99())
}

fn main() {
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!(
        "read-tier throughput: {CLIENTS} clients x {ROUNDS} rounds x {TRIALS} trials, \
         host_cores={host_cores}"
    );

    let mut trials: Vec<(f64, u64, u64)> = (0..TRIALS).map(|_| run_trial()).collect();
    trials.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (median_qps, p50_ns, p99_ns) = trials[TRIALS / 2];

    let mut table = Table::new(&["Trial qps (sorted)"]);
    for (qps, _, _) in &trials {
        table.row(&[format!("{qps:.0}")]);
    }
    table.print("Read-tier aggregate retrieve throughput (measured)");
    println!(
        "\nmedian {median_qps:.0} qps on {host_cores} core(s); read handler p50 {:.1} us, \
         p99 {:.1} us (server.latency.read, median trial)",
        p50_ns as f64 / 1e3,
        p99_ns as f64 / 1e3
    );

    // The connection-tier numbers `conn_churn` merges into this file under
    // "reactor" are carried over untouched.
    let path = std::path::Path::new("results/read_throughput.json");
    let reactor = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| serde_json::from_str(&text).ok())
        .and_then(|doc: serde_json::Value| doc.get("reactor").cloned());
    let mut doc = serde_json::json!({
        "host_cores": host_cores,
        "clients": CLIENTS,
        "rounds": ROUNDS,
        "requests_per_trial": CLIENTS * ROUNDS,
        "methodology": "wall-clock queries/sec of the real poll loop (in-process clients, one retrieve per client per pass, 1 in 8 a wildcard scan), median of the trials; each trial builds a fresh server; handler times from the server.latency.read obs histogram of the median trial",
        "measured": {
            "median_qps": median_qps,
            "trial_qps": trials.iter().map(|t| t.0).collect::<Vec<_>>(),
            "read_handler_p50_ns": p50_ns,
            "read_handler_p99_ns": p99_ns,
        },
    });
    if let (Some(reactor), Some(map)) = (reactor, doc.as_object_mut()) {
        map.insert("reactor".into(), reactor);
    }
    write_json("read_throughput", &doc);
}
