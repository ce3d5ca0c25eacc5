//! perfbench: the seeded end-to-end benchmark of the Moira reproduction.
//!
//! ```text
//! perfbench --workload <campus_reads|admin_writes|dcm_propagation>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every reply is checked against a model built from the seed; the last
//! line of standard output is the JSON result. See `README.md` for the
//! workloads, the metrics and what each per-layer metric should move.

mod admin;
mod campus;
mod load;
mod propagation;
mod report;
mod seams;
mod setup;
mod stats;
mod trace;
mod wire;

use std::sync::Arc;
use std::time::{Duration, Instant};

use moira_core::registry::Registry;
use moira_core::state::{shared, Caller, MoiraState, SharedState};
use moira_db::journal::Journal;
use moira_db::storage::{DiskMedia, GroupCommitConfig, Media, NullStorage, Storage};
use parking_lot::Mutex;

use load::{Class, LoadPlan, LoadResult, Session};
use report::Report;
use seams::{SharedStorageStats, TimedMedia, TimedStorage};
use stats::Samples;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Load connections (this host's two cores each get one load thread).
const CONNECTIONS: usize = 2;
const WARMUP: Duration = Duration::from_millis(500);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// The small population, for the benchmark's own tests.
    small: bool,
    /// Corrupts one expectation of the model, for the benchmark's own tests.
    corrupt: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        small: false,
        corrupt: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--small" => args.small = true,
            "--corrupt" => args.corrupt = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        "campus_reads" => campus_reads(&args),
        "admin_writes" => admin_writes(&args),
        "dcm_propagation" => dcm_propagation(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    std::process::exit(report.finish(args.trace));
}

/// Runs `build` once (traced) or [`SETUP_REPEATS`] times, dropping every
/// environment but the last; returns it with the median set-up seconds.
fn timed_setup<T>(args: &Args, mut build: impl FnMut(usize) -> T) -> (T, f64) {
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut times = Samples::default();
    let mut env = None;
    for rep in 0..repeats {
        drop(env.take());
        let t = Instant::now();
        env = Some(build(rep));
        times.push(t.elapsed().as_secs_f64());
    }
    (env.expect("at least one set-up"), times.p50())
}

/// A traced run measures half its time untraced, half traced.
fn load_plan(args: &Args) -> LoadPlan {
    let total = Duration::from_secs_f64(args.seconds);
    let traced = args.trace.then_some(total / 2);
    LoadPlan {
        warmup: WARMUP,
        plain: traced.unwrap_or(total),
        traced,
    }
}

/// Prints the latency metrics of one request class.
fn print_class(r: &mut Report, name: &str, s: &mut Samples, phase: &str) {
    let n = s.len();
    let p99_note = if n >= 1000 {
        format!("n={n}{phase}")
    } else {
        format!("n={n}{phase}, fewer than 1000 samples")
    };
    let spread = format!(
        "n={n}{phase}; p10 {:.1} p25 {:.1} p75 {:.1} p90 {:.1}",
        s.quantile(0.1),
        s.quantile(0.25),
        s.quantile(0.75),
        s.quantile(0.9)
    );
    r.print_metric(&format!("{name}_p50_us"), s.p50(), "us", spread);
    r.print_metric(&format!("{name}_p99_us"), s.quantile(0.99), "us", p99_note);
}

/// End-to-end figures shared by both TCP workloads, plus the traced
/// phase's copies and the tracing overhead.
fn tcp_results(r: &mut Report, res: &mut LoadResult, classes: &[(Class, &str)], headline: Class) {
    for &(class, name) in classes {
        print_class(r, name, &mut res.plain.rtt_us[class.index()], "");
    }
    r.print_metric(
        "requests_per_s",
        res.plain.requests_per_s(),
        "1/s",
        format!(
            "completed, closed loop; median over 1 s windows {:.1}",
            res.plain.windowed_rate()
        ),
    );
    let mut windows = res.plain.window_p50s(headline);
    r.fact(
        "window p50s (us)",
        windows
            .values()
            .iter()
            .map(|v| format!("{v:.0}"))
            .collect::<Vec<_>>()
            .join(" "),
    );
    r.e2e.insert("latency_p50_us", windows.p50());
    if let Some(traced) = res.traced.as_mut() {
        for &(class, name) in classes {
            print_class(
                r,
                &format!("traced.{name}"),
                &mut traced.rtt_us[class.index()],
                ", traced half",
            );
        }
        r.print_metric(
            "traced.requests_per_s",
            traced.requests_per_s(),
            "1/s",
            "traced half",
        );
        let plain = res.plain.rtt_us[headline.index()].p50();
        let with = traced.rtt_us[headline.index()].p50();
        r.layer("trace.overhead_pct", (with / plain - 1.0) * 100.0);
    }
    r.attempted = res.attempted;
    r.failed = res.failed;
    r.mismatches = std::mem::take(&mut res.mismatches);
}

/// Layer metrics the two TCP workloads share.
fn tcp_layers(
    r: &mut Report,
    res: &LoadResult,
    obs: &moira_obs::Snapshot,
    cache: (u64, u64),
    shed: u64,
) {
    let l = &res.layers;
    r.layer("protocol.decode_us", l.decode_us.mean());
    r.layer(
        "protocol.encode_us_per_frame",
        l.encode_ns as f64 / l.frames.max(1) as f64 / 1e3,
    );
    let mut checks = Samples::default();
    for c in &l.check_us {
        checks.extend(c);
    }
    r.layer("access.check_us", checks.mean());
    let (hits, misses) = cache;
    r.layer(
        "access.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    let handler = |c: Class| l.execute_us[c.index()].mean() - l.check_us[c.index()].mean();
    if l.execute_us[Class::Point.index()].len() > 0 {
        r.layer("handler.read_point_us", handler(Class::Point));
    }
    if l.execute_us[Class::Scan.index()].len() > 0 {
        r.layer("handler.read_scan_us", handler(Class::Scan));
    }
    if l.execute_us[Class::Write.index()].len() > 0 {
        r.layer("handler.write_us", handler(Class::Write));
    }
    let examined = obs
        .histogram("db.select.rows_examined")
        .map_or(0, |h| h.sum);
    r.layer(
        "db.rows_examined_per_row",
        examined as f64 / (res.tuples + res.replay_tuples).max(1) as f64,
    );
    let plans: u64 = ["point", "intersect", "range", "scan"]
        .iter()
        .map(|p| obs.counter(&format!("db.plan.{p}")))
        .sum();
    r.layer(
        "db.plan.scan_share",
        obs.counter("db.plan.scan") as f64 / plans.max(1) as f64,
    );
    if let Some(h) = obs.histogram("server.latency.readiness_to_dispatch") {
        r.layer("server.ready_to_dispatch_p50_us", h.p50() as f64 / 1e3);
        r.layer("server.ready_to_dispatch_p99_us", h.p99() as f64 / 1e3);
    }
    r.layer(
        "server.residual_us",
        l.rtt_us.mean() - l.layer_sum_us.mean(),
    );
    r.layer(
        "server.shed_ratio",
        shed as f64 / res.attempted.max(1) as f64,
    );
}

fn write_spans(r: &mut Report, workload: &str, seed: u64, spans: &[trace::Span]) {
    let path = setup::work_dir().join(format!("spans-{workload}-{seed}.tsv"));
    match trace::write_tsv(&path, spans) {
        Ok(()) => r.fact(
            "spans",
            format!("{} written to {}", spans.len(), path.display()),
        ),
        Err(e) => r.fact("spans", format!("not written: {e}")),
    }
    for (name, (count, total, own)) in trace::self_times(spans) {
        r.fact(
            &format!("span {name}"),
            format!(
                "n={count} mean {:.2} us, self {:.2} us",
                total as f64 / count as f64 / 1e3,
                own as f64 / count as f64 / 1e3
            ),
        );
    }
}

fn access_counts(state: &SharedState) -> (u64, u64) {
    let s = state.read();
    (s.access_cache.hits(), s.access_cache.misses())
}

fn campus_reads(args: &Args) -> Report {
    let mut r = Report::new("campus_reads", args.seed);
    let registry = Arc::new(Registry::standard());
    let spec = setup::spec(args.seed, args.small);
    let ((state, logins, staff, admin, server), setup_s) = timed_setup(args, |_| {
        let mut st = MoiraState::new(moira_common::VClock::new());
        let (logins, admin) = setup::populate_with_admin(&mut st, &registry, &spec, args.seed);
        let staff = campus::add_course_lists(&mut st, &registry, &logins, args.seed);
        let state = shared(st);
        let server = wire::ServerThread::start(state.clone(), registry.clone());
        (state, logins, staff, admin, server)
    });
    let caller = Caller::new(&admin, "perfbench");
    let t = Instant::now();
    let oracle = {
        let st = state.read();
        Arc::new(campus::Oracle::build(
            &st,
            &registry,
            &caller,
            &logins,
            &staff,
            args.corrupt,
        ))
    };
    r.fact(
        "population",
        format!("{} active users, seed {}", logins.len(), spec.seed),
    );
    r.fact("shape", format!("closed loop, {CONNECTIONS} TCP connections, one load thread each, as {admin} (admin through {})", setup::OPS_LIST));
    r.fact(
        "mix",
        "7/8 point retrieves (skewed keys), 1/8 scans of 10..=2000 rows",
    );
    for (q, keys, lo, hi) in oracle.scan_shape() {
        r.fact(
            &format!("scan {q}"),
            format!("{keys} keys, {lo}..={hi} rows"),
        );
    }
    r.fact("oracle_s", format!("{:.3}", t.elapsed().as_secs_f64()));
    let order = Arc::new(campus::hot_order(args.seed, logins.len()));
    let sessions: Vec<Box<dyn Session>> = (0..CONNECTIONS)
        .map(|c| {
            Box::new(campus::CampusSession::new(
                args.seed,
                c,
                order.clone(),
                oracle.clone(),
                state.clone(),
                registry.clone(),
                caller.clone(),
            )) as Box<dyn Session>
        })
        .collect();
    let cache0 = access_counts(&state);
    let epoch = Instant::now();
    let mut res = load::drive(server.addr, &admin, sessions, &load_plan(args), epoch);
    let cache1 = access_counts(&state);
    let server = server.stop();
    tcp_results(
        &mut r,
        &mut res,
        &[(Class::Point, "point_read"), (Class::Scan, "scan_read")],
        Class::Point,
    );
    finish_common(&mut r, setup_s);
    if args.trace {
        let obs = server.obs().snapshot();
        tcp_layers(
            &mut r,
            &res,
            &obs,
            (cache1.0 - cache0.0, cache1.1 - cache0.1),
            server.shed_requests(),
        );
        write_spans(&mut r, "campus_reads", args.seed, &res.tracer.spans);
    }
    r
}

fn finish_common(r: &mut Report, setup_s: f64) {
    r.print_metric("setup_s", setup_s, "s", "median of the run's set-ups");
    let rss = setup::peak_rss_mb();
    r.print_metric("peak_rss_mb", rss, "MB", "VmHWM");
    r.e2e.insert("setup_s", setup_s);
    r.e2e.insert("peak_rss_mb", rss);
}

/// The population and lists both the durable server and (traced) the
/// replica start from.
fn admin_population(
    spec: &moira_sim::PopulationSpec,
    registry: &Registry,
    seed: u64,
    st: &mut MoiraState,
) -> (Vec<String>, String) {
    let (logins, admin) = setup::populate_with_admin(st, registry, spec, seed);
    for c in 0..CONNECTIONS {
        setup::add_list(st, registry, &admin::list_of(c), false, true);
    }
    (logins, admin)
}

fn admin_writes(args: &Args) -> Report {
    let mut r = Report::new("admin_writes", args.seed);
    let registry = Arc::new(Registry::standard());
    let spec = setup::spec(args.seed, args.small);
    let config = GroupCommitConfig {
        flush_interval_secs: 0,
        ..GroupCommitConfig::default()
    };
    let root = setup::work_dir().join(format!("admin-{}", std::process::id()));
    let seam_stats: SharedStorageStats = Default::default();
    let ((state, logins, admin, server, dir), setup_s) = timed_setup(args, |rep| {
        let dir = root.join(rep.to_string());
        let _ = std::fs::remove_dir_all(&dir);
        let disk = DiskMedia::open(&dir).expect("open the storage directory");
        let media: Box<dyn Media> = if args.trace {
            Box::new(TimedMedia {
                inner: disk,
                stats: seam_stats.clone(),
            })
        } else {
            Box::new(disk)
        };
        let (mut st, _) =
            moira_core::boot_durable(moira_common::VClock::new(), &registry, media, config)
                .expect("first durable boot");
        // Populate without logging every insert, then seal the result in
        // one snapshot with an empty journal: a server restored from last
        // night's backup, whose journal holds only the changes since.
        let mut engine = std::mem::replace(&mut st.storage, Box::new(NullStorage));
        let (logins, admin) = admin_population(&spec, &registry, args.seed, &mut st);
        st.journal = Journal::new();
        engine
            .snapshot(&st.db, &st.journal)
            .expect("seal the populated snapshot");
        st.storage = if args.trace {
            Box::new(TimedStorage {
                inner: engine,
                stats: seam_stats.clone(),
            }) as Box<dyn Storage>
        } else {
            engine
        };
        let state = shared(st);
        let server = wire::ServerThread::start(state.clone(), registry.clone());
        (state, logins, admin, server, dir)
    });
    *seam_stats.lock() = Default::default();
    let caller = Caller::new(&admin, "perfbench");
    let replica = args.trace.then(|| {
        let mut st = MoiraState::new(moira_common::VClock::new());
        admin_population(&spec, &registry, args.seed, &mut st);
        Arc::new(Mutex::new(st))
    });
    let mut owned: Vec<String> = logins.iter().filter(|l| **l != admin).cloned().collect();
    moira_common::rng::Mt::new(setup::mix(args.seed, 6)).shuffle(&mut owned);
    r.fact(
        "population",
        format!("{} active users, seed {}", logins.len(), spec.seed),
    );
    r.fact(
        "shape",
        format!("closed loop, {CONNECTIONS} TCP connections, one load thread each, as {admin}"),
    );
    r.fact(
        "mix",
        "3 mutations then 1 read of the last written row, per connection",
    );
    r.fact(
        "storage",
        format!(
            "DurableEngine on DiskMedia, flush_interval_secs 0 (fsync per write batch), snapshot_every {}, filesystem {} at {}",
            config.snapshot_every,
            setup::filesystem_of(&dir),
            dir.display()
        ),
    );
    let sessions: Vec<Box<dyn Session>> = (0..CONNECTIONS)
        .map(|c| {
            let users = owned.iter().skip(c).step_by(CONNECTIONS).cloned().collect();
            Box::new(admin::AdminSession::new(
                args.seed,
                c,
                users,
                args.corrupt,
                replica.clone(),
                registry.clone(),
                caller.clone(),
            )) as Box<dyn Session>
        })
        .collect();
    let cache0 = access_counts(&state);
    let epoch = Instant::now();
    let mut res = load::drive(server.addr, &admin, sessions, &load_plan(args), epoch);
    let cache1 = access_counts(&state);
    let server = server.stop();
    tcp_results(
        &mut r,
        &mut res,
        &[(Class::Write, "write"), (Class::Point, "point_read")],
        Class::Write,
    );
    finish_common(&mut r, setup_s);
    if args.trace {
        let obs = server.obs().snapshot();
        tcp_layers(
            &mut r,
            &res,
            &obs,
            (cache1.0 - cache0.0, cache1.1 - cache0.1),
            server.shed_requests(),
        );
        let s = seam_stats.lock();
        r.layer("wal.append_us", s.append_ns.mean() / 1e3);
        r.layer("wal.flush_us", s.flush_ns.mean() / 1e3);
        r.layer("media.fsync_us", s.fsync_ns.mean() / 1e3);
        let writes = res.completed[Class::Write.index()].max(1);
        r.layer(
            "media.bytes_per_write",
            s.media_bytes as f64 / writes as f64,
        );
        if let Some(h) = obs.histogram("db.wal.group_commit_size") {
            r.layer(
                "wal.group_commit_size",
                h.sum as f64 / h.count.max(1) as f64,
            );
        }
        r.layer("wal.snapshot_ms", s.snapshot_ns.mean() / 1e6);
        r.layer("wal.snapshots", s.snapshot_ns.len() as f64);
        r.layer("db.journal_entries", state.read().journal.len() as f64);
        drop(s);
        write_spans(&mut r, "admin_writes", args.seed, &res.tracer.spans);
    }
    drop(server);
    drop(state);
    let _ = std::fs::remove_dir_all(&root);
    r
}

fn dcm_propagation(args: &Args) -> Report {
    let mut r = Report::new("dcm_propagation", args.seed);
    let spec = setup::spec(args.seed, args.small);
    r.fact(
        "population",
        format!("{} active users, seed {}", spec.active_users, spec.seed),
    );
    r.fact(
        "shape",
        "closed loop, one thread: commit 1% user batch + membership edits, advance virtual time, run_dcm_once, probe Hesiod/mail hub/NFS",
    );
    // Unlike the TCP workloads, every set-up is measured, each for an equal
    // share of the run: cycle times shift between deployments by more than
    // they vary within one, so the median pools several deployments.
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let share = args.seconds / repeats as f64;
    let mut setups = Samples::default();
    let (mut attempted, mut failed_n, mut failed) = (0u64, 0u64, Vec::new());
    let mut plain = Samples::default();
    let mut traced = Samples::default();
    let mut layers = propagation::DcmLayers::default();
    let (mut changes, mut busy_s) = (0usize, 0.0f64);
    let mut counters = None;
    for _ in 0..repeats {
        let t = Instant::now();
        let mut p = propagation::Propagation::setup(&spec, args.seed, args.corrupt);
        setups.push(t.elapsed().as_secs_f64());
        if setups.len() == 1 {
            r.fact("hosts", p.dep.hosts.len());
        }
        // One unrecorded cycle, so every cache the first change fills is warm.
        let warm = p.cycle(None);
        attempted += warm.changes as u64;
        failed_n += warm.failed.len() as u64;
        failed.extend(warm.failed.into_iter().take(5));
        let traced_from = if args.trace {
            share / 2.0
        } else {
            f64::INFINITY
        };
        let (n_plain, n_traced) = (plain.len(), traced.len());
        let mut before = None;
        let start = Instant::now();
        // At least two cycles in each part, however short the run.
        while start.elapsed().as_secs_f64() < share
            || plain.len() < n_plain + 2
            || (args.trace && traced.len() < n_traced + 2)
        {
            let in_trace = start.elapsed().as_secs_f64() >= traced_from;
            if in_trace && before.is_none() {
                p.enable_trace();
                before = Some(dcm_counters(&p));
            }
            let c = p.cycle(in_trace.then_some(&mut layers));
            attempted += c.changes as u64;
            failed_n += c.failed.len() as u64;
            failed.extend(c.failed.into_iter().take(5));
            if in_trace {
                traced.push(c.propagate_ms);
            } else {
                plain.push(c.propagate_ms);
                changes += c.changes;
                busy_s += c.propagate_ms / 1e3;
            }
        }
        counters = before.map(|b| (b, dcm_counters(&p)));
    }
    let setup_s = setups.p50();
    let n = plain.len();
    r.fact(
        "cycles_ms",
        plain
            .values()
            .iter()
            .map(|v| format!("{v:.0}"))
            .collect::<Vec<_>>()
            .join(" "),
    );
    r.print_metric(
        "propagate_p50_ms",
        plain.p50(),
        "ms",
        format!("n={n} cycles"),
    );
    match plain.tail() {
        Some((pct, v)) => r.print_metric(
            "propagate_tail_ms",
            v,
            "ms",
            format!("p{pct} of n={n} cycles"),
        ),
        None => r.print_metric(
            "propagate_tail_ms",
            plain.quantile(1.0),
            "ms",
            format!("max of n={n} cycles: fewer than 11, no percentile has 10 beyond it"),
        ),
    }
    r.e2e.insert("latency_p50_us", plain.p50() * 1e3);
    r.print_metric(
        "changes_per_s",
        changes as f64 / busy_s,
        "1/s",
        "changes committed and seen by every probe, per second of cycle time",
    );
    r.attempted = attempted;
    r.failed = failed_n;
    r.mismatches = failed.into_iter().take(5).collect();
    if let Some((before, after)) = counters {
        let d = |i: usize| (after[i] - before[i]) as f64;
        let cycles = traced.len().max(1) as f64;
        r.print_metric(
            "traced.propagate_p50_ms",
            traced.p50(),
            "ms",
            format!("n={} cycles, traced half", traced.len()),
        );
        r.layer(
            "trace.overhead_pct",
            (traced.p50() / plain.p50() - 1.0) * 100.0,
        );
        r.layer("dcm.cycle_ms", layers.cycle_ms.mean());
        r.layer("dcm.refresh_ms", layers.refresh_ms.mean());
        r.layer(
            "dcm.per_host_generate_ms",
            layers.per_host_generate_ms.mean(),
        );
        r.layer("dcm.install_ms", layers.install_ms.mean());
        r.layer("dcm.delta_build_ratio", d(0) / (d(0) + d(1)).max(1.0));
        r.layer("dcm.wire_bytes", d(2) / cycles);
        r.layer("dcm.legs", d(3) / cycles);
        r.layer("dcm.patch_byte_share", d(4) / (d(4) + d(5)).max(1.0));
        r.layer("dcm.update_failure_ratio", d(6) / d(7).max(1.0));
        r.fact("update connections per traced cycle", d(8) / cycles);
    }
    finish_common(&mut r, setup_s);
    r
}

/// DCM counters the traced run differences: delta builds, full rebuilds,
/// wire bytes, protocol legs (transmits), patch bytes, full bytes, failed
/// updates, attempted updates, update connections.
fn dcm_counters(p: &propagation::Propagation) -> [u64; 9] {
    let s = &p.dep.dcm.stats;
    let (connects, legs, bytes) = p.net.as_ref().map_or((0, 0, 0), |n| n.totals());
    let obs = p.dep.state.read().obs.snapshot();
    [
        s.delta_builds,
        s.full_rebuilds,
        bytes,
        legs,
        obs.counter("dcm.transfer.patch_bytes"),
        obs.counter("dcm.transfer.full_bytes"),
        s.soft_failures + s.hard_failures,
        s.updates_attempted,
        connects,
    ]
}
