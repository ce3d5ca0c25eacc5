//! Experiment E8: the §5.9 update-protocol robustness matrix.
//!
//! Goals from the paper: "Completely automatic update for normal cases and
//! expected kinds of failures. Survives clean server crashes. Survives
//! clean Moira crashes." Each scenario injects one failure, checks that no
//! installed file is ever torn, then lets recovery proceed and checks
//! convergence.

use moira_bench::{write_json, Table};
use moira_client::{MoiraConn, ServerThread};
use moira_core::state::Caller;
use moira_dcm::retry::RetryPolicy;
use moira_sim::{Deployment, PopulationSpec};

/// Checks the integrity invariant on every Hesiod host: any installed
/// passwd.db parses as complete BIND lines (no torn writes).
fn no_torn_files(d: &Deployment) -> bool {
    for host in d.hosts.values() {
        let h = host.lock();
        if let Some(bytes) = h.read_file("/var/hesiod/passwd.db") {
            let Ok(text) = std::str::from_utf8(bytes) else {
                return false;
            };
            if !text.is_empty() && !text.ends_with('\n') {
                return false;
            }
            if !text.lines().all(|l| l.contains("HS UNSPECA")) {
                return false;
            }
        }
    }
    true
}

/// True when every enabled serverhost reports success and carries current
/// files.
fn converged(d: &Deployment) -> bool {
    let s = d.state.read();
    let t = s.db.table("serverhosts");
    let rows: Vec<_> = t.iter().map(|(row, _)| row).collect();
    rows.into_iter().all(|row| {
        !t.cell(row, "enable").as_bool()
            || t.cell(row, "service").as_str() == "POP"
            || t.cell(row, "success").as_bool()
    })
}

struct Outcome {
    scenario: &'static str,
    first_error: String,
    hard: bool,
    recovered: bool,
    torn: bool,
}

fn run_scenario(
    scenario: &'static str,
    inject: impl FnOnce(&mut Deployment),
    recover: impl FnOnce(&mut Deployment),
) -> Outcome {
    let mut d = Deployment::build(&PopulationSpec::small());
    inject(&mut d);
    let report = d.run_dcm_once();
    let first_error = report
        .updates
        .iter()
        .find_map(|(_, _, r)| r.as_ref().err().map(|e| e.message()))
        .unwrap_or_else(|| "none".into());
    let hard = report
        .updates
        .iter()
        .any(|(_, _, r)| r.as_ref().err().is_some_and(|e| e.is_hard()));
    let torn_during = !no_torn_files(&d);
    recover(&mut d);
    // Retries happen on later DCM passes; give it a few cron ticks.
    for _ in 0..4 {
        d.advance(25 * 3600);
        d.run_dcm_once();
    }
    Outcome {
        scenario,
        first_error,
        hard,
        recovered: converged(&d) && no_torn_files(&d),
        torn: torn_during,
    }
}

fn reset_errors(d: &mut Deployment) {
    let services: Vec<String> = {
        let s = d.state.read();
        let t = s.db.table("servers");
        t.iter()
            .map(|(row, _)| t.cell(row, "name").render())
            .collect()
    };
    let mut s = d.state.write();
    for svc in services {
        let _ = d.registry.execute(
            &mut s,
            &Caller::root("operator"),
            "reset_server_error",
            std::slice::from_ref(&svc),
        );
        let hosts: Vec<String> = {
            let t = s.db.table("serverhosts");
            t.select(&moira_db::Pred::Eq("service", svc.clone().into()))
                .into_iter()
                .map(|r| {
                    let mach_id = t.cell(r, "mach_id").as_int();
                    let m = s.db.table("machine");
                    m.select(&moira_db::Pred::Eq("mach_id", mach_id.into()))
                        .first()
                        .map(|&mr| m.cell(mr, "name").render())
                        .unwrap_or_default()
                })
                .collect()
        };
        for host in hosts {
            let _ = d.registry.execute(
                &mut s,
                &Caller::root("operator"),
                "reset_server_host_error",
                &[svc.clone(), host],
            );
        }
    }
}

/// Update attempts piled onto one permanently partitioned host over twelve
/// hourly DCM passes, under a given retry policy.
fn attempts_against_dead_host(policy: RetryPolicy) -> u64 {
    let mut d = Deployment::build(&PopulationSpec::small());
    let victim = d.population.hesiod_servers[0].clone();
    d.net.partition(&victim);
    d.dcm.set_retry_policy(policy);
    for _ in 0..12 {
        d.run_dcm_once();
        d.advance(3600);
    }
    d.dcm.stats.updates_attempted
}

/// Client-visible overload: a server with a one-request dispatch budget per
/// poll sheds the rest with the distinct Busy status; clients retrying with
/// backoff all complete. Returns (requests landed, expected, busy resends).
fn overload_shed_run() -> (usize, usize, u64) {
    let (mut server, state, _) = moira_core::server::standard_server(moira_common::VClock::new());
    {
        let mut s = state.write();
        let uid = moira_core::queries::testutil::add_test_user(&mut s, "ops", 1);
        s.db.append("members", vec![2.into(), "USER".into(), uid.into()])
            .unwrap();
    }
    server.set_overload_limit(Some(1));
    let thread = std::sync::Arc::new(ServerThread::spawn(server));
    let workers: Vec<_> = (0..4)
        .map(|i| {
            let thread = thread.clone();
            std::thread::spawn(move || {
                let mut client = thread.connect();
                client.set_busy_retry(64, 1);
                client.auth("ops", &format!("e8-{i}")).unwrap();
                for j in 0..3 {
                    client
                        .query("add_machine", &[&format!("E8-{i}-{j}"), "VAX"], &mut |_| {})
                        .unwrap();
                }
                client.busy_resends
            })
        })
        .collect();
    let resends: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
    let landed = {
        let s = state.read();
        s.db.table("machine")
            .select(&moira_db::Pred::Like("name", "E8-*".into()))
            .len()
    };
    (landed, 12, resends)
}

fn main() {
    let hes_host = |d: &Deployment| d.hosts[&d.population.hesiod_servers[0]].clone();
    let outcomes = vec![
        run_scenario("healthy baseline", |_| {}, |_| {}),
        run_scenario(
            "server down at update time",
            |d| d.hosts[&d.population.hesiod_servers[0]].lock().up = false,
            |d| hes_host(d).lock().reboot(),
        ),
        run_scenario(
            "connection refused",
            |d| hes_host(d).lock().fail.refuse_connect = true,
            |d| hes_host(d).lock().fail.refuse_connect = false,
        ),
        run_scenario(
            "crash during transfer",
            |d| hes_host(d).lock().fail.crash_after_ops = Some(1),
            |d| hes_host(d).lock().reboot(),
        ),
        run_scenario(
            "crash during execution",
            |d| hes_host(d).lock().fail.crash_after_ops = Some(9),
            |d| hes_host(d).lock().reboot(),
        ),
        run_scenario(
            "corrupted transfer (checksum)",
            |d| hes_host(d).lock().fail.corrupt_transfers = true,
            |d| hes_host(d).lock().fail.corrupt_transfers = false,
        ),
        run_scenario(
            "operation timeout",
            |d| hes_host(d).lock().fail.hang = true,
            |d| hes_host(d).lock().fail.hang = false,
        ),
        run_scenario(
            "network partition during transfer",
            |d| {
                let victim = d.population.hesiod_servers[0].clone();
                d.net.partition(&victim);
            },
            |d| {
                let victim = d.population.hesiod_servers[0].clone();
                d.net.heal(&victim);
            },
        ),
        run_scenario(
            "drop-heavy flaky link (60% loss)",
            |d| {
                let victim = d.population.hesiod_servers[0].clone();
                d.net.set_drop_prob(&victim, 0.6);
            },
            |d| {
                let victim = d.population.hesiod_servers[0].clone();
                d.net.set_drop_prob(&victim, 0.0);
            },
        ),
        run_scenario(
            "partition healing mid-run (no operator)",
            |d| {
                let victim = d.population.hesiod_servers[0].clone();
                let now = d.clock.now();
                d.net.partition_until(&victim, now + 30 * 3600);
            },
            |_| {},
        ),
        run_scenario(
            "install script hard failure",
            |d| hes_host(d).lock().fail.fail_exec_with = Some(13),
            |d| {
                hes_host(d).lock().fail.fail_exec_with = None;
                reset_errors(d);
            },
        ),
        run_scenario(
            "Moira crash (data files lost)",
            |d| {
                // Crash mid-run: generate, then lose the DCM's in-memory
                // state. The restarted DCM re-reads its srvtab from disk and
                // reattaches to the fabric, but its generator caches and
                // last-pushed archives are gone.
                d.run_dcm_once();
                d.restart_dcm();
                // A change arrives that the lost files do not contain.
                let mut s = d.state.write();
                let login = d.population.active_logins[0].clone();
                d.registry
                    .execute(
                        &mut s,
                        &Caller::root("e8"),
                        "update_user_shell",
                        &[login, "/bin/newsh".into()],
                    )
                    .unwrap();
            },
            |_| {},
        ),
    ];

    let mut table = Table::new(&[
        "Scenario",
        "First error",
        "Hard?",
        "No torn files",
        "Converged",
    ]);
    let mut all_converged = true;
    let mut json_rows = Vec::new();
    for o in &outcomes {
        table.row(&[
            o.scenario.to_string(),
            o.first_error.clone(),
            if o.hard { "hard" } else { "soft" }.into(),
            (!o.torn).to_string(),
            o.recovered.to_string(),
        ]);
        all_converged &= o.recovered && !o.torn;
        json_rows.push(serde_json::json!({
            "scenario": o.scenario, "first_error": o.first_error,
            "hard": o.hard, "torn": o.torn, "recovered": o.recovered,
        }));
    }
    table.print("E8 — Update-protocol failure/recovery matrix (§5.9)");
    println!(
        "\nall scenarios converged with no torn files: {all_converged} \
         (paper goal: \"completely automatic update for normal cases and \
         expected kinds of failures\")"
    );

    // Retry-storm control: the same permanent outage under retry-every-pass
    // versus the exponential-backoff gate.
    let no_escalation = |p: RetryPolicy| RetryPolicy {
        escalate_after: u32::MAX,
        ..p
    };
    let naive = attempts_against_dead_host(no_escalation(RetryPolicy {
        base_secs: 0,
        max_secs: 0,
        jitter_frac: 0.0,
        ..RetryPolicy::default()
    }));
    let gated = attempts_against_dead_host(no_escalation(RetryPolicy::default()));
    let storm_contained = gated < naive;
    println!(
        "\nretry storm vs one dead host over 12 hourly passes: \
         naive retry-every-pass = {naive} attempts, backoff gate = {gated} \
         attempts (contained: {storm_contained})"
    );

    // Client-visible overload: shed requests carry the distinct Busy status
    // and client-side backoff drains the contention completely.
    let (landed, expected, resends) = overload_shed_run();
    let overload_recovered = landed == expected;
    println!(
        "client-visible server overload: {landed}/{expected} requests landed \
         after {resends} Busy resends (recovered: {overload_recovered})"
    );

    write_json(
        "table_update_recovery",
        &serde_json::json!({
            "rows": json_rows,
            "all_converged": all_converged,
            "retry_storm": {
                "naive_attempts": naive,
                "gated_attempts": gated,
                "contained": storm_contained,
            },
            "overload": {
                "landed": landed,
                "expected": expected,
                "busy_resends": resends,
                "recovered": overload_recovered,
            },
        }),
    );
}
