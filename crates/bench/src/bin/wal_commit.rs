//! E16 — durable commit: group-commit throughput curve, a quick
//! crash-convergence gate, and the journal-retention soak.
//!
//! Three parts:
//!
//! 1. **Throughput curve** (real disk): the same mutation workload is
//!    committed through the durable engine at group-commit batch sizes
//!    1/4/16/64/256 — batch 1 is fsync-per-commit, larger batches amortize
//!    the fsync across the group, which is the whole point of group
//!    commit. Reported as mutations/sec and fsyncs per mutation.
//! 2. **Convergence gate** (sim media): a compact version of the
//!    `durability` torture test — kill points across append, fsync, and
//!    snapshot rename; every recovery must land byte-identical to the
//!    no-crash oracle. The full ≥50-point grid runs in CI; this gate is
//!    the fast regression tripwire.
//! 3. **Retention soak** (sim media): 10⁶ mutations that keep the database
//!    size flat, with the default `snapshot_every`. Each window ends in an
//!    automatic snapshot, which empties the journal. The bench asserts that
//!    the journal never reaches one window's worth of entries and that the
//!    snapshot's size does not grow with lifetime mutations. Snapshot time
//!    is reported, not gated.

use moira_bench::{write_json, Table};
use moira_common::clock::{VClock, ATHENA_EPOCH};
use moira_common::errors::MrError;
use moira_core::recovery::boot_durable;
use moira_core::registry::Registry;
use moira_core::seed::seed_capacls;
use moira_core::state::{Caller, MoiraState};
use moira_db::snapshot::encode_snapshot;
use moira_db::storage::{DiskMedia, GroupCommitConfig, Media, OpKind, SimMedia, SNAPSHOT_FILE};
use moira_sim::{populate, PopulationSpec};

const MUTATIONS: usize = 512;
const BATCH_SIZES: [usize; 5] = [1, 4, 16, 64, 256];

/// Splits a space-separated argument line; two spaces make an empty field.
fn args(line: &str) -> Vec<String> {
    line.split(' ').map(String::from).collect()
}

/// Runs `MUTATIONS` machine adds — the canonical small write — flushing
/// every `batch`; returns (wall seconds, fsync count).
fn run_batch(registry: &Registry, media: Box<dyn Media>, batch: usize) -> (f64, u64) {
    let clock = VClock::new();
    let lazy = GroupCommitConfig {
        flush_interval_secs: i64::MAX,
        flush_bytes: usize::MAX,
        snapshot_every: 0,
    };
    let (mut state, _) = boot_durable(clock.clone(), registry, media, lazy).expect("boot");
    let t0 = std::time::Instant::now();
    for i in 0..MUTATIONS {
        clock.set(ATHENA_EPOCH + 60 * (i as i64 + 1));
        let machine = args(&format!("WAL{i}.MIT.EDU VAX"));
        registry
            .execute(&mut state, &Caller::root("bench"), "add_machine", &machine)
            .expect("mutation");
        if (i + 1) % batch == 0 {
            state.storage.flush().expect("group flush");
        }
    }
    state.storage.flush().expect("final flush");
    let wall = t0.elapsed().as_secs_f64();
    (wall, state.obs.snapshot().counter("db.wal.fsyncs"))
}

fn throughput_curve(registry: &Registry) -> (Vec<serde_json::Value>, Vec<f64>) {
    let root = std::env::temp_dir().join(format!("moira-wal-bench-{}", std::process::id()));
    let mut table = Table::new(&["Batch", "Wall (s)", "Commits/s", "Fsyncs", "Fsync/commit"]);
    let mut points = Vec::new();
    let mut rates = Vec::new();
    for (i, &batch) in BATCH_SIZES.iter().enumerate() {
        let dir = root.join(format!("b{batch}"));
        let media = DiskMedia::open(&dir).expect("bench dir");
        let (wall, fsyncs) = run_batch(registry, Box::new(media), batch);
        let rate = MUTATIONS as f64 / wall;
        table.row(&[
            batch.to_string(),
            format!("{wall:.4}"),
            format!("{rate:.0}"),
            fsyncs.to_string(),
            format!("{:.3}", fsyncs as f64 / MUTATIONS as f64),
        ]);
        points.push(serde_json::json!({
            "batch": batch,
            "wall_s": wall,
            "commits_per_s": rate,
            "fsyncs": fsyncs,
        }));
        rates.push(rate);
        if i == 0 {
            eprintln!("wal commit: fsync-per-commit baseline {rate:.0} commits/s");
        }
    }
    let _ = std::fs::remove_dir_all(&root);
    table.print("Group-commit throughput (512 mutations, real disk)");
    (points, rates)
}

/// The compact convergence gate: every kill point recovers to the oracle.
fn convergence_gate(registry: &Registry) -> usize {
    let cfg = GroupCommitConfig {
        flush_interval_secs: 0,
        flush_bytes: 1,
        snapshot_every: 3,
    };
    const STEPS: usize = 12;
    let workload = |registry: &Registry, state: &mut MoiraState, clock: &VClock, from: usize| {
        for i in from..STEPS {
            clock.set(ATHENA_EPOCH + 60 * (i as i64 + 1));
            let machine = args(&format!("GATE{i}.MIT.EDU VAX"));
            match registry.execute(state, &Caller::root("bench"), "add_machine", &machine) {
                Ok(_) => {}
                Err(MrError::Durability) => return i,
                Err(e) => panic!("workload step {i}: {e:?}"),
            }
        }
        STEPS
    };
    let fingerprint = |state: &MoiraState| {
        encode_snapshot(&state.db, 0)
            .lines()
            .filter(|l| !l.starts_with("epoch:"))
            .collect::<Vec<_>>()
            .join("\n")
    };

    let clock = VClock::new();
    let (mut oracle, _) =
        boot_durable(clock.clone(), registry, Box::new(SimMedia::new()), cfg).expect("oracle");
    assert_eq!(workload(registry, &mut oracle, &clock, 0), STEPS);
    oracle.storage.flush().expect("oracle flush");
    let want = fingerprint(&oracle);

    let mut points = 0;
    for kind in [OpKind::Append, OpKind::Fsync, OpKind::Rename] {
        for nth in 0..4 {
            let clock = VClock::new();
            let media = SimMedia::new();
            let (mut state, _) =
                boot_durable(clock.clone(), registry, Box::new(media.clone()), cfg).expect("boot");
            media.arm_crash(kind, nth);
            workload(registry, &mut state, &clock, 0);
            assert!(media.crashed(), "{kind:?}#{nth} never fired");
            drop(state);
            media.power_cycle();
            let (mut recovered, report) =
                boot_durable(clock.clone(), registry, Box::new(media), cfg).expect("recovery");
            assert!(report.recovered);
            let committed = report.sealed_seq as usize;
            workload(registry, &mut recovered, &clock, committed);
            recovered.storage.flush().expect("flush");
            assert_eq!(fingerprint(&recovered), want, "{kind:?}#{nth} diverged");
            points += 1;
        }
    }
    points
}

const SOAK_MUTATIONS: usize = 1_000_000;

/// The retention soak on the small population, on the default policy:
/// add/delete machine pairs and shell flips keep the database size flat.
/// Each window of `snapshot_every` mutations ends in the automatic seal
/// and yields `[max journal length, snapshot bytes, snapshot ms]`.
fn retention_soak(registry: &Registry) -> serde_json::Value {
    let cfg = GroupCommitConfig::default();
    let every = cfg.snapshot_every as usize;
    let (clock, media) = (VClock::new(), SimMedia::new());
    let (mut state, _) =
        boot_durable(clock.clone(), registry, Box::new(media.clone()), cfg).expect("soak boot");
    seed_capacls(&mut state, registry);
    populate(&mut state, registry, &PopulationSpec::small()).expect("soak population");
    let root = Caller::root("soak");
    let user = args("soak 4242 /bin/sh Soak Test  1 x 1990");
    registry
        .execute(&mut state, &root, "add_user", &user)
        .expect("soak user");
    // Windows start at a seal, so each one ends in the automatic seal.
    state.seal_snapshot().expect("seal the population");
    let durations = state.obs.histogram("db.snapshot.duration");
    let (mut windows, mut max_journal, mut sealed_ns) = (Vec::new(), 0, durations.snapshot().sum);
    for i in 0..SOAK_MUTATIONS {
        clock.set(ATHENA_EPOCH + 1 + i as i64);
        let (query, line) = match i % 4 {
            0 => ("add_machine", "SOAK.MIT.EDU VAX"),
            1 => ("update_user_shell", "soak /bin/csh"),
            2 => ("delete_machine", "SOAK.MIT.EDU"),
            _ => ("update_user_shell", "soak /bin/tsh"),
        };
        registry
            .execute(&mut state, &root, query, &args(line))
            .expect("soak mutation");
        max_journal = max_journal.max(state.journal.len());
        if (i + 1) % every == 0 {
            let ns = durations.snapshot().sum;
            let bytes = media.durable_bytes(SNAPSHOT_FILE).map_or(0, |b| b.len());
            let ms = (ns - sealed_ns) as f64 / 1e6;
            windows.push([max_journal as f64, bytes as f64, ms]);
            (max_journal, sealed_ns) = (0, ns);
        }
    }
    println!("\nretention soak: {SOAK_MUTATIONS} mutations, snapshot_every {every}");
    let sampled: Vec<&[f64; 3]> = windows.iter().step_by(100).collect();
    for (n, [journal, bytes, ms]) in (1..).step_by(100).zip(&sampled) {
        println!("  window {n:>3}: max journal {journal}, snapshot {bytes} B in {ms:.2} ms");
    }
    let range = |c: usize| {
        let fold = |[lo, hi]: [f64; 2], w: &[f64; 3]| [lo.min(w[c]), hi.max(w[c])];
        windows.iter().fold([f64::MAX, 0.0], fold)
    };
    let [journal, bytes, ms] = [0, 1, 2].map(range);
    println!(
        "  all {} windows: max journal {journal:?}, snapshot bytes {bytes:?}, ms {ms:.2?}",
        windows.len()
    );
    // A retained journal would reach `snapshot_every` entries by the first
    // seal and add a window's worth of lines to every later snapshot. What
    // remains is digit growth in the counters the workload advances.
    assert!(journal[1] < every as f64, "journal outlived a seal");
    assert!(bytes[1] <= bytes[0] * 1.01, "snapshot bytes grew");
    serde_json::json!({
        "methodology": "add_machine/update_user_shell/delete_machine/update_user_shell cycle through Registry::execute on SimMedia over the small population with GroupCommitConfig::default(); a window is snapshot_every mutations ending in the automatic seal; snapshot ms is the db.snapshot.duration span (wall clock); ranges are [min, max] over all windows",
        "mutations": SOAK_MUTATIONS,
        "snapshot_every": every,
        "windows": windows.len(),
        "max_journal": &journal[..],
        "snapshot_bytes": &bytes[..],
        "snapshot_ms": &ms[..],
        "every_100th_window": sampled.iter().map(|w| &w[..]).collect::<Vec<_>>(),
    })
}

fn main() {
    let registry = Registry::standard();
    let (points, rates) = throughput_curve(&registry);
    let kill_points = convergence_gate(&registry);
    println!("\nconvergence gate: {kill_points}/12 kill points byte-identical to oracle");
    let soak = retention_soak(&registry);

    let speedup = match (rates.first(), rates.last()) {
        (Some(&first), Some(&last)) if first > 0.0 => last / first,
        _ => 0.0,
    };
    write_json(
        "wal_commit",
        &serde_json::json!({
            "mutations": MUTATIONS,
            "methodology": "512 add_machine commits through Registry::execute onto a DiskMedia-backed durable engine in a temp dir; group commit simulated by explicit flush every N commits; fsync counts from db.wal.fsyncs",
            "curve": points,
            "group_commit_speedup_max_batch": speedup,
            "convergence_gate": { "kill_points": kill_points, "all_converged": true },
            "retention_soak": soak,
        }),
    );
    assert!(
        speedup >= 1.0,
        "group commit should never be slower than fsync-per-commit (got {speedup:.2}x)"
    );
}
