//! Crash-recovery torture: randomized kill points, byte-identical
//! convergence.
//!
//! The gate (EXPERIMENTS.md E16): for every armed kill point — spread
//! across WAL appends, fsyncs, and snapshot renames — the server crashes
//! mid-operation, reboots from durable media, re-applies the workload
//! suffix the crash swallowed, and lands on a state **byte-identical** to
//! a server that never crashed: same rows, same row slots, same per-row
//! generation stamps, same tombstones, same free-list order. The
//! fingerprint is the full snapshot encoding (epoch line excluded: each
//! boot draws a distinct epoch by design). The journal is not part of it:
//! it holds only the changes since the newest snapshot, and the crashed
//! run sealed at different points than the oracle.
//!
//! A last test holds the journal to that contract: under a workload that
//! keeps the database size flat, the journal stays below one snapshot
//! interval and every sealed snapshot has the same size.

use moira_common::clock::{VClock, ATHENA_EPOCH};
use moira_common::errors::MrError;
use moira_core::recovery::boot_durable;
use moira_core::registry::Registry;
use moira_core::state::{Caller, MoiraState};
use moira_db::snapshot::encode_snapshot;
use moira_db::storage::{GroupCommitConfig, OpKind, SimMedia};

/// Deterministic workload: appends, updates, and deletes touching users
/// and machines, exercising tombstones and slot reuse.
const STEPS: usize = 36;

fn step(i: usize) -> (&'static str, Vec<String>) {
    match i % 6 {
        0 => ("add_machine", vec![format!("M{i}.MIT.EDU"), "VAX".into()]),
        1 => (
            "add_user",
            vec![
                format!("tort{i}"),
                format!("{}", 9000 + i),
                "/bin/sh".into(),
                "Torture".into(),
                "Test".into(),
                String::new(),
                "1".into(),
                format!("x{i}"),
                "1990".into(),
            ],
        ),
        2 => (
            "update_user_shell",
            vec![format!("tort{}", i - 1), "/bin/csh".into()],
        ),
        3 => ("add_machine", vec![format!("T{i}.MIT.EDU"), "VAX".into()]),
        4 => ("delete_machine", vec![format!("T{}.MIT.EDU", i - 1)]),
        _ => (
            "update_user_shell",
            vec![format!("tort{}", i - 4), format!("/bin/s{i}")],
        ),
    }
}

/// Applies workload steps `from..STEPS`; returns how many applied before
/// the media died (committed steps only).
fn apply_from(registry: &Registry, state: &mut MoiraState, clock: &VClock, from: usize) -> usize {
    let root = Caller::root("torture");
    for i in from..STEPS {
        clock.set(ATHENA_EPOCH + 60 * (i as i64 + 1));
        let (query, args) = step(i);
        match registry.execute(state, &root, query, &args) {
            Ok(_) => {}
            Err(MrError::Durability) => return i - from,
            Err(e) => panic!("workload step {i} ({query}) failed with {e:?}"),
        }
    }
    STEPS - from
}

/// The convergence fingerprint: the exact snapshot encoding minus the
/// epoch line (each boot allocates a fresh epoch; everything else must
/// match byte for byte).
fn fingerprint(state: &MoiraState) -> String {
    encode_snapshot(&state.db, 0)
        .lines()
        .filter(|l| !l.starts_with("epoch:"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn cfg() -> GroupCommitConfig {
    GroupCommitConfig {
        flush_interval_secs: 0,
        flush_bytes: 1,    // every append fsyncs: maximal durable coverage
        snapshot_every: 3, // frequent snapshots: maximal rename coverage
    }
}

fn oracle_fingerprint() -> String {
    let clock = VClock::new();
    let registry = Registry::standard();
    let media = SimMedia::new();
    let (mut state, report) =
        boot_durable(clock.clone(), &registry, Box::new(media), cfg()).expect("oracle boot");
    assert!(!report.recovered);
    let applied = apply_from(&registry, &mut state, &clock, 0);
    assert_eq!(applied, STEPS, "oracle never crashes");
    state.storage.flush().expect("oracle flush");
    fingerprint(&state)
}

#[test]
fn kill_points_converge_byte_identical_to_no_crash_oracle() {
    let oracle = oracle_fingerprint();
    let registry = Registry::standard();

    // ≥50 kill points across the three crash-prone operation classes.
    let mut grid: Vec<(OpKind, u64)> = Vec::new();
    for nth in 0..20 {
        grid.push((OpKind::Append, nth));
        grid.push((OpKind::Fsync, nth));
    }
    for nth in 0..10 {
        grid.push((OpKind::Rename, nth));
    }
    assert!(
        grid.len() >= 50,
        "the gate requires at least 50 kill points"
    );

    let mut crashes = 0u64;
    for &(kind, nth) in &grid {
        let clock = VClock::new();
        let media = SimMedia::new();
        let (mut state, _) = boot_durable(clock.clone(), &registry, Box::new(media.clone()), cfg())
            .unwrap_or_else(|e| panic!("boot before {kind:?}#{nth}: {e:?}"));
        let epoch = state.db.epoch();

        media.arm_crash(kind, nth);
        apply_from(&registry, &mut state, &clock, 0);
        assert!(
            media.crashed(),
            "{kind:?}#{nth} never fired — widen the workload or shrink the grid"
        );
        crashes += 1;
        drop(state); // the dead server's memory is gone

        media.power_cycle();
        let (mut recovered, report) =
            boot_durable(clock.clone(), &registry, Box::new(media.clone()), cfg())
                .unwrap_or_else(|e| panic!("recovery after {kind:?}#{nth}: {e:?}"));
        assert!(report.recovered, "{kind:?}#{nth}");
        assert_eq!(
            recovered.db.epoch(),
            epoch,
            "{kind:?}#{nth}: epoch must survive recovery"
        );

        // The boot's seal covers exactly the durable commits (one WAL frame
        // per step on media that started empty); re-apply the suffix the
        // crash swallowed and demand byte-identity.
        let committed = report.sealed_seq as usize;
        assert!(
            committed <= STEPS,
            "{kind:?}#{nth}: recovered more than was ever committed"
        );
        let reapplied = apply_from(&registry, &mut recovered, &clock, committed);
        assert_eq!(
            reapplied,
            STEPS - committed,
            "{kind:?}#{nth}: replacement server must not crash again"
        );
        recovered.storage.flush().expect("post-recovery flush");
        assert_eq!(
            fingerprint(&recovered),
            oracle,
            "{kind:?}#{nth}: crashed-at-{committed} run diverged from the oracle"
        );
    }
    assert_eq!(crashes, grid.len() as u64);
}

/// Double-crash: a second kill while recovering from the first (during
/// the post-replay re-seal) must still recover cleanly on the third boot.
#[test]
fn crash_during_recovery_snapshot_recovers_again() {
    let registry = Registry::standard();
    let clock = VClock::new();
    let media = SimMedia::new();
    let (mut state, _) =
        boot_durable(clock.clone(), &registry, Box::new(media.clone()), cfg()).expect("boot");
    media.arm_crash(OpKind::Append, 7);
    apply_from(&registry, &mut state, &clock, 0);
    assert!(media.crashed());
    drop(state);

    // Second crash: the recovery boot's own snapshot rename.
    media.power_cycle();
    media.arm_crash(OpKind::Rename, 0);
    assert!(
        boot_durable(clock.clone(), &registry, Box::new(media.clone()), cfg()).is_err(),
        "recovery died mid-seal"
    );

    // Third boot completes and the workload finishes.
    media.power_cycle();
    let (mut recovered, report) =
        boot_durable(clock.clone(), &registry, Box::new(media), cfg()).expect("third boot");
    assert!(report.recovered);
    let committed = report.sealed_seq as usize;
    assert_eq!(
        apply_from(&registry, &mut recovered, &clock, committed),
        STEPS - committed
    );
}

/// The journal lists only the changes since the newest snapshot: with a
/// flat workload (add/delete machine pairs and shell flips), it never
/// reaches `snapshot_every` entries, and once the counters the workload
/// advances have settled into their digit widths every sealed snapshot
/// has the same byte length.
#[test]
fn journal_and_snapshot_stay_bounded_under_a_flat_workload() {
    const EVERY: usize = 64;
    const WARMUP: usize = 32;
    const WINDOWS: usize = 24;
    let cfg = GroupCommitConfig {
        flush_interval_secs: 0,
        flush_bytes: 1,
        snapshot_every: EVERY as u64,
    };
    let registry = Registry::standard();
    let clock = VClock::new();
    let media = SimMedia::new();
    let (mut state, _) =
        boot_durable(clock.clone(), &registry, Box::new(media.clone()), cfg).expect("boot");
    let root = Caller::root("flat");
    let user = [
        "flat", "4242", "/bin/sh", "Flat", "Test", "", "1", "x", "1990",
    ];
    registry
        .execute(&mut state, &root, "add_user", &user.map(String::from))
        .expect("flat user");
    // Windows start at a seal, so each one ends in the automatic seal.
    state.seal_snapshot().expect("seal");

    let mut sizes = Vec::new();
    for i in 0..(WARMUP + WINDOWS) * EVERY {
        clock.set(ATHENA_EPOCH + 60 * (i as i64 + 1));
        let (query, args): (&str, &[&str]) = match i % 4 {
            0 => ("add_machine", &["FLAT.MIT.EDU", "VAX"]),
            1 => ("update_user_shell", &["flat", "/bin/csh"]),
            2 => ("delete_machine", &["FLAT.MIT.EDU"]),
            _ => ("update_user_shell", &["flat", "/bin/tsh"]),
        };
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        registry
            .execute(&mut state, &root, query, &args)
            .unwrap_or_else(|e| panic!("mutation {i} ({query}): {e:?}"));
        assert!(
            state.journal.len() < EVERY,
            "mutation {i}: the journal holds {} entries",
            state.journal.len()
        );
        if (i + 1) % EVERY == 0 {
            let sealed = media.durable_bytes("snapshot.moira").expect("sealed");
            let seq = format!("\nseq:{}\n", i + 2); // the add_user is seq 1
            assert!(
                String::from_utf8_lossy(&sealed).contains(&seq),
                "mutation {i} sealed a snapshot"
            );
            sizes.push(sealed.len());
        }
    }
    let steady = &sizes[WARMUP..];
    assert!(
        steady.iter().all(|&n| n == steady[0]),
        "snapshot sizes after warm-up: {sizes:?}"
    );
}
