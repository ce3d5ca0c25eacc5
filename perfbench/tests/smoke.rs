//! Short runs of every workload on the small population: each named metric
//! is printed with its unit, and a corrupted expectation fails the run.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["campus_reads", "admin_writes", "dcm_propagation"];

const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("latency_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

const PER_LAYER: [(&str, &str); 31] = [
    ("protocol.decode_us", "us"),
    ("protocol.encode_us_per_frame", "us"),
    ("access.check_us", "us"),
    ("access.cache_hit_ratio", "ratio"),
    ("handler.read_point_us", "us"),
    ("handler.read_scan_us", "us"),
    ("handler.write_us", "us"),
    ("db.rows_examined_per_row", "ratio"),
    ("db.plan.scan_share", "ratio"),
    ("server.ready_to_dispatch_p50_us", "us"),
    ("server.ready_to_dispatch_p99_us", "us"),
    ("server.residual_us", "us"),
    ("server.shed_ratio", "ratio"),
    ("wal.append_us", "us"),
    ("wal.flush_us", "us"),
    ("media.fsync_us", "us"),
    ("media.bytes_per_write", "bytes"),
    ("wal.group_commit_size", "count"),
    ("wal.snapshot_ms", "ms"),
    ("wal.snapshots", "count"),
    ("db.journal_entries", "count"),
    ("dcm.cycle_ms", "ms"),
    ("dcm.refresh_ms", "ms"),
    ("dcm.per_host_generate_ms", "ms"),
    ("dcm.delta_build_ratio", "ratio"),
    ("dcm.wire_bytes", "bytes"),
    ("dcm.patch_byte_share", "ratio"),
    ("dcm.legs", "count"),
    ("dcm.install_ms", "ms"),
    ("dcm.update_failure_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// The issue-level metrics each workload prints by name and unit.
fn printed(workload: &str) -> Vec<(&'static str, &'static str)> {
    let mut v = vec![("setup_s", "s"), ("peak_rss_mb", "MB")];
    v.extend(match workload {
        "campus_reads" => vec![
            ("point_read_p50_us", "us"),
            ("point_read_p99_us", "us"),
            ("scan_read_p50_us", "us"),
            ("scan_read_p99_us", "us"),
            ("requests_per_s", "1/s"),
        ],
        "admin_writes" => vec![
            ("write_p50_us", "us"),
            ("write_p99_us", "us"),
            ("point_read_p50_us", "us"),
            ("point_read_p99_us", "us"),
            ("requests_per_s", "1/s"),
        ],
        _ => vec![("propagate_p50_ms", "ms"), ("propagate_tail_ms", "ms")],
    });
    v
}

fn run(workload: &str, trace: &str, extra: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--small",
        ])
        .args(extra)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run perfbench");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// The unit the result line gives `name`, if it has it.
fn unit_of(result: &str, name: &str) -> Option<String> {
    let at = result.find(&format!("\"{name}\": {{\"value\": "))?;
    let rest = &result[at..];
    let unit = rest.find("\"unit\": \"")? + "\"unit\": \"".len();
    let end = rest[unit..].find('"')?;
    Some(rest[unit..unit + end].to_owned())
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    for workload in WORKLOADS {
        let (code, out) = run(workload, "0", &[]);
        assert_eq!(code, Some(0), "{workload} failed:\n{out}");
        let result = out.lines().last().expect("result line");
        assert!(
            result.starts_with("{\"correct\": true"),
            "{workload}: {result}"
        );
        for (name, unit) in END_TO_END {
            assert_eq!(
                unit_of(result, name).as_deref(),
                Some(unit),
                "{workload} {name}"
            );
        }
        for (name, unit) in printed(workload) {
            assert!(
                out.lines()
                    .any(|l| l.trim_start().starts_with(&format!("{name} = "))
                        && l.contains(&format!(" {unit}  "))),
                "{workload} does not print {name} in {unit}:\n{out}"
            );
        }
        assert!(out.contains("failed_ratio: 0 "), "{workload}:\n{out}");

        let (code, out) = run(workload, "1", &[]);
        assert_eq!(code, Some(0), "{workload} traced failed:\n{out}");
        let result = out.lines().last().expect("result line");
        for (name, unit) in PER_LAYER {
            assert_eq!(
                unit_of(result, name).as_deref(),
                Some(unit),
                "{workload} traced {name}"
            );
        }
    }
}

#[test]
fn corrupted_expectation_fails_the_run() {
    for workload in WORKLOADS {
        let (code, out) = run(workload, "0", &["--corrupt"]);
        assert_ne!(
            code,
            Some(0),
            "{workload} passed with a corrupted model:\n{out}"
        );
        let result = out.lines().last().expect("result line");
        assert!(
            result.starts_with("{\"correct\": false"),
            "{workload}: {result}"
        );
        assert!(out.contains("MISMATCH"), "{workload}:\n{out}");
    }
}
