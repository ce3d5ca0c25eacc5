//! Metric names, units, and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics every workload reports in its result line (the
/// untraced run). What each means per workload is in the README.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, each with the end-to-end metric
/// and workload it should move. A workload that bypasses a layer reports
/// it as 0 and says so.
pub const PER_LAYER: &[(&str, &str, &str, &str)] = &[
    (
        "protocol.decode_us",
        "us",
        "point_read_p50_us",
        "campus_reads",
    ),
    (
        "protocol.encode_us_per_frame",
        "us",
        "scan_read_p50_us",
        "campus_reads",
    ),
    (
        "access.check_us",
        "us",
        "point_read_p50_us, write_p50_us",
        "campus_reads, admin_writes",
    ),
    (
        "access.cache_hit_ratio",
        "ratio",
        "point_read_p50_us (warm), write_p50_us (cold)",
        "campus_reads, admin_writes",
    ),
    (
        "handler.read_point_us",
        "us",
        "point_read_p50_us",
        "campus_reads",
    ),
    (
        "handler.read_scan_us",
        "us",
        "scan_read_p50_us",
        "campus_reads",
    ),
    ("handler.write_us", "us", "write_p50_us", "admin_writes"),
    (
        "db.rows_examined_per_row",
        "ratio",
        "scan_read_p50_us",
        "campus_reads",
    ),
    (
        "db.plan.scan_share",
        "ratio",
        "scan_read_p50_us",
        "campus_reads",
    ),
    (
        "server.ready_to_dispatch_p50_us",
        "us",
        "point_read_p99_us",
        "campus_reads",
    ),
    (
        "server.ready_to_dispatch_p99_us",
        "us",
        "point_read_p99_us",
        "campus_reads",
    ),
    (
        "server.residual_us",
        "us",
        "point_read_p50_us, requests_per_s",
        "campus_reads",
    ),
    (
        "server.shed_ratio",
        "ratio",
        "failed_ratio",
        "campus_reads, admin_writes",
    ),
    ("wal.append_us", "us", "write_p50_us", "admin_writes"),
    ("wal.flush_us", "us", "write_p50_us", "admin_writes"),
    ("media.fsync_us", "us", "write_p50_us", "admin_writes"),
    (
        "media.bytes_per_write",
        "bytes",
        "write_p50_us",
        "admin_writes",
    ),
    (
        "wal.group_commit_size",
        "count",
        "requests_per_s",
        "admin_writes",
    ),
    (
        "wal.snapshot_ms",
        "ms",
        "write_p99_us, peak_rss_mb",
        "admin_writes",
    ),
    (
        "wal.snapshots",
        "count",
        "write_p99_us, peak_rss_mb",
        "admin_writes",
    ),
    (
        "db.journal_entries",
        "count",
        "write_p99_us, peak_rss_mb",
        "admin_writes",
    ),
    ("dcm.cycle_ms", "ms", "propagate_p50_ms", "dcm_propagation"),
    (
        "dcm.refresh_ms",
        "ms",
        "propagate_p50_ms",
        "dcm_propagation",
    ),
    (
        "dcm.per_host_generate_ms",
        "ms",
        "propagate_p50_ms, propagate_tail_ms",
        "dcm_propagation",
    ),
    (
        "dcm.delta_build_ratio",
        "ratio",
        "propagate_p50_ms",
        "dcm_propagation",
    ),
    (
        "dcm.wire_bytes",
        "bytes",
        "propagate_p50_ms",
        "dcm_propagation",
    ),
    (
        "dcm.patch_byte_share",
        "ratio",
        "propagate_p50_ms",
        "dcm_propagation",
    ),
    ("dcm.legs", "count", "propagate_p50_ms", "dcm_propagation"),
    (
        "dcm.install_ms",
        "ms",
        "propagate_p50_ms",
        "dcm_propagation",
    ),
    (
        "dcm.update_failure_ratio",
        "ratio",
        "failed_ratio",
        "dcm_propagation",
    ),
    (
        "trace.overhead_pct",
        "%",
        "(traced vs untraced headline p50)",
        "all",
    ),
];

pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
    /// Facts about the run printed before the metrics.
    pub facts: Vec<(String, String)>,
    /// The per-class end-to-end metrics, printed by name and unit.
    pub printed: Vec<(String, f64, String, String)>,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn new(workload: &str, seed: u64) -> Report {
        Report {
            workload: workload.to_owned(),
            seed,
            attempted: 0,
            failed: 0,
            mismatches: Vec::new(),
            facts: Vec::new(),
            printed: Vec::new(),
            e2e: BTreeMap::new(),
            layers: BTreeMap::new(),
        }
    }

    pub fn fact(&mut self, key: &str, value: impl ToString) {
        self.facts.push((key.to_owned(), value.to_string()));
    }

    /// An end-to-end metric printed by name, with a note (sample count,
    /// percentile used).
    pub fn print_metric(&mut self, name: &str, value: f64, unit: &str, note: impl ToString) {
        self.printed
            .push((name.to_owned(), value, unit.to_owned(), note.to_string()));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, ..)| *n == name),
            "unknown layer metric {name}"
        );
        self.layers.insert(name, value);
    }

    /// Prints the human-readable table and the result line; returns the
    /// process exit code.
    pub fn finish(mut self, traced: bool) -> i32 {
        if self.attempted == 0 {
            self.attempted = 1;
            self.failed = 1;
            self.mismatches.push("no request completed".into());
        }
        let correct = self.failed == 0 && self.mismatches.is_empty();
        println!("workload {}  seed {}", self.workload, self.seed);
        for (k, v) in &self.facts {
            println!("  {k}: {v}");
        }
        println!(
            "  failed_ratio: {} ({} of {} attempted)",
            self.failed as f64 / self.attempted as f64,
            self.failed,
            self.attempted
        );
        for m in &self.mismatches {
            println!("  MISMATCH {m}");
        }
        for (name, value, unit, note) in &self.printed {
            println!("  {name} = {value:.3} {unit}  {note}");
        }
        let metrics: Vec<(&str, f64, &str)> = if traced {
            println!("  per-layer (traced run; layer -> end-to-end metric on workload):");
            PER_LAYER
                .iter()
                .map(|&(name, unit, moves, on)| {
                    let v = self.layers.get(name).copied();
                    match v {
                        Some(v) => println!("    {name} = {v:.4} {unit}  -> {moves} on {on}"),
                        None => println!("    {name} = 0 {unit}  (not exercised by this workload)"),
                    }
                    (name, v.unwrap_or(0.0), unit)
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(name, unit)| {
                    let v = *self
                        .e2e
                        .get(name)
                        .unwrap_or_else(|| panic!("workload did not measure {name}"));
                    println!("  [gated] {name} = {v} {unit}");
                    (name, v, unit)
                })
                .collect()
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            body.join(", ")
        );
        if correct {
            0
        } else {
            1
        }
    }
}
