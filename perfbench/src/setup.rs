//! Seeded inputs and the population every workload starts from.

use moira_common::rng::Mt;
use moira_core::registry::Registry;
use moira_core::state::{Caller, MoiraState};
use moira_sim::{populate, PopulationSpec};

/// The list through which the benchmark's admin principal holds its
/// capabilities: a member of `moira-admins`, not root.
pub const OPS_LIST: &str = "perfbench-ops";

/// Derives an independent stream seed from the run seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform in `[0, 1)`.
pub fn unit(rng: &mut Mt) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// A skewed index in `0..n`: low indices are hot (about half the picks
/// land in the first tenth).
pub fn skewed(rng: &mut Mt, n: usize) -> usize {
    ((unit(rng).powi(3) * n as f64) as usize).min(n - 1)
}

/// The paper-scale population (or the small one for the benchmark's own
/// tests), seeded from the run seed.
pub fn spec(seed: u64, small: bool) -> PopulationSpec {
    let base = if small {
        PopulationSpec::small()
    } else {
        PopulationSpec::athena_1988()
    };
    PopulationSpec {
        seed: mix(seed, 1),
        ..base
    }
}

/// Runs one query as root, panicking on failure (set-up only).
pub fn root_exec(state: &mut MoiraState, registry: &Registry, query: &str, args: &[&str]) {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    if let Err(e) = registry.execute(state, &Caller::root("perfbench"), query, &args) {
        panic!("set-up query {query} {args:?} failed: {e:?}");
    }
}

/// Adds an active list that is not a unix group.
pub fn add_list(
    state: &mut MoiraState,
    registry: &Registry,
    name: &str,
    public: bool,
    maillist: bool,
) {
    let flag = |b: bool| if b { "1" } else { "0" };
    root_exec(
        state,
        registry,
        "add_list",
        &[
            name,
            "1",
            flag(public),
            "0",
            flag(maillist),
            "0",
            "-1",
            "NONE",
            "NONE",
            "perfbench list",
        ],
    );
}

/// Makes `login` an administrator through nested list membership:
/// `login` ∈ `perfbench-ops` ∈ `moira-admins`.
pub fn make_admin(state: &mut MoiraState, registry: &Registry, login: &str) {
    add_list(state, registry, OPS_LIST, false, false);
    root_exec(
        state,
        registry,
        "add_member_to_list",
        &[OPS_LIST, "USER", login],
    );
    root_exec(
        state,
        registry,
        "add_member_to_list",
        &["moira-admins", "LIST", OPS_LIST],
    );
}

/// The benchmark's admin principal: a seeded pick among the active users.
pub fn admin_of(seed: u64, logins: &[String]) -> String {
    logins[(mix(seed, 5) % logins.len() as u64) as usize].clone()
}

/// Fills a freshly seeded state with the seeded population (capability
/// ACLs included) and makes the admin principal; returns the active logins
/// and the admin.
pub fn populate_with_admin(
    state: &mut MoiraState,
    registry: &Registry,
    spec: &PopulationSpec,
    seed: u64,
) -> (Vec<String>, String) {
    moira_core::seed::seed_capacls(state, registry);
    let logins = populate(state, registry, spec)
        .expect("population builds")
        .active_logins;
    let admin = admin_of(seed, &logins);
    make_admin(state, registry, &admin);
    (logins, admin)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The filesystem type holding `path`, from the mount table.
pub fn filesystem_of(path: &std::path::Path) -> String {
    let Ok(path) = std::fs::canonicalize(path) else {
        return "unknown".into();
    };
    let table = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in table.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(dash) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(dash + 1)) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// The benchmark's scratch directory inside the checkout.
pub fn work_dir() -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(".bench_build").join("perfbench-work");
    std::fs::create_dir_all(&dir).expect("create the work directory");
    dir
}
