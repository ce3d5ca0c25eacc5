//! `dcm_propagation`: a database change travelling to the consumers.
//!
//! Each cycle commits a seeded batch — 1% of the users get a new shell,
//! plus a few unix-group and mailing-list membership changes, each undone
//! the cycle after — through `Registry::execute`, advances virtual time
//! past every service interval, runs one DCM pass, and probes the serving
//! consumers until each shows the new value. The sample is the wall time
//! from the start of the commit to the last passing probe.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use moira_common::rng::Mt;
use moira_core::state::{Caller, MoiraState};
use moira_db::Pred;
use moira_dcm::dcm::install_dir;
use moira_dcm::generators::hostaccess::HostAccessGenerator;
use moira_dcm::generators::incremental::{refresh, CachedBuild};
use moira_dcm::generators::nfs::NfsGenerator;
use moira_dcm::generators::{standard_generators, Generator};
use moira_sim::Deployment;
use moira_svc::mail::Destination;
use moira_svc::{HesiodServer, MailHub, NfsServer};

use crate::seams::CountingNet;
use crate::setup::{admin_of, make_admin, mix};
use crate::stats::Samples;

const SHELLS: [&str; 4] = ["/bin/sh", "/bin/tcsh", "/bin/bash", "/bin/zsh"];
/// Unix-group and mailing-list membership changes per cycle.
const MEMBERSHIP_CHANGES: usize = 5;

/// A membership edge the previous cycle added, undone by the next.
#[derive(Clone)]
struct Edge {
    member: String,
    list: String,
    /// The group's gid for unix groups; `None` for mailing lists.
    gid: Option<i64>,
}

/// One change and the probe that must see it.
enum Change {
    Shell { login: String, shell: String },
    Group { edge: Edge, present: bool },
    Mail { edge: Edge, present: bool },
}

pub struct Propagation {
    pub dep: Deployment,
    admin: Caller,
    rng: Mt,
    logins: Vec<String>,
    shells: Vec<&'static str>,
    maillists: Vec<String>,
    edges: Vec<Edge>,
    batch: usize,
    corrupt: bool,
    // Traced run only.
    pub net: Option<Arc<CountingNet>>,
    caches: Vec<Option<CachedBuild>>,
    generators: Vec<Box<dyn Generator>>,
}

/// Per-cycle layer numbers of the traced run.
#[derive(Default)]
pub struct DcmLayers {
    pub cycle_ms: Samples,
    pub refresh_ms: Samples,
    pub per_host_generate_ms: Samples,
    pub install_ms: Samples,
}

/// The outcome of one cycle.
pub struct Cycle {
    pub propagate_ms: f64,
    pub changes: usize,
    pub failed: Vec<String>,
}

impl Propagation {
    /// Builds the deployment, makes the benchmark's admin principal, and
    /// runs the initial full DCM pass.
    pub fn setup(spec: &moira_sim::PopulationSpec, seed: u64, corrupt: bool) -> Propagation {
        let mut dep = Deployment::build(spec);
        let logins = dep.population.active_logins.clone();
        let admin = admin_of(seed, &logins);
        {
            let mut st = dep.state.write();
            make_admin(&mut st, &dep.registry, &admin);
        }
        dep.run_dcm_once();
        let maillists = dep.population.public_lists.clone();
        Propagation {
            admin: Caller::new(&admin, "perfbench"),
            rng: Mt::new(mix(seed, 4)),
            shells: vec!["/bin/csh"; logins.len()],
            batch: (logins.len() / 100).max(1),
            logins,
            maillists,
            edges: Vec::new(),
            corrupt,
            net: None,
            caches: Vec::new(),
            generators: Vec::new(),
            dep,
        }
    }

    /// Traced run: counts the DCM's network legs and keeps the
    /// benchmark's own incremental caches, warmed on the current state.
    pub fn enable_trace(&mut self) {
        let net = Arc::new(CountingNet::new(self.dep.net.clone()));
        self.dep.dcm.set_network(net.clone());
        self.net = Some(net);
        self.generators = standard_generators();
        let st = self.dep.state.read();
        self.caches = self
            .generators
            .iter()
            .map(|g| refresh(g.as_ref(), &st, None).ok().map(|r| r.build))
            .collect();
    }

    fn exec(&self, st: &mut MoiraState, query: &str, args: &[&str]) -> Result<(), String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        self.dep
            .registry
            .execute(st, &self.admin, query, &args)
            .map(|_| ())
            .map_err(|e| format!("{query} {args:?}: {e:?}"))
    }

    /// Draws this cycle's batch from the seeded stream.
    fn draw(&mut self) -> Vec<Change> {
        let mut changes = Vec::new();
        let n = self.logins.len();
        let mut chosen = std::collections::BTreeSet::new();
        while chosen.len() < self.batch.min(n) {
            chosen.insert(self.rng.below(n as u64) as usize);
        }
        for u in chosen {
            let current = self.shells[u];
            let options: Vec<&str> = SHELLS.iter().copied().filter(|s| *s != current).collect();
            let shell = options[self.rng.below(options.len() as u64) as usize];
            self.shells[u] = shell;
            changes.push(Change::Shell {
                login: self.logins[u].clone(),
                shell: shell.to_owned(),
            });
        }
        let undone = std::mem::take(&mut self.edges);
        let st = self.dep.state.read();
        for k in 0..2 * MEMBERSHIP_CHANGES {
            let member = self.logins[self.rng.below(n as u64) as usize].clone();
            // Even draws: another user's personal group (a unix group);
            // odd draws: a public mailing list.
            let (list, gid) = if k % 2 == 0 {
                let owner = self.logins[self.rng.below(n as u64) as usize].clone();
                let gid = group_gid(&st, &owner);
                (owner, Some(gid))
            } else if self.maillists.is_empty() {
                continue;
            } else {
                let i = self.rng.below(self.maillists.len() as u64) as usize;
                (self.maillists[i].clone(), None)
            };
            let clash = undone
                .iter()
                .chain(&self.edges)
                .any(|e| e.list == list && e.member == member);
            if clash || list_has_user(&st, &list, &member) {
                continue;
            }
            self.edges.push(Edge { member, list, gid });
        }
        for edge in undone {
            changes.push(match edge.gid {
                Some(_) => Change::Group {
                    edge,
                    present: false,
                },
                None => Change::Mail {
                    edge,
                    present: false,
                },
            });
        }
        drop(st);
        for edge in &self.edges {
            changes.push(match edge.gid {
                Some(_) => Change::Group {
                    edge: edge.clone(),
                    present: true,
                },
                None => Change::Mail {
                    edge: edge.clone(),
                    present: true,
                },
            });
        }
        changes
    }

    /// Runs one cycle: commit, advance, DCM pass, probes.
    pub fn cycle(&mut self, layers: Option<&mut DcmLayers>) -> Cycle {
        let changes = self.draw();
        let mut failed = Vec::new();
        let t0 = Instant::now();
        {
            let mut st = self.dep.state.write();
            for c in &changes {
                let r = match c {
                    Change::Shell { login, shell } => {
                        self.exec(&mut st, "update_user_shell", &[login, shell])
                    }
                    Change::Group { edge, present } | Change::Mail { edge, present } => {
                        let q = if *present {
                            "add_member_to_list"
                        } else {
                            "delete_member_from_list"
                        };
                        self.exec(&mut st, q, &[&edge.list, "USER", &edge.member])
                    }
                };
                if let Err(e) = r {
                    failed.push(e);
                }
            }
        }
        // Past every service interval (the longest is 24 hours).
        self.dep.advance(24 * 3600 + 60);
        let t_dcm = Instant::now();
        self.dep.run_dcm_once();
        let dcm_ms = t_dcm.elapsed().as_secs_f64() * 1e3;
        for c in &changes {
            if let Err(e) = self.probe(c) {
                failed.push(e);
            }
        }
        let propagate_ms = t0.elapsed().as_secs_f64() * 1e3;
        if let Some(layers) = layers {
            layers.cycle_ms.push(dcm_ms);
            self.trace_layers(layers);
        }
        Cycle {
            propagate_ms,
            changes: changes.len(),
            failed,
        }
    }

    fn probe(&self, change: &Change) -> Result<(), String> {
        match change {
            Change::Shell { login, shell } => {
                let want = if self.corrupt {
                    "/bin/none"
                } else {
                    shell.as_str()
                };
                for (host, h) in &self.dep.hesiod {
                    let rows = h.lock().resolve(login, "passwd").unwrap_or_default();
                    if !rows
                        .iter()
                        .any(|r| r.trim_end_matches('"').ends_with(&format!(":{want}")))
                    {
                        return Err(format!(
                            "hesiod {host}: {login}.passwd = {rows:?}, want shell {want}"
                        ));
                    }
                }
            }
            Change::Group { edge, present } => {
                let gid = edge.gid.expect("group edge");
                for (host, h) in &self.dep.hesiod {
                    let rows = h
                        .lock()
                        .resolve(&edge.member, "grplist")
                        .unwrap_or_default();
                    // `login:group:gid:group:gid…`
                    let listed = rows.iter().any(|r| {
                        let fields: Vec<&str> = r.trim_matches('"').split(':').collect();
                        fields[1..].chunks(2).any(|p| p[0] == edge.list)
                    });
                    if listed != *present {
                        return Err(format!(
                            "hesiod {host}: {}.grplist {rows:?}, want {} present={present}",
                            edge.member, edge.list
                        ));
                    }
                }
                for (host, n) in &self.dep.nfs {
                    let gids = n
                        .lock()
                        .credential(&edge.member)
                        .map(|c| c.gids.clone())
                        .unwrap_or_default();
                    if gids.contains(&gid) != *present {
                        return Err(format!(
                            "nfs {host}: {} gids {gids:?}, want {gid} present={present}",
                            edge.member
                        ));
                    }
                }
            }
            Change::Mail { edge, present } => {
                for (host, m) in &self.dep.mail {
                    let found = m.lock().resolve(&edge.list).iter().any(
                        |d| matches!(d, Destination::PoBox { user, .. } if *user == edge.member),
                    );
                    if found != *present {
                        return Err(format!(
                            "mail {host}: {} -> {} present={found}, want {present}",
                            edge.list, edge.member
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// The traced run's layer timings, taken after the cycle's sample so
    /// they do not lengthen it.
    fn trace_layers(&mut self, layers: &mut DcmLayers) {
        let st = self.dep.state.read();
        let t = Instant::now();
        for (g, cache) in self.generators.iter().zip(self.caches.iter_mut()) {
            let prev = cache.take();
            *cache = refresh(g.as_ref(), &st, prev).ok().map(|r| r.build);
        }
        layers.refresh_ms.push(t.elapsed().as_secs_f64() * 1e3);
        for (svc, hosts) in [
            ("NFS", &self.dep.population.nfs_servers),
            ("PASSWD", &self.dep.population.dialup_servers),
        ] {
            for host in hosts.iter() {
                let mach_id = machine_id(&st, host);
                let t = Instant::now();
                let archive = if svc == "NFS" {
                    NfsGenerator::for_host(&st, mach_id, "")
                } else {
                    HostAccessGenerator::for_host(&st, mach_id)
                };
                std::hint::black_box(archive.map(|a| a.len()).ok());
                layers
                    .per_host_generate_ms
                    .push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
        drop(st);
        let t = Instant::now();
        self.replay_installs();
        layers.install_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }

    /// Loads the files the sim hosts now hold into fresh consumers, as the
    /// install scripts do.
    fn replay_installs(&self) {
        for name in self.dep.hesiod.keys() {
            let files = host_files(&self.dep, name, "HESIOD");
            let mut h = HesiodServer::new();
            for (file, text) in &files {
                if file.ends_with(".db") {
                    std::hint::black_box(h.load_db(text).ok());
                }
            }
        }
        for name in self.dep.mail.keys() {
            let mut m = MailHub::new();
            for (file, text) in host_files(&self.dep, name, "MAIL") {
                match file.as_str() {
                    "aliases" => std::hint::black_box(m.load_aliases(&text).ok()),
                    "passwd" => std::hint::black_box(m.load_passwd(&text).ok()),
                    _ => None,
                };
            }
        }
        for name in self.dep.nfs.keys() {
            let mut n = NfsServer::new();
            for (file, text) in host_files(&self.dep, name, "NFS") {
                let r = if file == "credentials" {
                    n.apply_credentials(&text)
                } else if file.ends_with(".quotas") {
                    n.apply_quotas(&text)
                } else if file.ends_with(".dirs") {
                    n.apply_dirs(&text)
                } else {
                    Ok(0)
                };
                std::hint::black_box(r.ok());
            }
        }
    }
}

/// The installed files of `service` on host `name`.
fn host_files(dep: &Deployment, name: &str, service: &str) -> Vec<(String, String)> {
    let prefix = format!("{}/", install_dir(service).trim_end_matches('/'));
    let host = dep.hosts[name].lock();
    let files: &BTreeMap<String, Vec<u8>> = host.files();
    files
        .iter()
        .filter(|(path, _)| {
            path.starts_with(&prefix)
                && !path.ends_with(".moira_update")
                && !path.ends_with(".moira_backup")
        })
        .map(|(path, data)| {
            (
                path[prefix.len()..].to_owned(),
                String::from_utf8_lossy(data).into_owned(),
            )
        })
        .collect()
}

fn group_gid(st: &MoiraState, list: &str) -> i64 {
    let t = st.db.table("list");
    let row = t
        .select_one(&Pred::Eq("name", list.into()))
        .expect("personal group exists");
    t.cell(row, "gid").as_int()
}

fn machine_id(st: &MoiraState, name: &str) -> i64 {
    let t = st.db.table("machine");
    let row = t
        .select_one(&Pred::Eq("name", name.into()))
        .expect("server host exists");
    t.cell(row, "mach_id").as_int()
}

fn list_has_user(st: &MoiraState, list: &str, login: &str) -> bool {
    let lists = st.db.table("list");
    let users = st.db.table("users");
    let (Some(l), Some(u)) = (
        lists.select_one(&Pred::Eq("name", list.into())),
        users.select_one(&Pred::Eq("login", login.into())),
    ) else {
        return false;
    };
    let list_id = lists.cell(l, "list_id").as_int();
    let users_id = users.cell(u, "users_id").as_int();
    st.db
        .table("members")
        .select_one(&Pred::And(vec![
            Pred::Eq("list_id", list_id.into()),
            Pred::Eq("member_type", "USER".into()),
            Pred::Eq("member_id", users_id.into()),
        ]))
        .is_some()
}
