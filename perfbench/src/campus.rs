//! `campus_reads`: read-only admin traffic over loopback TCP.
//!
//! About 7 in 8 requests are point retrieves on a skewed key choice; the
//! rest are multi-tuple scans of 10 to 2,000 rows. Both connections
//! authenticate as a non-root administrator, so every ACL decision goes
//! through list membership and the access cache.

use std::sync::Arc;

use moira_common::rng::Mt;
use moira_core::registry::Registry;
use moira_core::state::{Caller, MoiraState, SharedState};
use moira_protocol::wire::{Reply, Request};

use crate::load::{Class, Op, Replayed, Session};
use crate::setup::{add_list, mix, root_exec, skewed};
use crate::trace::Tracer;
use crate::wire::{Answer, Fingerprint};

/// Point queries, each keyed by a user.
pub const POINT_QUERIES: [&str; 5] = [
    "get_user_by_login",
    "get_user_by_uid",
    "get_pobox",
    "get_filesys_by_label",
    "get_list_info",
];

const COURSE_LISTS: usize = 24;
const COURSE_STAFF: usize = 12;
const BUILDINGS: [&str; 6] = ["E40", "W20", "NE43", "4", "37", "66"];

/// Extra lists: course lists of 10 to 2,000 members sharing a staff
/// whose members are therefore on many lists. Returns the staff logins.
pub fn add_course_lists(
    state: &mut MoiraState,
    registry: &Registry,
    logins: &[String],
    seed: u64,
) -> Vec<String> {
    let mut rng = Mt::new(mix(seed, 2));
    let mut pool: Vec<String> = logins.to_vec();
    rng.shuffle(&mut pool);
    let (staff, students) = pool.split_at(COURSE_STAFF.min(pool.len()));
    for i in 0..COURSE_LISTS {
        let name = format!("course-{i:02}");
        add_list(state, registry, &name, true, true);
        // Sizes are log-spaced over [10, 2000] whatever the seed, so every
        // seed asks for the same amount of scan work; the members are seeded.
        let size = (10.0 * 200f64.powf(i as f64 / (COURSE_LISTS - 1) as f64)).round() as usize;
        for s in staff {
            root_exec(state, registry, "add_member_to_list", &[&name, "USER", s]);
        }
        let extra = size.saturating_sub(staff.len()).min(students.len());
        let offset = rng.below(students.len().max(1) as u64) as usize;
        for k in 0..extra {
            let m = &students[(offset + k) % students.len()];
            root_exec(state, registry, "add_member_to_list", &[&name, "USER", m]);
        }
    }
    staff.to_vec()
}

/// What a scan request should return.
#[derive(Clone, Copy)]
struct ScanExpect {
    rows: usize,
    fp: u64,
}

/// The reference answers: computed once, in process, on the quiescent
/// state before load starts, then cross-checked on key fields.
pub struct Oracle {
    users: Vec<String>,
    uids: Vec<String>,
    /// `point[user][query]` fingerprint.
    point: Vec<[u64; 5]>,
    scans: [Vec<(Vec<String>, ScanExpect)>; 3],
}

pub const SCAN_QUERIES: [&str; 3] = ["get_machine", "get_members_of_list", "get_lists_of_member"];

impl Oracle {
    pub fn build(
        state: &MoiraState,
        registry: &Registry,
        caller: &Caller,
        logins: &[String],
        staff: &[String],
        corrupt: bool,
    ) -> Oracle {
        let run = |q: &str, args: &[String]| -> Vec<Vec<String>> {
            registry
                .execute_read(state, caller, q, args)
                .unwrap_or_else(|e| panic!("reference {q} {args:?} failed: {e:?}"))
        };
        let mut users = Vec::with_capacity(logins.len());
        let mut uids = Vec::with_capacity(logins.len());
        let mut point = Vec::with_capacity(logins.len());
        for login in logins {
            let by_login = run("get_user_by_login", std::slice::from_ref(login));
            assert!(
                by_login.len() == 1 && by_login[0][0] == *login,
                "reference row for {login}"
            );
            let uid = by_login[0][1].clone();
            let mut fps = [0u64; 5];
            for (i, q) in POINT_QUERIES.iter().enumerate() {
                let key = if i == 1 { uid.clone() } else { login.clone() };
                let rows = run(q, &[key]);
                assert!(
                    rows.len() == 1 && rows[0][0] == *login,
                    "reference {q} for {login} returned {} rows",
                    rows.len()
                );
                fps[i] = Fingerprint::of(&rows);
            }
            if corrupt {
                fps[0] ^= 1;
            }
            users.push(login.clone());
            uids.push(uid);
            point.push(fps);
        }
        let mut patterns = vec!["*".to_owned()];
        for b in BUILDINGS {
            patterns.push(format!("{b}-*"));
            for d in 0..5 {
                patterns.push(format!("{b}-{d}*"));
            }
        }
        let lists: Vec<String> = (0..COURSE_LISTS)
            .map(|i| format!("course-{i:02}"))
            .collect();
        let keys: [Vec<Vec<String>>; 3] = [
            patterns.into_iter().map(|p| vec![p]).collect(),
            lists.into_iter().map(|l| vec![l]).collect(),
            staff
                .iter()
                .map(|s| vec!["USER".to_owned(), s.clone()])
                .collect(),
        ];
        let scans: [Vec<(Vec<String>, ScanExpect)>; 3] = std::array::from_fn(|kind| {
            keys[kind]
                .iter()
                .filter_map(|args| {
                    // A pattern nothing matches is simply not a key.
                    let rows = registry
                        .execute_read(state, caller, SCAN_QUERIES[kind], args)
                        .ok()?;
                    let expect = ScanExpect {
                        rows: rows.len(),
                        fp: Fingerprint::of(&rows),
                    };
                    (10..=2000)
                        .contains(&rows.len())
                        .then(|| (args.clone(), expect))
                })
                .collect()
        });
        for (q, keys) in SCAN_QUERIES.iter().zip(&scans) {
            assert!(!keys.is_empty(), "no {q} key returns 10..=2000 rows");
        }
        Oracle {
            users,
            uids,
            point,
            scans,
        }
    }

    /// `(query kind, key count, min rows, max rows)` per scan kind.
    pub fn scan_shape(&self) -> Vec<(&'static str, usize, usize, usize)> {
        SCAN_QUERIES
            .iter()
            .zip(&self.scans)
            .map(|(q, keys)| {
                let rows = keys.iter().map(|(_, e)| e.rows);
                (
                    *q,
                    keys.len(),
                    rows.clone().min().unwrap_or(0),
                    rows.max().unwrap_or(0),
                )
            })
            .collect()
    }
}

/// One campus connection: its seeded stream and the shared oracle.
pub struct CampusSession {
    rng: Mt,
    /// Hot-first order of user indices for this run.
    order: Arc<Vec<usize>>,
    oracle: Arc<Oracle>,
    /// For the traced replay.
    state: SharedState,
    registry: Arc<Registry>,
    caller: Caller,
    /// Which expectation the current op is checked against.
    pending: Expect,
}

enum Expect {
    Point(usize, usize),
    Scan(usize, usize),
}

impl CampusSession {
    pub fn new(
        seed: u64,
        conn: usize,
        order: Arc<Vec<usize>>,
        oracle: Arc<Oracle>,
        state: SharedState,
        registry: Arc<Registry>,
        caller: Caller,
    ) -> CampusSession {
        CampusSession {
            rng: Mt::new(mix(seed, 100 + conn as u64)),
            order,
            oracle,
            state,
            registry,
            caller,
            pending: Expect::Point(0, 0),
        }
    }
}

/// A hot-first permutation of `n` user indices.
pub fn hot_order(seed: u64, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    Mt::new(mix(seed, 3)).shuffle(&mut v);
    v
}

impl Session for CampusSession {
    fn next_op(&mut self) -> Op {
        if self.rng.below(8) == 0 {
            let kind = self.rng.below(3) as usize;
            let keys = &self.oracle.scans[kind];
            let k = self.rng.below(keys.len() as u64) as usize;
            self.pending = Expect::Scan(kind, k);
            Op::new(Class::Scan, SCAN_QUERIES[kind], keys[k].0.clone())
        } else {
            let q = self.rng.below(5) as usize;
            let u = self.order[skewed(&mut self.rng, self.order.len())];
            self.pending = Expect::Point(u, q);
            let key = if q == 1 {
                self.oracle.uids[u].clone()
            } else {
                self.oracle.users[u].clone()
            };
            Op::new(Class::Point, POINT_QUERIES[q], vec![key])
        }
    }

    fn check(&mut self, _op: &Op, a: &Answer) -> Result<(), String> {
        if a.status != 0 {
            return Err(format!("status {}", a.status));
        }
        match self.pending {
            Expect::Point(u, q) => {
                let login = &self.oracle.users[u];
                if a.rows != 1 || a.tuples[0].first() != Some(login) {
                    return Err(format!("expected one row for {login}, got {}", a.rows));
                }
                if a.fp != self.oracle.point[u][q] {
                    return Err("row differs from the reference".into());
                }
            }
            Expect::Scan(kind, k) => {
                let want = self.oracle.scans[kind][k].1;
                if a.rows != want.rows {
                    return Err(format!("expected {} rows, got {}", want.rows, a.rows));
                }
                if a.fp != want.fp {
                    return Err("rows differ from the reference".into());
                }
            }
        }
        Ok(())
    }

    fn replay(&mut self, op: &Op, t: &mut Tracer, parent: usize, req: u64) -> Replayed {
        replay_read(
            &self.state,
            &self.registry,
            &self.caller,
            op,
            t,
            parent,
            req,
        )
    }
}

/// The in-process layers of one read, timed under `parent`: decode, ACL
/// check, `execute_read` (which repeats the check), and encoding the rows
/// it returned as reply frames.
pub fn replay_read(
    state: &SharedState,
    registry: &Registry,
    caller: &Caller,
    op: &Op,
    t: &mut Tracer,
    parent: usize,
    req: u64,
) -> Replayed {
    let (decoded, decode) = t.time("protocol.decode", Some(parent), req, || {
        Request::decode(op.frame.clone())
    });
    std::hint::black_box(decoded.is_ok());
    let guard = state.read();
    let (_, check) = t.time("access.check", Some(parent), req, || {
        registry.check_access(&guard, caller, &op.query, &op.args)
    });
    let name = if op.class == Class::Scan {
        "registry.execute_read.scan"
    } else {
        "registry.execute_read.point"
    };
    let (rows, execute) = t.time(name, Some(parent), req, || {
        registry.execute_read(&guard, caller, &op.query, &op.args)
    });
    drop(guard);
    let rows = rows.unwrap_or_default();
    let encode = encode_replies(t, parent, req, &rows);
    Replayed {
        decode,
        check,
        execute,
        encode,
        frames: rows.len() as u64 + 1,
    }
}

/// Times encoding a reply stream (every tuple frame plus the status);
/// returns nanoseconds.
pub fn encode_replies(t: &mut Tracer, parent: usize, req: u64, rows: &[Vec<String>]) -> u64 {
    t.time("protocol.encode", Some(parent), req, || {
        for row in rows {
            std::hint::black_box(Reply::tuple(row).encode());
        }
        std::hint::black_box(Reply::status(0).encode());
    })
    .1
}
