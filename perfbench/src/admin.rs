//! `admin_writes`: durable mutations over loopback TCP.
//!
//! Each connection owns a disjoint slice of users, one list and a machine
//! name space, so the model of what a read must return is per connection.
//! The stream repeats three mutations then one point read of the row the
//! last mutation wrote (read-your-writes). Membership and machine edits
//! come in add/delete pairs, so the database size stays flat.

use std::sync::Arc;

use moira_common::errors::MrError;
use moira_common::rng::Mt;
use moira_core::registry::Registry;
use moira_core::state::{Caller, MoiraState};
use moira_protocol::wire::Request;
use parking_lot::Mutex;

use crate::campus::encode_replies;
use crate::load::{Class, Op, Replayed, Session};
use crate::setup::{mix, skewed, unit};
use crate::trace::Tracer;
use crate::wire::Answer;

const SHELLS: [&str; 6] = [
    "/bin/csh",
    "/bin/sh",
    "/bin/tcsh",
    "/bin/bash",
    "/bin/ksh",
    "/bin/zsh",
];

/// The list connection `conn` edits.
pub fn list_of(conn: usize) -> String {
    format!("perfbench-rw-{conn}")
}

/// The row the connection's last mutation wrote, and what a read of it
/// must show.
enum Written {
    Shell { login: String, shell: String },
    Finger { login: String, fullname: String },
    Member { login: String, present: bool },
    Machine { name: String, present: bool },
}

pub struct AdminSession {
    conn: usize,
    rng: Mt,
    users: Vec<String>,
    list: String,
    step: u64,
    serial: u64,
    /// A member added and not yet deleted.
    member_out: Option<String>,
    /// A machine added and not yet deleted.
    machine_out: Option<String>,
    last: Option<Written>,
    corrupt: bool,
    /// Traced run: a `NullStorage` copy of the population the mutations
    /// are replayed on, so the handler is timed without the WAL.
    replica: Option<Arc<Mutex<MoiraState>>>,
    registry: Arc<Registry>,
    caller: Caller,
}

impl AdminSession {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        seed: u64,
        conn: usize,
        users: Vec<String>,
        corrupt: bool,
        replica: Option<Arc<Mutex<MoiraState>>>,
        registry: Arc<Registry>,
        caller: Caller,
    ) -> AdminSession {
        AdminSession {
            conn,
            rng: Mt::new(mix(seed, 200 + conn as u64)),
            users,
            list: list_of(conn),
            step: 0,
            serial: 0,
            member_out: None,
            machine_out: None,
            last: None,
            corrupt,
            replica,
            registry,
            caller,
        }
    }

    fn pick_user(&mut self) -> String {
        let n = self.users.len();
        self.users[skewed(&mut self.rng, n)].clone()
    }

    fn next_write(&mut self) -> Op {
        self.serial += 1;
        let r = unit(&mut self.rng);
        let (op, written) = if r < 0.3 {
            let login = self.pick_user();
            let shell = SHELLS[self.rng.below(SHELLS.len() as u64) as usize].to_owned();
            (
                Op::new(
                    Class::Write,
                    "update_user_shell",
                    vec![login.clone(), shell.clone()],
                ),
                Written::Shell { login, shell },
            )
        } else if r < 0.6 {
            let login = self.pick_user();
            let fullname = format!("Bench User {} {}", self.conn, self.serial);
            let mut args = vec![login.clone(), fullname.clone()];
            args.extend(
                [
                    "nick",
                    "1 Main St",
                    "555-0100",
                    "E40-100",
                    "x3-0000",
                    "EECS",
                    "staff",
                ]
                .map(String::from),
            );
            (
                Op::new(Class::Write, "update_finger_by_login", args),
                Written::Finger { login, fullname },
            )
        } else if r < 0.8 {
            let (query, login, present) = match self.member_out.take() {
                Some(login) => ("delete_member_from_list", login, false),
                None => {
                    let login = self.pick_user();
                    self.member_out = Some(login.clone());
                    ("add_member_to_list", login, true)
                }
            };
            (
                Op::new(
                    Class::Write,
                    query,
                    vec![self.list.clone(), "USER".into(), login.clone()],
                ),
                Written::Member { login, present },
            )
        } else {
            let (op, name, present) = match self.machine_out.take() {
                Some(name) => (
                    Op::new(Class::Write, "delete_machine", vec![name.clone()]),
                    name,
                    false,
                ),
                None => {
                    let name = format!("PB{}-{}.MIT.EDU", self.conn, self.serial);
                    self.machine_out = Some(name.clone());
                    (
                        Op::new(Class::Write, "add_machine", vec![name.clone(), "RT".into()]),
                        name,
                        true,
                    )
                }
            };
            (op, Written::Machine { name, present })
        };
        self.last = Some(written);
        op
    }

    fn read_back(&self) -> Op {
        match self.last.as_ref().expect("a write precedes every read") {
            Written::Shell { login, .. } => {
                Op::new(Class::Point, "get_user_by_login", vec![login.clone()])
            }
            Written::Finger { login, .. } => {
                Op::new(Class::Point, "get_finger_by_login", vec![login.clone()])
            }
            Written::Member { login, .. } => Op::new(
                Class::Point,
                "get_lists_of_member",
                vec!["USER".into(), login.clone()],
            ),
            Written::Machine { name, .. } => {
                Op::new(Class::Point, "get_machine", vec![name.clone()])
            }
        }
    }
}

impl Session for AdminSession {
    fn next_op(&mut self) -> Op {
        self.step += 1;
        if self.step.is_multiple_of(4) {
            self.read_back()
        } else {
            self.next_write()
        }
    }

    fn check(&mut self, op: &Op, a: &Answer) -> Result<(), String> {
        let (status, tuples) = (a.status, &a.tuples);
        if op.class == Class::Write {
            return match (status, a.rows) {
                (0, 0) => Ok(()),
                _ => Err(format!(
                    "mutation answered status {status} with {} rows",
                    a.rows
                )),
            };
        }
        let field = |row: usize, col: usize| tuples.get(row).and_then(|t| t.get(col));
        let ok = match self.last.as_ref().expect("a write precedes every read") {
            Written::Shell { shell, .. } => {
                let want = if self.corrupt {
                    "/bin/none"
                } else {
                    shell.as_str()
                };
                status == 0 && field(0, 2).map(String::as_str) == Some(want)
            }
            Written::Finger { fullname, .. } => status == 0 && field(0, 1) == Some(fullname),
            Written::Member { present, .. } => {
                let on_list = tuples.iter().any(|t| t.first() == Some(&self.list));
                (status == 0 || status == MrError::NoMatch.code())
                    && a.rows == tuples.len()
                    && on_list == *present
            }
            Written::Machine {
                name,
                present: true,
            } => status == 0 && tuples.len() == 1 && field(0, 0) == Some(name),
            Written::Machine { present: false, .. } => {
                status == MrError::NoMatch.code() && tuples.is_empty()
            }
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "read-your-writes failed: status {status}, rows {:?}",
                tuples.iter().take(3).collect::<Vec<_>>()
            ))
        }
    }

    fn replay(&mut self, op: &Op, t: &mut Tracer, parent: usize, req: u64) -> Replayed {
        let replica = self
            .replica
            .as_ref()
            .expect("traced run has a replica")
            .clone();
        let (decoded, decode) = t.time("protocol.decode", Some(parent), req, || {
            Request::decode(op.frame.clone())
        });
        std::hint::black_box(decoded.is_ok());
        let mut state = replica.lock();
        let (_, check) = t.time("access.check", Some(parent), req, || {
            self.registry
                .check_access(&state, &self.caller, &op.query, &op.args)
        });
        let (rows, execute) = if op.class == Class::Write {
            t.time("registry.execute.write", Some(parent), req, || {
                self.registry
                    .execute(&mut state, &self.caller, &op.query, &op.args)
            })
        } else {
            t.time("registry.execute_read.point", Some(parent), req, || {
                self.registry
                    .execute_read(&state, &self.caller, &op.query, &op.args)
            })
        };
        drop(state);
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
}
