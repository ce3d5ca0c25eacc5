//! The closed-loop TCP load generator shared by `campus_reads` and
//! `admin_writes`: one thread per connection, each sending its next
//! request only after the previous reply arrived.

use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use bytes::Bytes;
use moira_protocol::wire::{MajorRequest, Request};

use crate::stats::Samples;
use crate::trace::Tracer;
use crate::wire::{Answer, Client};

/// Request classes, each with its own latency distribution.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    Point,
    Scan,
    Write,
}

impl Class {
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One request of a connection's seeded stream.
pub struct Op {
    pub class: Class,
    pub query: String,
    pub args: Vec<String>,
    pub frame: Bytes,
}

impl Op {
    pub fn new(class: Class, query: &str, args: Vec<String>) -> Op {
        let mut all: Vec<&str> = vec![query];
        all.extend(args.iter().map(String::as_str));
        let frame = Request::new(MajorRequest::Query, &all).encode();
        Op {
            class,
            query: query.to_owned(),
            args,
            frame,
        }
    }
}

/// Per-request layer times gathered by a traced replay, in nanoseconds.
#[derive(Default, Clone, Copy)]
pub struct Replayed {
    pub decode: u64,
    pub check: u64,
    pub execute: u64,
    pub encode: u64,
    pub frames: u64,
}

/// A connection's request stream, its model of correct replies, and (for
/// the traced run) the in-process replay of each request's layers.
pub trait Session: Send {
    fn next_op(&mut self) -> Op;
    /// Checks one reply stream against the model.
    fn check(&mut self, op: &Op, answer: &Answer) -> Result<(), String>;
    /// Re-executes the request's layers in process, recording spans under
    /// `parent`.
    fn replay(&mut self, op: &Op, t: &mut Tracer, parent: usize, req: u64) -> Replayed;
}

/// Length of the windows a phase is cut into; the gated figures are
/// medians over windows, so a short burst of outside load on the host
/// moves them less than it moves whole-run figures.
pub const WINDOW: Duration = Duration::from_secs(1);

/// What one phase of closed-loop load measured.
#[derive(Default)]
pub struct Phase {
    /// Client round trips in microseconds, by class.
    pub rtt_us: [Samples; 3],
    /// The same samples, per window.
    windows: Vec<[Samples; 3]>,
    pub seconds: f64,
}

impl Phase {
    fn new(length: Duration) -> Phase {
        let n = (length.as_secs_f64() / WINDOW.as_secs_f64())
            .floor()
            .max(1.0) as usize;
        Phase {
            windows: (0..n).map(|_| Default::default()).collect(),
            seconds: length.as_secs_f64(),
            ..Default::default()
        }
    }

    /// Records a round trip that started `at` after the phase began; the
    /// last window also takes the overrun past the phase's end.
    fn record(&mut self, class: Class, rtt_us: f64, at: Duration) {
        let w = ((at.as_secs_f64() / WINDOW.as_secs_f64()) as usize).min(self.windows.len() - 1);
        self.rtt_us[class.index()].push(rtt_us);
        self.windows[w][class.index()].push(rtt_us);
    }

    pub fn completed(&self) -> usize {
        self.rtt_us.iter().map(Samples::len).sum()
    }

    pub fn requests_per_s(&self) -> f64 {
        self.completed() as f64 / self.seconds
    }

    /// Each window's median round trip of `class`.
    pub fn window_p50s(&self, class: Class) -> Samples {
        let mut per = Samples::default();
        for w in &self.windows {
            let mut s = w[class.index()].clone();
            if s.len() > 0 {
                per.push(s.p50());
            }
        }
        per
    }

    /// Median over windows of requests completed per second.
    pub fn windowed_rate(&self) -> f64 {
        let window_s = self.seconds / self.windows.len() as f64;
        let mut per = Samples::default();
        for w in &self.windows {
            per.push(w.iter().map(Samples::len).sum::<usize>() as f64 / window_s);
        }
        per.p50()
    }

    fn absorb(&mut self, other: &Phase) {
        for (a, b) in self.rtt_us.iter_mut().zip(&other.rtt_us) {
            a.extend(b);
        }
        for (mine, theirs) in self.windows.iter_mut().zip(&other.windows) {
            for (a, b) in mine.iter_mut().zip(theirs) {
                a.extend(b);
            }
        }
        self.seconds = self.seconds.max(other.seconds);
    }
}

/// Layer totals from the traced phase.
#[derive(Default)]
pub struct LayerAcc {
    pub decode_us: Samples,
    pub check_us: [Samples; 3],
    pub execute_us: [Samples; 3],
    pub encode_ns: u64,
    pub frames: u64,
    /// Client round trip and in-process layer sum per traced request.
    pub rtt_us: Samples,
    pub layer_sum_us: Samples,
}

impl LayerAcc {
    fn add(&mut self, class: Class, rtt_us: f64, r: Replayed) {
        let us = |ns: u64| ns as f64 / 1e3;
        self.decode_us.push(us(r.decode));
        self.check_us[class.index()].push(us(r.check));
        self.execute_us[class.index()].push(us(r.execute));
        self.encode_ns += r.encode;
        self.frames += r.frames;
        self.rtt_us.push(rtt_us);
        self.layer_sum_us.push(us(r.decode + r.execute + r.encode));
    }

    fn absorb(&mut self, o: LayerAcc) {
        self.decode_us.extend(&o.decode_us);
        for i in 0..3 {
            self.check_us[i].extend(&o.check_us[i]);
            self.execute_us[i].extend(&o.execute_us[i]);
        }
        self.encode_ns += o.encode_ns;
        self.frames += o.frames;
        self.rtt_us.extend(&o.rtt_us);
        self.layer_sum_us.extend(&o.layer_sum_us);
    }
}

/// The whole run: an untraced phase, then (traced runs only) a traced one.
pub struct LoadResult {
    /// Requests completed per class over the whole run, warm-up included.
    pub completed: [u64; 3],
    /// Tuples the server returned over the whole run, and tuples the
    /// traced replays returned.
    pub tuples: u64,
    pub replay_tuples: u64,
    pub plain: Phase,
    pub traced: Option<Phase>,
    pub layers: LayerAcc,
    pub tracer: Tracer,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
}

pub struct LoadPlan {
    pub warmup: Duration,
    pub plain: Duration,
    pub traced: Option<Duration>,
}

/// Runs every session on its own connection, authenticated as
/// `principal`, under `plan`.
pub fn drive(
    addr: SocketAddr,
    principal: &str,
    sessions: Vec<Box<dyn Session>>,
    plan: &LoadPlan,
    epoch: Instant,
) -> LoadResult {
    let barrier = Arc::new(Barrier::new(sessions.len()));
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .into_iter()
            .enumerate()
            .map(|(conn, session)| {
                let barrier = barrier.clone();
                scope.spawn(move || {
                    run_connection(addr, principal, conn, session, plan, &barrier, epoch)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut result = LoadResult::new(plan, epoch);
    for o in outcomes {
        result.absorb(o);
    }
    result
}

impl LoadResult {
    fn new(plan: &LoadPlan, epoch: Instant) -> LoadResult {
        LoadResult {
            completed: [0; 3],
            tuples: 0,
            replay_tuples: 0,
            plain: Phase::new(plan.plain),
            traced: plan.traced.map(Phase::new),
            layers: LayerAcc::default(),
            tracer: Tracer::new(epoch),
            attempted: 0,
            failed: 0,
            mismatches: Vec::new(),
        }
    }

    fn absorb(&mut self, o: LoadResult) {
        self.plain.absorb(&o.plain);
        if let (Some(t), Some(ot)) = (self.traced.as_mut(), o.traced.as_ref()) {
            t.absorb(ot);
        }
        self.layers.absorb(o.layers);
        self.tracer.absorb(o.tracer);
        for (a, b) in self.completed.iter_mut().zip(o.completed) {
            *a += b;
        }
        self.tuples += o.tuples;
        self.replay_tuples += o.replay_tuples;
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.mismatches.extend(o.mismatches);
    }
}

fn run_connection(
    addr: SocketAddr,
    principal: &str,
    conn: usize,
    mut session: Box<dyn Session>,
    plan: &LoadPlan,
    barrier: &Barrier,
    epoch: Instant,
) -> LoadResult {
    let mut client = Client::login(addr, principal).expect("load connection authenticates");
    let mut out = LoadResult::new(plan, epoch);
    barrier.wait();
    let start = Instant::now();
    let warm_end = start + plan.warmup;
    let plain_end = warm_end + plan.plain;
    let end = plain_end + plan.traced.unwrap_or_default();
    let mut seq = 0u64;
    loop {
        let now = Instant::now();
        if now >= end {
            break;
        }
        let traced = now >= plain_end;
        let op = session.next_op();
        let req = ((conn as u64) << 48) | seq;
        seq += 1;
        let t_send = out.tracer.now();
        let t0 = Instant::now();
        let answer = client.call(&op.frame).expect("server connection stays up");
        let rtt_us = t0.elapsed().as_nanos() as f64 / 1e3;
        let t_reply = out.tracer.now();
        out.attempted += 1;
        out.completed[op.class.index()] += 1;
        out.tuples += answer.rows as u64;
        if let Err(why) = session.check(&op, &answer) {
            out.failed += 1;
            if out.mismatches.len() < 5 {
                out.mismatches
                    .push(format!("conn {conn}: {} {:?}: {why}", op.query, op.args));
            }
        }
        if now < warm_end {
            continue;
        }
        if traced {
            let root = out.tracer.record("request", t_send, t_send, None, req);
            out.tracer
                .record("rpc.roundtrip", t_send, t_reply, Some(root), req);
            let r = session.replay(&op, &mut out.tracer, root, req);
            out.replay_tuples += r.frames - 1;
            out.tracer.spans[root].end = out.tracer.now();
            out.layers.add(op.class, rtt_us, r);
            let at = now.saturating_duration_since(plain_end);
            out.traced
                .as_mut()
                .expect("traced phase")
                .record(op.class, rtt_us, at);
        } else {
            out.plain.record(op.class, rtt_us, now - warm_end);
        }
    }
    out
}
