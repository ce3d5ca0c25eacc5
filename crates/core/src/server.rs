//! The Moira server loop (§5.4), split into read/write dispatch tiers.
//!
//! "The Moira server runs as a single UNIX process on the Moira database
//! machine. It listens for TCP/IP connections on a well known service port,
//! and processes remote procedure call requests on each connection it
//! accepts." The loop is non-blocking: each [`MoiraServer::poll_once`] makes
//! progress on every live connection (reading new requests, sending
//! replies), which is what let the original stay a single process while
//! "reading new RPC requests and sending old replies simultaneously".
//!
//! The state sits behind a reader-writer lock, and each poll pass
//! classifies ready requests before dispatch. Retrieve-class queries (and
//! `Access` pre-checks) run inline under **one shared guard** per pass, so
//! the DCM and other readers can hold shared guards alongside them;
//! mutations, `Authenticate`, and `Trigger_DCM` drain **serially** under the
//! exclusive guard. Per connection, FIFO order is preserved: a connection's
//! leading run of reads joins the read tier, and from its first write onward
//! the remainder of its batch executes in order on the write tier, so a read
//! that follows a write always observes it. Lock
//! acquisition is bounded — a tier that cannot get its guard within a fixed
//! number of attempts sheds its requests with [`MrError::Busy`] instead of
//! blocking the loop, reporting contention rather than waiting forever.
//!
//! The expensive database backend is initialized **once**, at server
//! construction — the Athenareg lesson: "starting up a backend process is a
//! rather heavyweight operation, the Moira server will do this only once,
//! at the start up time of the daemon" (benchmarked as experiment E5).

use std::collections::HashMap;
use std::io;
use std::net::TcpListener;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::{Duration, Instant};

use moira_common::errors::MrError;
use moira_krb::ticket::{Authenticator, Ticket, Verifier};
use moira_protocol::transport::{Channel, TcpChannel};
use moira_protocol::wire::{check_version, MajorRequest, Reply, Request};

use crate::access;
use crate::reactor::{Reactor, ReadySet, Waker, LISTENER_KEY};
use crate::registry::Registry;
use crate::state::{shared, Caller, ClientInfo, MoiraState, SharedState};

/// The Moira server's registered service port (a period-appropriate pick
/// for the "well known port (T.B.S.)").
pub const MOIRA_PORT: u16 = 775;

/// Try-lock attempts (with a scheduler yield between each) before a tier
/// gives up on its guard and sheds the batch with `MR_BUSY`.
const LOCK_PATIENCE: u32 = 512;

/// Wait clamp when some source cannot deliver readiness events — an
/// unregistered fd, a selector-less platform, or a paused connection whose
/// resume condition (the peer draining an in-process queue) produces no
/// event. The loop ticks at this cadence instead of blocking the full
/// timeout, so degraded sources are still served within a millisecond.
const SCAN_TICK: Duration = Duration::from_millis(1);

/// Fallback wait bound for [`MoiraServer::run`]: how stale the `stop` flag
/// check may go when no [`Waker`] fires. Wakers make shutdown immediate;
/// this only caps the worst case.
const RUN_TICK: Duration = Duration::from_millis(25);

struct Connection {
    chan: Box<dyn Channel>,
    caller: Caller,
    client_number: u64,
    /// Stable reactor registration key (connection indexes shift on
    /// removal; keys never do).
    key: usize,
    /// The channel's readiness fd, if it has one.
    fd: Option<polling::RawFd>,
    /// True once `fd` is registered with the reactor; unregistered
    /// connections are scanned every pass instead.
    registered: bool,
    /// Read interest as the reactor currently knows it.
    reg_read: bool,
    /// Write interest as the reactor currently knows it.
    reg_write: bool,
    /// Backpressure engaged: the outbox passed its cap, read interest is
    /// withdrawn until the peer drains below the low-water mark (cap/2).
    /// A paused peer is never disconnected — it just stops being read.
    paused: bool,
}

/// How one ready frame is dispatched.
enum Work {
    /// Answered without touching state (noop, decode/version errors, sheds).
    Done(Vec<Reply>),
    /// Shared-tier request: an `Access` pre-check or a retrieve-class query.
    Read { access: bool, args: Vec<String> },
    /// Exclusive-tier request, processed in arrival order.
    Write(Request),
}

/// One classified frame: which connection it came from, its slot in that
/// connection's reply order, and the work to do.
struct TaskSlot {
    conn: usize,
    work: Work,
    /// Caller snapshot taken at classification time. Only the read tier
    /// consumes it — and there it cannot be stale, because an `Auth` frame
    /// forces the rest of that connection's batch onto the serial tier. The
    /// serial tier instead re-resolves the caller from the connection at
    /// dispatch time, so a request pipelined behind an `Auth` in the same
    /// pass executes under the just-authenticated principal.
    caller: Caller,
}

/// Connection bookkeeping one poll pass accumulates across its phases.
#[derive(Default)]
struct PassBook {
    /// Connections to tear down at the end of the pass.
    dead: Vec<usize>,
    /// Connections whose reactor interest must be re-synced.
    touched: Vec<usize>,
}

/// The Moira server: one process, two dispatch tiers.
pub struct MoiraServer {
    state: SharedState,
    registry: Arc<Registry>,
    verifier: Option<Verifier>,
    connections: Vec<Connection>,
    listener: Option<TcpListener>,
    /// When set, at most this many requests are dispatched per poll pass;
    /// excess requests are shed with [`MrError::Busy`] instead of queueing
    /// unboundedly behind the loop.
    overload_limit: Option<usize>,
    /// Requests shed with `Busy` over the server's lifetime.
    shed_requests: u64,
    /// Requests executed on the shared tier over the server's lifetime
    /// (requests shed with `Busy` are not counted).
    reads_dispatched: u64,
    /// Requests executed on the exclusive tier over the server's lifetime
    /// (requests shed with `Busy` are not counted).
    writes_dispatched: u64,
    /// The state's instrument registry (cached so the dispatch path never
    /// takes the state lock just to record).
    obs: moira_obs::Registry,
    /// Mirror of `reads_dispatched` in the registry.
    obs_reads: moira_obs::Counter,
    /// Mirror of `writes_dispatched` in the registry.
    obs_writes: moira_obs::Counter,
    /// Mirror of `shed_requests` in the registry.
    obs_sheds: moira_obs::Counter,
    /// Shared-tier handler service times.
    obs_read_latency: moira_obs::Histo,
    /// Exclusive-tier handler service times.
    obs_write_latency: moira_obs::Histo,
    /// Readiness event source for the connection tier.
    reactor: Reactor,
    /// Registration key → current index in `connections`.
    key_map: HashMap<usize, usize>,
    /// Next connection registration key.
    next_key: usize,
    /// True once the TCP listener's fd is registered with the reactor.
    listener_registered: bool,
    /// Per-connection outbox cap override applied at attach time.
    write_cap: Option<usize>,
    /// Live connections right now.
    obs_conn_open: moira_obs::Gauge,
    /// Connections accepted over the server's lifetime.
    obs_conn_accepted: moira_obs::Counter,
    /// Connections torn down over the server's lifetime.
    obs_conn_closed: moira_obs::Counter,
    /// Pause transitions: times a connection's outbox crossed its cap and
    /// read interest was withdrawn.
    obs_backpressure: moira_obs::Counter,
    /// Readiness-to-dispatch wait: time from the reactor wait returning to
    /// a request beginning execution on its tier.
    obs_ready_latency: moira_obs::Histo,
}

impl MoiraServer {
    /// Creates a server over shared state and a query registry.
    ///
    /// With `verifier` set, `Authenticate` requests must carry Kerberos
    /// tickets; without one the server runs in trusted mode (in-process
    /// deployments and tests) where the authenticator is a bare principal
    /// name.
    pub fn new(
        state: SharedState,
        registry: Arc<Registry>,
        verifier: Option<Verifier>,
    ) -> MoiraServer {
        let obs = state.read().obs.clone();
        MoiraServer {
            obs_reads: obs.counter("server.reads_dispatched"),
            obs_writes: obs.counter("server.writes_dispatched"),
            obs_sheds: obs.counter("server.shed_requests"),
            obs_read_latency: obs.histogram("server.latency.read"),
            obs_write_latency: obs.histogram("server.latency.write"),
            obs_conn_open: obs.gauge("server.connections.open"),
            obs_conn_accepted: obs.counter("server.connections.accepted"),
            obs_conn_closed: obs.counter("server.connections.closed"),
            obs_backpressure: obs.counter("server.backpressure.engaged"),
            obs_ready_latency: obs.histogram("server.latency.readiness_to_dispatch"),
            obs,
            reactor: Reactor::new(),
            key_map: HashMap::new(),
            next_key: 0,
            listener_registered: false,
            write_cap: None,
            state,
            registry,
            verifier,
            connections: Vec::new(),
            listener: None,
            overload_limit: None,
            shed_requests: 0,
            reads_dispatched: 0,
            writes_dispatched: 0,
        }
    }

    /// The state's instrument registry (snapshot it for dispatch counters
    /// and per-tier latency histograms).
    pub fn obs(&self) -> moira_obs::Registry {
        self.obs.clone()
    }

    /// The shared state handle.
    pub fn state(&self) -> SharedState {
        self.state.clone()
    }

    /// Bounds in-flight work: at most `limit` requests are dispatched per
    /// poll pass, and the rest receive [`MrError::Busy`] — a distinct,
    /// retryable status well-behaved clients back off from. `None` removes
    /// the bound.
    pub fn set_overload_limit(&mut self, limit: Option<usize>) {
        self.overload_limit = limit;
    }

    /// Requests shed with `Busy` since the server started.
    pub fn shed_requests(&self) -> u64 {
        self.shed_requests
    }

    /// Requests executed on the (shared, exclusive) tiers so far. Requests
    /// shed with `Busy` count toward [`MoiraServer::shed_requests`], not
    /// here.
    pub fn dispatch_counts(&self) -> (u64, u64) {
        (self.reads_dispatched, self.writes_dispatched)
    }

    /// Attaches an already-connected channel (the in-process transport),
    /// registering its readiness fd with the reactor when it has one.
    pub fn attach(&mut self, mut chan: Box<dyn Channel>, host: &str, port: u16) {
        let mut state = self.state.write();
        let client_number = state.next_client_number();
        let connect_time = state.now();
        state.clients.push(ClientInfo {
            principal: None,
            host: host.to_owned(),
            port,
            connect_time,
            client_number,
        });
        drop(state);
        if let Some(cap) = self.write_cap {
            chan.set_write_cap(cap);
        }
        let key = self.next_key;
        self.next_key += 1;
        let fd = chan.raw_fd();
        let registered = fd.is_some_and(|fd| self.reactor.register(fd, key, true, false));
        self.key_map.insert(key, self.connections.len());
        self.connections.push(Connection {
            chan,
            caller: Caller::anonymous("unknown"),
            client_number,
            key,
            fd,
            registered,
            reg_read: true,
            reg_write: false,
            paused: false,
        });
        self.obs_conn_accepted.inc();
        self.obs_conn_open.set(self.connections.len() as i64);
    }

    /// Starts listening on a TCP address (pass port 0 for an ephemeral
    /// port); returns the bound address.
    pub fn listen_tcp(&mut self, addr: &str) -> io::Result<std::net::SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let bound = listener.local_addr()?;
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            self.listener_registered =
                self.reactor
                    .register(listener.as_raw_fd(), LISTENER_KEY, true, false);
        }
        self.listener = Some(listener);
        Ok(bound)
    }

    /// Overrides every connection's outbox cap — existing and future. The
    /// backpressure tests and benches use tiny caps to make the pause
    /// observable; production keeps the transport default.
    pub fn set_write_cap(&mut self, cap: usize) {
        self.write_cap = Some(cap);
        for conn in &mut self.connections {
            conn.chan.set_write_cap(cap);
        }
    }

    /// A handle that interrupts a blocked [`MoiraServer::run`] /
    /// [`MoiraServer::poll_with_timeout`] wait from another thread.
    pub fn waker(&self) -> Waker {
        self.reactor.waker()
    }

    /// Number of live connections.
    pub fn connection_count(&self) -> usize {
        self.connections.len()
    }

    /// Outbox depth (bytes queued toward the peer, not yet taken by the
    /// OS or consumed by the peer) per live connection. The benches and
    /// adversarial tests assert bounded growth under never-draining
    /// readers with this.
    pub fn connection_queued_bytes(&self) -> Vec<usize> {
        self.connections
            .iter()
            .map(|c| c.chan.queued_bytes())
            .collect()
    }

    fn accept_pending(&mut self) {
        let mut accepted = Vec::new();
        if let Some(listener) = &self.listener {
            loop {
                match listener.accept() {
                    Ok((stream, peer)) => accepted.push((stream, peer)),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }
        for (stream, peer) in accepted {
            if let Ok(chan) = TcpChannel::new(stream) {
                self.attach(Box::new(chan), &peer.ip().to_string(), peer.port());
            }
        }
    }

    /// Classifies one ready frame. `serial` is set once an earlier frame of
    /// the same connection took the write tier: everything after it stays
    /// there, in arrival order.
    fn classify(&self, conn: usize, frame: bytes::Bytes, serial: bool) -> TaskSlot {
        let caller = self.connections[conn].caller.clone();
        let work = (|| {
            let request = match Request::decode(frame) {
                Ok(r) => r,
                Err(e) => return Work::Done(vec![Reply::status(e.code())]),
            };
            if let Err(e) = check_version(request.version) {
                return Work::Done(vec![Reply::status(e.code())]);
            }
            match request.major {
                MajorRequest::Noop => Work::Done(vec![Reply::status(0)]),
                MajorRequest::Auth | MajorRequest::TriggerDcm => Work::Write(request),
                MajorRequest::Access | MajorRequest::Query => {
                    if serial {
                        return Work::Write(request);
                    }
                    let args = match request.string_args() {
                        Ok(a) => a,
                        Err(e) => return Work::Done(vec![Reply::status(e.code())]),
                    };
                    if args.is_empty() {
                        return Work::Done(vec![Reply::status(MrError::Args.code())]);
                    }
                    let access = request.major == MajorRequest::Access;
                    // Unknown names also take the read tier: answering
                    // `MR_NO_HANDLE` needs no exclusive access.
                    if access
                        || self
                            .registry
                            .get(&args[0])
                            .is_none_or(|h| h.handler.is_read())
                    {
                        Work::Read { access, args }
                    } else {
                        Work::Write(request)
                    }
                }
            }
        })();
        TaskSlot { conn, work, caller }
    }

    /// Executes one shared-tier request against a read guard.
    fn run_read(
        registry: &Registry,
        state: &MoiraState,
        caller: &Caller,
        access: bool,
        args: &[String],
    ) -> Vec<Reply> {
        if access {
            match registry.check_access(state, caller, &args[0], &args[1..]) {
                Ok(()) => vec![Reply::status(0)],
                Err(e) => vec![Reply::status(e.code())],
            }
        } else {
            match registry.execute_read(state, caller, &args[0], &args[1..]) {
                Ok(tuples) => {
                    let mut replies: Vec<Reply> = tuples.iter().map(|t| Reply::tuple(t)).collect();
                    replies.push(Reply::status(0));
                    replies
                }
                Err(e) => vec![Reply::status(e.code())],
            }
        }
    }

    /// Bounded shared-lock acquisition: yields between attempts, gives up
    /// after [`LOCK_PATIENCE`] attempts so contention surfaces as `Busy`.
    fn read_or_busy(state: &SharedState) -> Option<crate::state::StateReadGuard<'_>> {
        for _ in 0..LOCK_PATIENCE {
            if let Some(guard) = state.try_read() {
                return Some(guard);
            }
            std::thread::yield_now();
        }
        None
    }

    /// Bounded exclusive-lock acquisition.
    fn write_or_busy(state: &SharedState) -> Option<crate::state::StateWriteGuard<'_>> {
        for _ in 0..LOCK_PATIENCE {
            if let Some(guard) = state.try_write() {
                return Some(guard);
            }
            std::thread::yield_now();
        }
        None
    }

    /// One non-blocking pass of the loop (a reactor wait with zero
    /// timeout). Returns how many requests were received.
    pub fn poll_once(&mut self) -> usize {
        self.poll_with_timeout(Some(Duration::ZERO))
    }

    /// One pass of the loop, blocking in the reactor wait for up to
    /// `timeout` (`None` = until an event or a [`Waker`]). After the wait
    /// the pass runs five phases in order: collect readiness (flush
    /// writable outboxes, accept connections), drain and classify ready
    /// frames, the read tier, the write tier, then send replies in
    /// per-connection FIFO order and re-sync reactor interest (write
    /// interest while output is queued, read interest withdrawn under
    /// backpressure). Returns how many requests were received.
    pub fn poll_with_timeout(&mut self, timeout: Option<Duration>) -> usize {
        // Sources outside the reactor force a clamped wait: connections
        // without (registered) fds must be scanned, a selector-less
        // platform scans everything, and a paused connection whose peer
        // drains silently (in-proc queues) needs a periodic resume check.
        let scan_mode = !self.reactor.has_poller()
            || (self.listener.is_some() && !self.listener_registered)
            || self.connections.iter().any(|c| !c.registered);
        let needs_tick = self.connections.iter().any(|c| c.paused && !c.reg_write);
        let wait_timeout = if !self.reactor.has_poller() {
            Some(Duration::ZERO)
        } else if scan_mode || needs_tick {
            Some(timeout.unwrap_or(SCAN_TICK).min(SCAN_TICK))
        } else {
            timeout
        };
        // The loop's single blocking point. No state guard is held here —
        // moira-lint's reactor-discipline pass enforces that.
        let ready = self.reactor.wait(wait_timeout);
        let ready_at = Instant::now();

        let mut pass = PassBook::default();
        let read_idxs = self.collect(&ready, scan_mode, &mut pass);
        let (mut tasks, received) = self.drain_and_classify(read_idxs, &mut pass);
        self.read_tier(&mut tasks, ready_at);
        self.write_tier(&mut tasks, ready_at);
        self.send_and_resync(&tasks, pass);

        // Selector-less pacing: with no OS wait to block in, an empty scan
        // honors the caller's timeout with a bounded sleep instead of
        // spinning.
        if !self.reactor.has_poller() && received == 0 {
            if let Some(t) = timeout {
                if !t.is_zero() {
                    // No OS wait exists on this degraded path; a bounded
                    // pace beats spinning. lint:allow(reactor-discipline)
                    std::thread::sleep(t.min(SCAN_TICK));
                }
            }
        }
        received
    }

    /// Phase 1, collect: retire queued output on writable connections,
    /// accept on listener readiness, and return the connections to read.
    fn collect(&mut self, ready: &ReadySet, scan_mode: bool, pass: &mut PassBook) -> Vec<usize> {
        // Retire queued output first: flushing frees the peer to make
        // progress and can lift backpressure before new frames are read.
        for key in &ready.writable {
            if let Some(&idx) = self.key_map.get(key) {
                pass.touched.push(idx);
                if self.connections[idx].chan.flush().is_err() {
                    pass.dead.push(idx);
                }
            }
        }

        // Accept on listener readiness (every pass in scan mode — the
        // non-blocking accept simply reports WouldBlock when idle).
        let known = self.connections.len();
        if ready.listener || scan_mode {
            self.accept_pending();
        }

        // The readable set: ready keys plus fresh accepts (whose first
        // frames may have arrived before registration), or every
        // connection when scanning.
        let mut read_idxs: Vec<usize> = if scan_mode {
            (0..self.connections.len()).collect()
        } else {
            let mut v: Vec<usize> = ready
                .readable
                .iter()
                .filter_map(|k| self.key_map.get(k).copied())
                .collect();
            v.extend(known..self.connections.len());
            v
        };
        read_idxs.sort_unstable();
        read_idxs.dedup();
        read_idxs
    }

    /// Phase 2, drain and classify: every ready frame of every readable
    /// connection, in per-connection arrival order. Paused connections are
    /// skipped — not reading them *is* the backpressure. Returns the
    /// classified slots and how many frames arrived.
    fn drain_and_classify(
        &mut self,
        read_idxs: Vec<usize>,
        pass: &mut PassBook,
    ) -> (Vec<TaskSlot>, usize) {
        let mut tasks: Vec<TaskSlot> = Vec::new();
        let mut received = 0usize;
        for conn in read_idxs {
            if self.connections[conn].paused {
                continue;
            }
            pass.touched.push(conn);
            // A connection's frames join the read tier only up to its first
            // serial request; everything after stays in arrival order on the
            // write tier so later reads observe earlier writes.
            let mut serial_from_here = false;
            loop {
                let frame = match self.connections[conn].chan.try_recv() {
                    Ok(Some(frame)) => frame,
                    Ok(None) => {
                        if self.connections[conn].chan.is_closed() {
                            pass.dead.push(conn);
                        }
                        break;
                    }
                    Err(_) => {
                        pass.dead.push(conn);
                        break;
                    }
                };
                received += 1;
                if self.overload_limit.is_some_and(|limit| received > limit) {
                    // Shed rather than queue: the client hears Busy now
                    // instead of timing out later.
                    tasks.push(TaskSlot {
                        conn,
                        work: self.shed(),
                        caller: Caller::anonymous("shed"),
                    });
                    continue;
                }
                let slot = self.classify(conn, frame, serial_from_here);
                if matches!(slot.work, Work::Write(_)) {
                    serial_from_here = true;
                }
                tasks.push(slot);
            }
        }
        (tasks, received)
    }

    /// Counts one request shed with `MR_BUSY` and returns its answer.
    fn shed(&mut self) -> Work {
        self.shed_requests += 1;
        self.obs_sheds.inc();
        Work::Done(vec![Reply::status(MrError::Busy.code())])
    }

    /// Phase 3, the read tier: every `Read` slot runs inline under one
    /// shared guard. A handler that panics is answered `MR_BUSY` and
    /// counted as a shed instead of taking the daemon down.
    fn read_tier(&mut self, tasks: &mut [TaskSlot], ready_at: Instant) {
        if !tasks.iter().any(|t| matches!(t.work, Work::Read { .. })) {
            return;
        }
        let state = self.state.clone();
        let Some(guard) = Self::read_or_busy(&state) else {
            for task in tasks.iter_mut() {
                if matches!(task.work, Work::Read { .. }) {
                    task.work = self.shed();
                }
            }
            return;
        };
        let timed = self.obs.enabled();
        // Readiness→dispatch wait for this tier's batch: how long after
        // the OS said "ready" the work actually starts.
        let wait_ns = if timed {
            ready_at.elapsed().as_nanos() as u64
        } else {
            0
        };
        for task in tasks.iter_mut() {
            let Work::Read { access, args } = &task.work else {
                continue;
            };
            let t0 = timed.then(Instant::now);
            let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
                Self::run_read(&self.registry, &guard, &task.caller, *access, args)
            }));
            task.work = match run {
                Ok(replies) => {
                    // Sheds are excluded from the dispatch count and the
                    // latency samples: both reflect real executions only.
                    self.reads_dispatched += 1;
                    self.obs_reads.inc();
                    if let Some(t0) = t0 {
                        self.obs_read_latency.record(t0.elapsed().as_nanos() as u64);
                        self.obs_ready_latency.record(wait_ns);
                    }
                    Work::Done(replies)
                }
                Err(_) => self.shed(),
            };
        }
    }

    /// Phase 4, the write tier: every `Write` slot in arrival order under
    /// one exclusive guard, then the group-commit flush.
    fn write_tier(&mut self, tasks: &mut [TaskSlot], ready_at: Instant) {
        let writes = tasks
            .iter()
            .filter(|t| matches!(t.work, Work::Write(_)))
            .count() as u64;
        if writes == 0 {
            return;
        }
        let state = self.state.clone();
        let Some(mut guard) = Self::write_or_busy(&state) else {
            for task in tasks.iter_mut() {
                if matches!(task.work, Work::Write(_)) {
                    task.work = self.shed();
                }
            }
            return;
        };
        self.writes_dispatched += writes;
        self.obs_writes.add(writes);
        let timed = self.obs.enabled();
        let wait_ns = if timed {
            ready_at.elapsed().as_nanos() as u64
        } else {
            0
        };
        for task in tasks.iter_mut() {
            let Work::Write(request) = &task.work else {
                continue;
            };
            let conn = task.conn;
            // Resolve the caller from the connection *now*, not from the
            // classify-time snapshot: the tier runs in arrival order, so an
            // `Auth` earlier in this batch has already installed the new
            // principal by the time a request pipelined behind it executes.
            let caller = self.connections[conn].caller.clone();
            let t0 = timed.then(Instant::now);
            let replies = match request.major {
                MajorRequest::Auth => vec![self.handle_auth(conn, request, &mut guard)],
                MajorRequest::TriggerDcm => vec![Self::handle_trigger_dcm(&caller, &mut guard)],
                MajorRequest::Query => {
                    Self::handle_query(&self.registry, &caller, request, &mut guard)
                }
                MajorRequest::Access => {
                    vec![Self::handle_access(
                        &self.registry,
                        &caller,
                        request,
                        &guard,
                    )]
                }
                MajorRequest::Noop => vec![Reply::status(0)],
            };
            if let Some(t0) = t0 {
                self.obs_write_latency
                    .record(t0.elapsed().as_nanos() as u64);
                self.obs_ready_latency.record(wait_ns);
            }
            task.work = Work::Done(replies);
        }
        // Group commit: one fsync (at most — the flush interval can defer
        // it) covers every mutation in this batch, and it happens before
        // any reply is sent, so an acknowledged commit is as durable as the
        // configured policy promises. A failed flush is counted, not fatal:
        // the WAL append already carried the error to the owning request if
        // the media is truly dead.
        let now = guard.db.now();
        if guard.storage.maybe_flush(now).is_err() {
            guard.obs.counter("db.wal.flush_errors").inc();
        }
    }

    /// Phase 5, send and re-sync: queue every reply in per-connection FIFO
    /// order, re-sync reactor interest for the connections this pass
    /// touched, and tear down dead connections.
    fn send_and_resync(&mut self, tasks: &[TaskSlot], pass: PassBook) {
        let PassBook {
            mut dead,
            mut touched,
        } = pass;
        // Tasks are already in drain order, which is per-connection FIFO.
        // `send` queues into the connection's outbox and flushes
        // opportunistically — a slow peer cannot stall this loop.
        for task in tasks {
            let Work::Done(replies) = &task.work else {
                unreachable!("all work resolved by the tiers")
            };
            let conn = &mut self.connections[task.conn];
            for reply in replies {
                if conn.chan.send(reply.encode()).is_err() {
                    dead.push(task.conn);
                    break;
                }
            }
        }

        // Write interest while the OS would not take the whole outbox, and
        // the backpressure pause/resume transitions. Paused connections
        // always get a resume check — their peers may have drained without
        // producing any event (in-process queues, or replies retired by an
        // earlier pass's flush).
        for (idx, c) in self.connections.iter().enumerate() {
            if c.paused {
                touched.push(idx);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for idx in touched {
            self.resync_interest(idx, &mut dead);
        }

        dead.sort_unstable();
        dead.dedup();
        for &i in dead.iter().rev() {
            let conn = self.connections.remove(i);
            if conn.registered {
                if let Some(fd) = conn.fd {
                    self.reactor.deregister(fd);
                }
            }
            self.obs_conn_closed.inc();
            let mut state = self.state.write();
            state
                .clients
                .retain(|c| c.client_number != conn.client_number);
        }
        if !dead.is_empty() {
            self.key_map = self
                .connections
                .iter()
                .enumerate()
                .map(|(i, c)| (c.key, i))
                .collect();
            self.obs_conn_open.set(self.connections.len() as i64);
        }
    }

    /// Applies one connection's post-pass interest transitions: engage or
    /// lift backpressure against the outbox cap, keep write interest while
    /// flushing is incomplete, and tell the reactor only when something
    /// changed.
    fn resync_interest(&mut self, idx: usize, dead: &mut Vec<usize>) {
        let conn = &mut self.connections[idx];
        // Opportunistic flush so interest reflects the post-pass outbox.
        let flushed_clean = match conn.chan.flush() {
            Ok(done) => done,
            Err(_) => {
                dead.push(idx);
                return;
            }
        };
        let queued = conn.chan.queued_bytes();
        let cap = conn.chan.write_cap();
        if !conn.paused && queued > cap {
            // Over the high-water mark: stop reading this peer. Its
            // requests wait in its socket (and eventually its own send
            // window) — the kernel's flow control propagates the stall to
            // the client, and our memory stays bounded by the cap plus
            // one in-flight batch.
            conn.paused = true;
            self.obs_backpressure.inc();
        } else if conn.paused && queued <= cap / 2 {
            // Drained below the low-water mark: resume reading.
            conn.paused = false;
        }
        let want_read = !conn.paused;
        let want_write = !flushed_clean;
        if conn.registered && (want_read != conn.reg_read || want_write != conn.reg_write) {
            if let Some(fd) = conn.fd {
                self.reactor.update(fd, conn.key, want_read, want_write);
            }
            conn.reg_read = want_read;
            conn.reg_write = want_write;
        }
    }

    /// Polls until `idle_rounds` consecutive passes process nothing. Idle
    /// passes block in the reactor wait (clamped to [`SCAN_TICK`]) rather
    /// than spinning.
    pub fn run_until_idle(&mut self, idle_rounds: usize) {
        let mut idle = 0;
        while idle < idle_rounds {
            if self.poll_with_timeout(Some(SCAN_TICK)) == 0 {
                idle += 1;
            } else {
                idle = 0;
            }
        }
    }

    /// Runs the loop until `stop` is set. When a pass finds nothing to do
    /// the loop blocks in the reactor wait — zero CPU while idle — bounded
    /// by [`RUN_TICK`] so `stop` is honored even without a [`Waker`]
    /// firing; use [`MoiraServer::waker`] to interrupt the wait
    /// immediately (new work handed to another thread, shutdown).
    pub fn run(&mut self, stop: &std::sync::atomic::AtomicBool) {
        while !stop.load(std::sync::atomic::Ordering::Acquire) {
            self.poll_with_timeout(Some(RUN_TICK));
        }
    }

    fn handle_auth(
        &mut self,
        conn_index: usize,
        request: &Request,
        state: &mut MoiraState,
    ) -> Reply {
        let principal = match (&self.verifier, request.args.len()) {
            // Trusted mode: [principal, client_name].
            (None, 2) => match std::str::from_utf8(&request.args[0]) {
                Ok(p) => p.to_owned(),
                Err(_) => return Reply::status(MrError::BadChar.code()),
            },
            // Kerberos mode: [ticket, authenticator, client_name].
            (Some(verifier), 3) => {
                let ticket = Ticket {
                    sealed: request.args[0].to_vec(),
                };
                let auth = Authenticator {
                    sealed: request.args[1].to_vec(),
                };
                match verifier.verify(&ticket, &auth) {
                    Ok(p) => p,
                    Err(moira_krb::realm::KrbError::Replay) => {
                        return Reply::status(MrError::Replay.code())
                    }
                    Err(_) => return Reply::status(MrError::AuthFailure.code()),
                }
            }
            _ => return Reply::status(MrError::Args.code()),
        };
        let client_name = request
            .args
            .last()
            .and_then(|b| std::str::from_utf8(b).ok())
            .unwrap_or("unknown")
            .to_owned();
        let conn = &mut self.connections[conn_index];
        conn.caller = Caller::new(&principal, &client_name);
        let number = conn.client_number;
        if let Some(info) = state.clients.iter_mut().find(|c| c.client_number == number) {
            info.principal = Some(principal);
        }
        Reply::status(0)
    }

    fn handle_query(
        registry: &Registry,
        caller: &Caller,
        request: &Request,
        state: &mut MoiraState,
    ) -> Vec<Reply> {
        let args = match request.string_args() {
            Ok(a) => a,
            Err(e) => return vec![Reply::status(e.code())],
        };
        if args.is_empty() {
            return vec![Reply::status(MrError::Args.code())];
        }
        match registry.execute(state, caller, &args[0], &args[1..]) {
            Ok(tuples) => {
                let mut replies: Vec<Reply> = tuples.iter().map(|t| Reply::tuple(t)).collect();
                replies.push(Reply::status(0));
                replies
            }
            Err(e) => vec![Reply::status(e.code())],
        }
    }

    fn handle_access(
        registry: &Registry,
        caller: &Caller,
        request: &Request,
        state: &MoiraState,
    ) -> Reply {
        let args = match request.string_args() {
            Ok(a) => a,
            Err(e) => return Reply::status(e.code()),
        };
        if args.is_empty() {
            return Reply::status(MrError::Args.code());
        }
        match registry.check_access(state, caller, &args[0], &args[1..]) {
            Ok(()) => Reply::status(0),
            Err(e) => Reply::status(e.code()),
        }
    }

    fn handle_trigger_dcm(caller: &Caller, state: &mut MoiraState) -> Reply {
        // "Access checking is done by checking permissions for the
        // pseudo-query trigger_dcm (tdcm)."
        if !access::caller_has_capability(state, caller, "trigger_dcm") {
            return Reply::status(MrError::Perm.code());
        }
        state.dcm_trigger = true;
        Reply::status(0)
    }
}

/// Builds a ready-to-use server: seeded state, standard registry, CAPACLS
/// populated. Returns the server plus handles on its state and registry.
pub fn standard_server(clock: moira_common::VClock) -> (MoiraServer, SharedState, Arc<Registry>) {
    let registry = Arc::new(Registry::standard());
    let mut state = MoiraState::new(clock);
    crate::seed::seed_capacls(&mut state, &registry);
    let state = shared(state);
    let server = MoiraServer::new(state.clone(), registry.clone(), None);
    (server, state, registry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use moira_protocol::transport::{pair, recv_blocking};

    fn send_request(chan: &mut dyn Channel, server: &mut MoiraServer, req: Request) -> Vec<Reply> {
        chan.send(req.encode()).unwrap();
        server.run_until_idle(2);
        let mut replies = Vec::new();
        loop {
            let frame = recv_blocking(chan, 100).expect("reply");
            let reply = Reply::decode(frame).unwrap();
            let done = !reply.is_more_data();
            replies.push(reply);
            if done {
                break;
            }
        }
        replies
    }

    fn setup() -> (MoiraServer, moira_protocol::transport::InProcChannel) {
        let (mut server, state, _) = standard_server(moira_common::VClock::new());
        {
            let mut s = state.write();
            let uid = crate::queries::testutil::add_test_user(&mut s, "ops", 1);
            s.db.append("members", vec![2.into(), "USER".into(), uid.into()])
                .unwrap();
        }
        let (client, server_end) = pair();
        server.attach(Box::new(server_end), "local", 0);
        (server, client)
    }

    #[test]
    fn noop_round_trip() {
        let (mut server, mut client) = setup();
        let replies = send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::Noop, &[]),
        );
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].code, 0);
    }

    #[test]
    fn query_streams_tuples() {
        let (mut server, mut client) = setup();
        send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::Auth, &["ops", "test"]),
        );
        for name in ["A", "B", "C"] {
            let replies = send_request(
                &mut client,
                &mut server,
                Request::new(MajorRequest::Query, &["add_machine", name, "VAX"]),
            );
            assert_eq!(replies.last().unwrap().code, 0, "{name}");
        }
        let replies = send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::Query, &["get_machine", "*"]),
        );
        // Three MR_MORE_DATA tuples plus the final success.
        assert_eq!(replies.len(), 4);
        assert!(replies[0].is_more_data());
        assert_eq!(replies[3].code, 0);
        let names: Vec<String> = replies[..3]
            .iter()
            .map(|r| r.string_fields().unwrap()[0].clone())
            .collect();
        assert_eq!(names, vec!["A", "B", "C"]);
    }

    #[test]
    fn unauthenticated_mutation_denied() {
        let (mut server, mut client) = setup();
        let replies = send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::Query, &["add_machine", "X", "VAX"]),
        );
        assert_eq!(replies[0].code, MrError::Perm.code());
    }

    #[test]
    fn access_precheck_matches_execution() {
        let (mut server, mut client) = setup();
        // Denied before auth…
        let replies = send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::Access, &["add_machine", "X", "VAX"]),
        );
        assert_eq!(replies[0].code, MrError::Perm.code());
        // …allowed after.
        send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::Auth, &["ops", "test"]),
        );
        let replies = send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::Access, &["add_machine", "X", "VAX"]),
        );
        assert_eq!(replies[0].code, 0);
        // And the access check did not execute the query.
        let replies = send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::Query, &["get_machine", "X"]),
        );
        assert_eq!(replies[0].code, MrError::NoMatch.code());
    }

    #[test]
    fn trigger_dcm_requires_capability() {
        let (mut server, mut client) = setup();
        let replies = send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::TriggerDcm, &[]),
        );
        assert_eq!(replies[0].code, MrError::Perm.code());
        send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::Auth, &["ops", "test"]),
        );
        let replies = send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::TriggerDcm, &[]),
        );
        assert_eq!(replies[0].code, 0);
        assert!(server.state().read().dcm_trigger);
    }

    #[test]
    fn overload_sheds_excess_requests_with_busy() {
        let (mut server, mut client) = setup();
        server.set_overload_limit(Some(1));
        // Two requests land before the loop runs: only one is dispatched,
        // the other is shed with a distinct, retryable Busy status.
        let req = Request::new(MajorRequest::Noop, &[]);
        client.send(req.encode()).unwrap();
        client.send(req.encode()).unwrap();
        server.run_until_idle(2);
        let first = Reply::decode(recv_blocking(&mut client, 100).unwrap()).unwrap();
        let second = Reply::decode(recv_blocking(&mut client, 100).unwrap()).unwrap();
        assert_eq!(first.code, 0);
        assert_eq!(second.code, MrError::Busy.code());
        assert_eq!(server.shed_requests(), 1);
        // The resend lands in a calmer pass and succeeds.
        client.send(req.encode()).unwrap();
        server.run_until_idle(2);
        let retried = Reply::decode(recv_blocking(&mut client, 100).unwrap()).unwrap();
        assert_eq!(retried.code, 0);
        // Removing the limit restores unbounded dispatch.
        server.set_overload_limit(None);
        client.send(req.encode()).unwrap();
        client.send(req.encode()).unwrap();
        server.run_until_idle(2);
        for _ in 0..2 {
            let r = Reply::decode(recv_blocking(&mut client, 100).unwrap()).unwrap();
            assert_eq!(r.code, 0);
        }
        assert_eq!(server.shed_requests(), 1, "no further sheds");
    }

    #[test]
    fn version_skew_rejected() {
        let (mut server, mut client) = setup();
        let mut req = Request::new(MajorRequest::Noop, &[]);
        req.version = 99;
        let replies = send_request(&mut client, &mut server, req);
        assert_eq!(replies[0].code, MrError::VersionHigh.code());
    }

    #[test]
    fn list_users_sees_connections() {
        let (mut server, mut client) = setup();
        send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::Auth, &["ops", "test"]),
        );
        let replies = send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::Query, &["_list_users"]),
        );
        assert_eq!(replies.len(), 2);
        let fields = replies[0].string_fields().unwrap();
        assert_eq!(fields[0], "ops");
    }

    #[test]
    fn disconnect_cleans_up() {
        let (mut server, client) = setup();
        assert_eq!(server.connection_count(), 1);
        drop(client);
        server.run_until_idle(3);
        assert_eq!(server.connection_count(), 0);
        assert!(server.state().read().clients.is_empty());
    }

    #[test]
    fn tcp_end_to_end() {
        let (mut server, state, _) = standard_server(moira_common::VClock::new());
        {
            let mut s = state.write();
            let uid = crate::queries::testutil::add_test_user(&mut s, "ops", 1);
            s.db.append("members", vec![2.into(), "USER".into(), uid.into()])
                .unwrap();
        }
        let addr = server.listen_tcp("127.0.0.1:0").unwrap();
        let handle = std::thread::spawn(move || {
            let mut chan = TcpChannel::connect(&addr.to_string()).unwrap();
            chan.send(Request::new(MajorRequest::Auth, &["ops", "tcp-test"]).encode())
                .unwrap();
            let r = Reply::decode(recv_blocking(&mut chan, 2_000_000).unwrap()).unwrap();
            assert_eq!(r.code, 0);
            chan.send(Request::new(MajorRequest::Query, &["add_machine", "TCPBOX", "RT"]).encode())
                .unwrap();
            let r = Reply::decode(recv_blocking(&mut chan, 2_000_000).unwrap()).unwrap();
            assert_eq!(r.code, 0);
        });
        // Drive the server loop until the client thread finishes.
        let start = std::time::Instant::now();
        while !handle.is_finished() {
            server.poll_once();
            assert!(start.elapsed().as_secs() < 10, "server loop stuck");
        }
        handle.join().unwrap();
        let s = state.read();
        assert!(!s
            .db
            .select("machine", &moira_db::Pred::Eq("name", "TCPBOX".into()))
            .is_empty());
    }

    #[test]
    fn kerberos_auth_mode() {
        use moira_krb::realm::Kdc;
        use moira_krb::ticket::make_authenticator;

        let clock = moira_common::VClock::new();
        let kdc = Kdc::new(clock.clone());
        kdc.register("babette", "pw").unwrap();
        let skey = kdc.register_service("moira").unwrap();
        let verifier = Verifier::new("moira", skey, clock.clone());

        let registry = Arc::new(Registry::standard());
        let mut st = MoiraState::new(clock.clone());
        crate::seed::seed_capacls(&mut st, &registry);
        crate::queries::testutil::add_test_user(&mut st, "babette", 42);
        let state = shared(st);
        let mut server = MoiraServer::new(state, registry, Some(verifier));

        let (mut client, server_end) = pair();
        server.attach(Box::new(server_end), "local", 0);

        let (ticket, session) = kdc.initial_ticket("babette", "pw", "moira").unwrap();
        let auth = make_authenticator(session, "babette", clock.now(), 1);
        let mut req = Request::new(MajorRequest::Auth, &[]);
        req.args = vec![
            bytes::Bytes::from(ticket.sealed.clone()),
            bytes::Bytes::from(auth.sealed.clone()),
            bytes::Bytes::from_static(b"chsh"),
        ];
        let replies = send_request(&mut client, &mut server, req.clone());
        assert_eq!(replies[0].code, 0);
        // Replaying the same authenticator fails.
        let replies = send_request(&mut client, &mut server, req);
        assert_eq!(replies[0].code, MrError::Replay.code());
        // Trusted-mode auth is refused when a verifier is configured.
        let replies = send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::Auth, &["root", "sneaky"]),
        );
        assert_eq!(replies[0].code, MrError::Args.code());
        // The authenticated identity can use self-access queries.
        let replies = send_request(
            &mut client,
            &mut server,
            Request::new(
                MajorRequest::Query,
                &["update_user_shell", "babette", "/bin/sh"],
            ),
        );
        assert_eq!(replies[0].code, 0);
    }

    #[test]
    fn tiers_classify_reads_and_writes() {
        let (mut server, mut client) = setup();
        send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::Auth, &["ops", "test"]),
        );
        let (r0, w0) = server.dispatch_counts();
        send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::Query, &["add_machine", "TIER", "VAX"]),
        );
        send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::Query, &["get_machine", "TIER"]),
        );
        let (r1, w1) = server.dispatch_counts();
        assert_eq!(r1 - r0, 1, "get_machine runs on the shared tier");
        assert_eq!(w1 - w0, 1, "add_machine runs on the exclusive tier");
    }

    #[test]
    fn read_after_write_same_pass_observes_the_write() {
        // A connection's read that arrives behind its own write must not
        // jump the queue onto the read tier: both land in one poll pass and
        // the read still sees the freshly added machine.
        let (mut server, mut client) = setup();
        send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::Auth, &["ops", "test"]),
        );
        client
            .send(Request::new(MajorRequest::Query, &["add_machine", "FRESH", "VAX"]).encode())
            .unwrap();
        client
            .send(Request::new(MajorRequest::Query, &["get_machine", "FRESH"]).encode())
            .unwrap();
        server.run_until_idle(2);
        let add = Reply::decode(recv_blocking(&mut client, 100).unwrap()).unwrap();
        assert_eq!(add.code, 0);
        let tuple = Reply::decode(recv_blocking(&mut client, 100).unwrap()).unwrap();
        assert!(tuple.is_more_data(), "read-after-write found the row");
        assert_eq!(tuple.string_fields().unwrap()[0], "FRESH");
        let done = Reply::decode(recv_blocking(&mut client, 100).unwrap()).unwrap();
        assert_eq!(done.code, 0);
    }

    #[test]
    fn query_pipelined_behind_auth_uses_new_principal() {
        // Auth and a mutation land in the same poll pass. The mutation was
        // classified while the connection was still anonymous, but it must
        // execute under the just-authenticated principal — the serial tier
        // re-resolves the caller at dispatch time.
        let (mut server, mut client) = setup();
        client
            .send(Request::new(MajorRequest::Auth, &["ops", "test"]).encode())
            .unwrap();
        client
            .send(Request::new(MajorRequest::Query, &["add_machine", "PIPELINED", "VAX"]).encode())
            .unwrap();
        client
            .send(Request::new(MajorRequest::Access, &["add_machine", "Y", "VAX"]).encode())
            .unwrap();
        server.run_until_idle(2);
        let auth = Reply::decode(recv_blocking(&mut client, 100).unwrap()).unwrap();
        assert_eq!(auth.code, 0);
        let add = Reply::decode(recv_blocking(&mut client, 100).unwrap()).unwrap();
        assert_eq!(add.code, 0, "mutation behind auth ran under a stale caller");
        let access = Reply::decode(recv_blocking(&mut client, 100).unwrap()).unwrap();
        assert_eq!(
            access.code, 0,
            "access check behind auth used a stale caller"
        );
    }

    #[test]
    fn reauth_in_same_pass_drops_old_privileges() {
        // The mirror image: a privileged connection re-authenticates as an
        // unprivileged principal with a mutation pipelined behind the Auth.
        // The mutation must run as the new principal, not retain the old
        // one's capabilities through a classify-time snapshot.
        let (mut server, mut client) = setup();
        send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::Auth, &["ops", "test"]),
        );
        client
            .send(Request::new(MajorRequest::Auth, &["nobody", "test"]).encode())
            .unwrap();
        client
            .send(Request::new(MajorRequest::Query, &["add_machine", "SNEAK", "VAX"]).encode())
            .unwrap();
        server.run_until_idle(2);
        let auth = Reply::decode(recv_blocking(&mut client, 100).unwrap()).unwrap();
        assert_eq!(auth.code, 0);
        let add = Reply::decode(recv_blocking(&mut client, 100).unwrap()).unwrap();
        assert_eq!(
            add.code,
            MrError::Perm.code(),
            "mutation retained the pre-re-auth principal's privileges"
        );
    }

    #[test]
    fn concurrent_readers_on_worker_pool() {
        // Four connections each send a retrieve; all four dispatch on the
        // read tier in one pass and answer correctly.
        let (mut server, state, _) = standard_server(moira_common::VClock::new());
        {
            let mut s = state.write();
            let uid = crate::queries::testutil::add_test_user(&mut s, "ops", 1);
            s.db.append("members", vec![2.into(), "USER".into(), uid.into()])
                .unwrap();
        }
        let mut clients = Vec::new();
        for _ in 0..4 {
            let (client, server_end) = pair();
            server.attach(Box::new(server_end), "local", 0);
            clients.push(client);
        }
        for c in clients.iter_mut() {
            c.send(Request::new(MajorRequest::Auth, &["ops", "test"]).encode())
                .unwrap();
        }
        server.run_until_idle(2);
        for c in clients.iter_mut() {
            let r = Reply::decode(recv_blocking(c, 100).unwrap()).unwrap();
            assert_eq!(r.code, 0);
        }
        let obs_before = server.obs().snapshot();
        let before = server.dispatch_counts();
        for c in clients.iter_mut() {
            c.send(Request::new(MajorRequest::Query, &["get_user_by_login", "ops"]).encode())
                .unwrap();
        }
        let processed = server.poll_once();
        assert_eq!(processed, 4);
        let after = server.dispatch_counts();
        assert_eq!((after.0 - before.0, after.1 - before.1), (4, 0));
        for c in clients.iter_mut() {
            let tuple = Reply::decode(recv_blocking(c, 100).unwrap()).unwrap();
            assert!(tuple.is_more_data());
            assert_eq!(tuple.string_fields().unwrap()[0], "ops");
            let done = Reply::decode(recv_blocking(c, 100).unwrap()).unwrap();
            assert_eq!(done.code, 0);
        }
        // The obs snapshot shows all four dispatches landed on the read
        // tier and were individually timed.
        let obs_after = server.obs().snapshot();
        assert_eq!(
            obs_after.counter("server.reads_dispatched")
                - obs_before.counter("server.reads_dispatched"),
            4
        );
        let read_lat = obs_after
            .histogram("server.latency.read")
            .expect("read latency recorded");
        let read_lat_before = obs_before
            .histogram("server.latency.read")
            .map(|h| h.count)
            .unwrap_or(0);
        assert_eq!(read_lat.count - read_lat_before, 4);
        let write_lat_count =
            |s: &moira_obs::Snapshot| s.histogram("server.latency.write").map(|h| h.count);
        assert_eq!(
            write_lat_count(&obs_after),
            write_lat_count(&obs_before),
            "no write-tier samples from a pure read pass"
        );
    }

    fn panicking_read(
        _: &MoiraState,
        _: &Caller,
        _: &[String],
    ) -> moira_common::errors::MrResult<Vec<Vec<String>>> {
        panic!("read handler bug")
    }

    #[test]
    fn panicking_read_handler_sheds_busy_and_server_survives() {
        use crate::registry::{AccessRule, Handler, QueryHandle, QueryKind};
        let mut registry = Registry::standard();
        registry.register(QueryHandle {
            name: "panic_read",
            shortname: "pnrd",
            kind: QueryKind::Retrieve,
            access: AccessRule::Public,
            args: &[],
            returns: &[],
            handler: Handler::Read(panicking_read),
        });
        let registry = Arc::new(registry);
        let mut state = MoiraState::new(moira_common::VClock::new());
        crate::seed::seed_capacls(&mut state, &registry);
        let mut server = MoiraServer::new(shared(state), registry, None);
        let (mut client, server_end) = pair();
        server.attach(Box::new(server_end), "local", 0);

        // A single read in its pass: the panic is contained and answered
        // with the retryable Busy status, counted as a shed.
        let replies = send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::Query, &["panic_read"]),
        );
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].code, MrError::Busy.code());
        assert_eq!(server.shed_requests(), 1);
        assert_eq!(server.obs().snapshot().counter("server.shed_requests"), 1);
        assert_eq!(
            server.dispatch_counts(),
            (0, 0),
            "a panic is not a dispatch"
        );

        // The same server answers the next request normally.
        let replies = send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::Query, &["_list_queries"]),
        );
        assert!(replies.len() > 1);
        assert!(replies[0].is_more_data());
        assert_eq!(replies.last().unwrap().code, 0);
        assert_eq!(server.dispatch_counts(), (1, 0));
        assert_eq!(server.shed_requests(), 1);
    }

    #[test]
    fn backpressure_pauses_and_resumes_without_disconnecting() {
        let (mut server, mut client) = setup();
        send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::Auth, &["ops", "test"]),
        );
        server.set_write_cap(64);
        let query = Request::new(MajorRequest::Query, &["get_user_by_login", "ops"]);

        // Wave 1: the replies overrun the tiny cap while the client never
        // drains — backpressure must engage, not disconnect.
        for _ in 0..5 {
            client.send(query.encode()).unwrap();
        }
        server.run_until_idle(2);
        let q1 = server.connection_queued_bytes()[0];
        assert!(q1 > 64, "replies exceed the cap ({q1} bytes queued)");
        let snap = server.obs().snapshot();
        assert!(
            snap.counter("server.backpressure.engaged") >= 1,
            "pause transition counted"
        );
        assert_eq!(
            server.connection_count(),
            1,
            "slow consumer stays connected"
        );

        // Wave 2: a paused connection is not read, so its outbox cannot
        // grow — this is the bounded-memory contract.
        for _ in 0..20 {
            client.send(query.encode()).unwrap();
        }
        server.run_until_idle(2);
        assert_eq!(
            server.connection_queued_bytes()[0],
            q1,
            "paused connection's outbox grew"
        );

        // The client finally drains; the server resumes below the
        // low-water mark and answers the entire backlog (25 queries × 2
        // replies each).
        let mut got = 0usize;
        for _ in 0..200_000 {
            server.poll_once();
            match client.try_recv() {
                Ok(Some(_)) => got += 1,
                Ok(None) => std::thread::yield_now(),
                Err(e) => panic!("client channel died: {e}"),
            }
            if got == 50 {
                break;
            }
        }
        assert_eq!(got, 50, "backlog fully answered after resume");
        assert_eq!(server.connection_queued_bytes()[0], 0);
    }

    #[test]
    fn connection_lifecycle_instruments() {
        let (mut server, _state, _) = standard_server(moira_common::VClock::new());
        let snap = |s: &MoiraServer| {
            let snap = s.obs().snapshot();
            (
                snap.counter("server.connections.accepted"),
                snap.gauge("server.connections.open"),
                snap.counter("server.connections.closed"),
            )
        };
        let (c1, s1) = pair();
        server.attach(Box::new(s1), "local", 0);
        let (_c2, s2) = pair();
        server.attach(Box::new(s2), "local", 0);
        assert_eq!(snap(&server), (2, 2, 0));
        drop(c1);
        server.run_until_idle(3);
        assert_eq!(snap(&server), (2, 1, 1));
        assert_eq!(server.connection_count(), 1);
    }

    #[test]
    fn contended_write_lock_sheds_busy() {
        let (mut server, mut client) = setup();
        send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::Auth, &["ops", "test"]),
        );
        let obs_before = server.obs().snapshot();
        let dispatched_before = server.dispatch_counts();
        let state = server.state();
        // An outside writer (e.g. a DCM cycle) holds the exclusive lock for
        // the whole pass: the read tier cannot acquire a shared guard and
        // sheds with Busy instead of hanging the loop.
        let guard = state.write();
        client
            .send(Request::new(MajorRequest::Query, &["get_user_by_login", "ops"]).encode())
            .unwrap();
        server.poll_once();
        drop(guard);
        let r = Reply::decode(recv_blocking(&mut client, 100).unwrap()).unwrap();
        assert_eq!(r.code, MrError::Busy.code());
        assert_eq!(server.shed_requests(), 1);
        // Sheds never executed, so they are excluded from the dispatch
        // counters and contribute no zero-time latency samples — the obs
        // snapshot shows one shed, no new dispatches, no new samples.
        assert_eq!(server.dispatch_counts(), dispatched_before);
        let obs_after = server.obs().snapshot();
        assert_eq!(
            obs_after.counter("server.shed_requests") - obs_before.counter("server.shed_requests"),
            1
        );
        assert_eq!(
            obs_after.counter("server.reads_dispatched"),
            obs_before.counter("server.reads_dispatched")
        );
        let read_lat_count =
            |s: &moira_obs::Snapshot| s.histogram("server.latency.read").map(|h| h.count);
        assert_eq!(read_lat_count(&obs_after), read_lat_count(&obs_before));
        // Retry after the writer releases succeeds.
        client
            .send(Request::new(MajorRequest::Query, &["get_user_by_login", "ops"]).encode())
            .unwrap();
        server.run_until_idle(2);
        let r = Reply::decode(recv_blocking(&mut client, 100).unwrap()).unwrap();
        assert!(r.is_more_data());
    }
}
