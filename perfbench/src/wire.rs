//! Loopback TCP: the server on its own thread, and a blocking load client.
//!
//! The client speaks the `moira_protocol::wire` framing directly (a `u32`
//! big-endian length, then the encoded request or reply) on a blocking
//! socket, so a sample is the kernel wake-up time, not a polling period.

use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use moira_common::errors::MrError;
use moira_core::registry::Registry;
use moira_core::state::SharedState;
use moira_core::{MoiraServer, Waker};
use moira_protocol::wire::{MajorRequest, Request};

/// A `MoiraServer` listening on loopback, run by one thread.
pub struct ServerThread {
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Waker,
    handle: Option<JoinHandle<MoiraServer>>,
}

impl ServerThread {
    pub fn start(state: SharedState, registry: Arc<Registry>) -> ServerThread {
        let mut server = MoiraServer::new(state, registry, None);
        let addr = server
            .listen_tcp("127.0.0.1:0")
            .expect("bind a loopback port");
        let stop = Arc::new(AtomicBool::new(false));
        let waker = server.waker();
        let flag = stop.clone();
        let handle = std::thread::spawn(move || {
            server.run(&flag);
            server
        });
        ServerThread {
            addr,
            stop,
            waker,
            handle: Some(handle),
        }
    }

    /// Stops the loop, joins the thread and hands back the server.
    pub fn stop(mut self) -> MoiraServer {
        self.shutdown().expect("server thread ran")
    }

    fn shutdown(&mut self) -> Option<MoiraServer> {
        self.stop.store(true, Ordering::Release);
        self.waker.wake();
        let handle = self.handle.take()?;
        Some(handle.join().expect("server thread panicked"))
    }
}

impl Drop for ServerThread {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        self.waker.wake();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Tuples kept as strings per reply; beyond this a reply is only counted
/// and fingerprinted, so the load generator's own work stays small next to
/// the server's on the largest scans.
const KEEP_TUPLES: usize = 64;

/// What the client saw for one request.
pub struct Answer {
    /// The final status code.
    pub status: i32,
    /// Tuples received.
    pub rows: usize,
    /// [`Fingerprint`] of every tuple.
    pub fp: u64,
    /// The first [`KEEP_TUPLES`] tuples.
    pub tuples: Vec<Vec<String>>,
}

/// FNV-1a over a tuple stream: field bytes, a unit separator after each
/// field, a record separator after each tuple.
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Fingerprint {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn field(&mut self, bytes: &[u8]) {
        self.eat(bytes);
        self.eat(&[0x1f]);
    }

    pub fn end_tuple(&mut self) {
        self.eat(&[0x1e]);
    }

    pub fn value(&self) -> u64 {
        self.0
    }

    pub fn of(tuples: &[Vec<String>]) -> u64 {
        let mut f = Fingerprint::new();
        for t in tuples {
            for field in t {
                f.field(field.as_bytes());
            }
            f.end_tuple();
        }
        f.value()
    }
}

/// One blocking client connection.
pub struct Client {
    out: TcpStream,
    input: BufReader<TcpStream>,
    frame: Vec<u8>,
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_owned())
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let out = TcpStream::connect(addr)?;
        out.set_nodelay(true)?;
        let input = BufReader::with_capacity(1 << 16, out.try_clone()?);
        Ok(Client {
            out,
            input,
            frame: Vec::new(),
        })
    }

    /// Connects and authenticates as `principal` (the server runs in
    /// trusted mode, so the authenticator is the bare principal name).
    pub fn login(addr: SocketAddr, principal: &str) -> io::Result<Client> {
        let mut c = Client::connect(addr)?;
        let answer =
            c.call(&Request::new(MajorRequest::Auth, &[principal, "perfbench"]).encode())?;
        if answer.status == 0 {
            Ok(c)
        } else {
            Err(io::Error::other(format!("auth refused: {}", answer.status)))
        }
    }

    /// Sends one encoded request and reads reply frames up to the final
    /// status. A reply frame is the `wire::Reply` encoding: `i32` code,
    /// `u16` field count, then each field as a `u32` length and its bytes.
    pub fn call(&mut self, payload: &[u8]) -> io::Result<Answer> {
        self.frame.clear();
        self.frame
            .extend_from_slice(&(payload.len() as u32).to_be_bytes());
        self.frame.extend_from_slice(payload);
        self.out.write_all(&self.frame)?;
        let mut answer = Answer {
            status: i32::MIN,
            rows: 0,
            fp: 0,
            tuples: Vec::new(),
        };
        let mut fp = Fingerprint::new();
        let more = MrError::MoreData.code();
        loop {
            let mut len = [0u8; 4];
            self.input.read_exact(&mut len)?;
            let len = u32::from_be_bytes(len) as usize;
            if len > moira_protocol::transport::MAX_FRAME_LEN {
                return Err(bad("reply frame too long"));
            }
            self.frame.resize(len, 0);
            self.input.read_exact(&mut self.frame)?;
            let body = &self.frame[..];
            if body.len() < 6 {
                return Err(bad("short reply frame"));
            }
            let code = i32::from_be_bytes(body[0..4].try_into().expect("4 bytes"));
            if code != more {
                answer.status = code;
                answer.fp = fp.value();
                return Ok(answer);
            }
            let count = u16::from_be_bytes(body[4..6].try_into().expect("2 bytes")) as usize;
            let keep = answer.tuples.len() < KEEP_TUPLES;
            let mut tuple = Vec::with_capacity(if keep { count } else { 0 });
            let mut at = 6;
            for _ in 0..count {
                let head = body.get(at..at + 4).ok_or_else(|| bad("truncated field"))?;
                let n = u32::from_be_bytes(head.try_into().expect("4 bytes")) as usize;
                let field = body
                    .get(at + 4..at + 4 + n)
                    .ok_or_else(|| bad("truncated field"))?;
                fp.field(field);
                if keep {
                    tuple.push(String::from_utf8_lossy(field).into_owned());
                }
                at += 4 + n;
            }
            fp.end_tuple();
            answer.rows += 1;
            if keep {
                answer.tuples.push(tuple);
            }
        }
    }
}
