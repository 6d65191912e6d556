//! A byte- and frame-counting loopback relay.
//!
//! The TCP transports keep no count of the bytes they put on the wire, so
//! the benchmark measures it from outside: the sender dials the relay, the
//! relay dials the receiver, and both directions are counted as they pass.
//! The relay adds two thread hops, so it only ever carries the short
//! closed-loop *census* session that yields `wire_bytes_per_msg` and the
//! frame counts — never a timed region.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// How to find unit boundaries in the byte stream.
#[derive(Clone, Copy)]
pub enum Framing {
    /// WIRE.md frames: `[kind u8][len u32 BE][crc u32]` + `len` body bytes.
    Frames,
    /// The node protocol: one line per request or reply.
    Lines,
}

/// Bytes and units seen in one direction.
#[derive(Default)]
pub struct Direction {
    pub bytes: AtomicU64,
    pub units: AtomicU64,
}

#[derive(Default)]
pub struct Counts {
    /// Dialing side → listening side (events, requests).
    pub up: Direction,
    /// Listening side → dialing side (acks, plans, replies).
    pub down: Direction,
}

impl Counts {
    /// `(up bytes, up units, down bytes, down units)` right now.
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.up.bytes.load(Ordering::SeqCst),
            self.up.units.load(Ordering::SeqCst),
            self.down.bytes.load(Ordering::SeqCst),
            self.down.units.load(Ordering::SeqCst),
        )
    }
}

pub struct Relay {
    port: u16,
    counts: Arc<Counts>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

/// Counts the units that end inside `chunk`, carrying parser state across
/// chunks: `pending` body bytes still to skip, `header` bytes collected.
struct UnitCounter {
    framing: Framing,
    pending: usize,
    header: Vec<u8>,
}

impl UnitCounter {
    fn feed(&mut self, mut chunk: &[u8]) -> u64 {
        match self.framing {
            Framing::Lines => chunk.iter().filter(|&&b| b == b'\n').count() as u64,
            Framing::Frames => {
                let mut units = 0;
                while !chunk.is_empty() {
                    if self.pending > 0 {
                        let skip = self.pending.min(chunk.len());
                        self.pending -= skip;
                        chunk = &chunk[skip..];
                        if self.pending == 0 {
                            units += 1;
                        }
                        continue;
                    }
                    let want = 9 - self.header.len();
                    let take = want.min(chunk.len());
                    self.header.extend_from_slice(&chunk[..take]);
                    chunk = &chunk[take..];
                    if self.header.len() == 9 {
                        let h = &self.header;
                        self.pending = u32::from_be_bytes([h[1], h[2], h[3], h[4]]) as usize;
                        self.header.clear();
                        if self.pending == 0 {
                            units += 1;
                        }
                    }
                }
                units
            }
        }
    }
}

fn pump(mut from: TcpStream, mut to: TcpStream, dir: &Direction, framing: Framing) {
    let mut counter = UnitCounter { framing, pending: 0, header: Vec::with_capacity(9) };
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        // Count before forwarding: once the far side has seen the bytes,
        // a snapshot must already include them.
        dir.bytes.fetch_add(n as u64, Ordering::SeqCst);
        dir.units.fetch_add(counter.feed(&buf[..n]), Ordering::SeqCst);
        if to.write_all(&buf[..n]).is_err() {
            break;
        }
    }
    let _ = to.shutdown(Shutdown::Write);
    let _ = from.shutdown(Shutdown::Read);
}

impl Relay {
    /// Listens on an ephemeral loopback port and relays every accepted
    /// connection to `target_port`.
    pub fn spawn(target_port: u16, framing: Framing) -> std::io::Result<Relay> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let port = listener.local_addr()?.port();
        let counts = Arc::new(Counts::default());
        let stop = Arc::new(AtomicBool::new(false));
        let (accept_counts, accept_stop) = (Arc::clone(&counts), Arc::clone(&stop));
        let accept = std::thread::spawn(move || {
            let mut pumps: Vec<JoinHandle<()>> = Vec::new();
            for conn in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(client) = conn else { continue };
                let Ok(server) = TcpStream::connect(("127.0.0.1", target_port)) else { continue };
                let _ = client.set_nodelay(true);
                let _ = server.set_nodelay(true);
                let (Ok(client2), Ok(server2)) = (client.try_clone(), server.try_clone()) else {
                    continue;
                };
                let up = Arc::clone(&accept_counts);
                pumps.push(std::thread::spawn(move || pump(client, server, &up.up, framing)));
                let down = Arc::clone(&accept_counts);
                pumps.push(std::thread::spawn(move || pump(server2, client2, &down.down, framing)));
            }
            for p in pumps {
                let _ = p.join();
            }
        });
        Ok(Relay { port, counts, stop, accept: Some(accept) })
    }

    pub fn port(&self) -> u16 {
        self.port
    }

    pub fn counts(&self) -> &Counts {
        &self.counts
    }

    /// Stops accepting and waits for every pump to end. Call it after both
    /// endpoints have closed their connections.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(("127.0.0.1", self.port));
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }
}
