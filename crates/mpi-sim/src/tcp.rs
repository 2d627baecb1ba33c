//! TCP backend for the transport-generic [`Comm`] trait: `pmaxT` ranks over
//! a real wire.
//!
//! Every pair of ranks shares one full-duplex `TcpStream` (a full mesh, as
//! `MPI_COMM_WORLD` on an Ethernet cluster). Messages travel as
//! length-prefixed frames — magic, tag, payload length, payload — so a
//! receiver can always re-synchronize its expectations or reject garbage
//! deterministically. Per-peer delivery order is inherited from TCP's stream
//! ordering; messages for tags the receiver is not currently waiting on are
//! parked in a per-peer pending buffer, exactly as the in-process channel
//! substrate does, so the two backends present identical semantics.
//!
//! ## Mesh establishment
//!
//! Rank `r` *connects* to every lower rank and *accepts* from every higher
//! rank, identifying itself with a hello frame. Connect attempts retry with
//! exponential backoff so daemons may start in any order; accepts poll under
//! a deadline so a peer that never arrives fails the mesh instead of hanging
//! it. The handshake cannot deadlock: connects complete against the kernel's
//! listen backlog whether or not the peer has reached `accept` yet.
//!
//! ## Failure detection
//!
//! Blocking receives carry a read deadline ([`TcpConfig::read_timeout`]).
//! A peer that stops talking surfaces as [`CommError::Timeout`]; a closed
//! socket as [`CommError::Disconnected`]; a malformed frame as
//! [`CommError::Protocol`]. After a timeout the stream may have been left
//! mid-frame, so callers must treat the peer as failed rather than retry the
//! receive — which is precisely how jobd's span-reassignment logic uses it.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use crate::comm_trait::{collective_tag, CollectiveKind, MessageStats};
use crate::error::{CommError, CommResult};

/// Frame magic: "SPRC" — SPRINT comm.
const MAGIC: u32 = 0x5350_5243;

/// Tag of the hello frame each connector sends to identify its rank. Lives in
/// the transport-private bit-63 space so it can never collide with user tags
/// (top two bits clear) or trait collective tags (bit 62).
const HELLO_TAG: u64 = (1 << 63) | 0x6865_6c6c;

/// Transport tuning knobs; the defaults suit a localhost or LAN fleet.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Connection attempts per peer during mesh establishment.
    pub connect_attempts: u32,
    /// Backoff before the second connect attempt; doubles per attempt.
    pub connect_base: Duration,
    /// Upper bound on any single connect backoff sleep.
    pub connect_max: Duration,
    /// Deadline for the whole accept side of mesh establishment.
    pub establish_timeout: Duration,
    /// Read deadline on blocking receives; `None` waits forever (no failure
    /// detection).
    pub read_timeout: Option<Duration>,
    /// Largest acceptable frame payload; larger length prefixes are protocol
    /// violations (they would otherwise let one bad frame allocate the moon).
    pub max_frame: u32,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            connect_attempts: 20,
            connect_base: Duration::from_millis(25),
            connect_max: Duration::from_secs(1),
            establish_timeout: Duration::from_secs(30),
            read_timeout: Some(Duration::from_secs(30)),
            max_frame: 1 << 28,
        }
    }
}

/// Wire-level traffic counters for one rank, superset of [`MessageStats`]:
/// the byte and retry counts only exist on a real transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpStats {
    /// Frames sent (hello frames excluded; they predate the mesh).
    pub frames_sent: u64,
    /// Frames received.
    pub frames_received: u64,
    /// Payload plus header bytes sent.
    pub bytes_sent: u64,
    /// Payload plus header bytes received.
    pub bytes_received: u64,
    /// Connect attempts beyond the first, summed over peers.
    pub connect_retries: u64,
    /// Collective operations started by this rank.
    pub collectives: u64,
}

/// One established peer link: buffered writer and reader halves of the same
/// socket, plus the out-of-order pending buffer.
struct Peer {
    writer: RefCell<BufWriter<TcpStream>>,
    reader: RefCell<BufReader<TcpStream>>,
    pending: RefCell<VecDeque<(u64, Vec<u8>)>>,
}

/// A rank's handle to a TCP mesh. Like the in-process
/// [`ChannelComm`](crate::ChannelComm) it is deliberately `!Sync`: each rank
/// owns exactly one and drives it from its own thread.
pub struct TcpComm {
    rank: usize,
    size: usize,
    peers: Vec<Option<Peer>>,
    frames_sent: Cell<u64>,
    frames_received: Cell<u64>,
    bytes_sent: Cell<u64>,
    bytes_received: Cell<u64>,
    connect_retries: u64,
    collectives: Cell<u64>,
}

const HEADER_LEN: usize = 16; // magic u32 | tag u64 | len u32

fn write_frame(w: &mut impl Write, tag: u64, payload: &[u8]) -> io::Result<()> {
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&MAGIC.to_le_bytes());
    header[4..12].copy_from_slice(&tag.to_le_bytes());
    header[12..].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()
}

/// Map a socket read error onto the comm error taxonomy for peer `peer`.
fn map_read_err(e: io::Error, peer: usize) -> CommError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => CommError::Timeout { peer },
        io::ErrorKind::UnexpectedEof
        | io::ErrorKind::ConnectionReset
        | io::ErrorKind::ConnectionAborted
        | io::ErrorKind::BrokenPipe => CommError::Disconnected { peer },
        _ => CommError::Io(format!("read from peer {peer}: {e}")),
    }
}

fn map_write_err(e: io::Error, peer: usize) -> CommError {
    match e.kind() {
        io::ErrorKind::ConnectionReset
        | io::ErrorKind::ConnectionAborted
        | io::ErrorKind::BrokenPipe => CommError::Disconnected { peer },
        _ => CommError::Io(format!("write to peer {peer}: {e}")),
    }
}

fn read_frame(r: &mut impl Read, peer: usize, max_frame: u32) -> CommResult<(u64, Vec<u8>)> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)
        .map_err(|e| map_read_err(e, peer))?;
    let magic = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
    if magic != MAGIC {
        return Err(CommError::Protocol {
            peer,
            detail: format!("bad frame magic {magic:#010x}"),
        });
    }
    let tag = u64::from_le_bytes(header[4..12].try_into().expect("8 bytes"));
    let len = u32::from_le_bytes(header[12..].try_into().expect("4 bytes"));
    if len > max_frame {
        return Err(CommError::Protocol {
            peer,
            detail: format!("frame length {len} exceeds cap {max_frame}"),
        });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)
        .map_err(|e| map_read_err(e, peer))?;
    Ok((tag, payload))
}

/// Connect to `addr` with exponential backoff; returns the stream and how
/// many retries it took.
fn connect_with_retry(addr: SocketAddr, cfg: &TcpConfig) -> Result<(TcpStream, u64), CommError> {
    let mut retries = 0u64;
    let mut last = None;
    for attempt in 0..cfg.connect_attempts.max(1) {
        if attempt > 0 {
            retries += 1;
            let backoff = cfg
                .connect_base
                .saturating_mul(1u32 << (attempt - 1).min(16))
                .min(cfg.connect_max);
            std::thread::sleep(backoff);
        }
        match TcpStream::connect(addr) {
            Ok(s) => return Ok((s, retries)),
            Err(e) => last = Some(e),
        }
    }
    Err(CommError::Io(format!(
        "connect to {addr} failed after {} attempts: {}",
        cfg.connect_attempts.max(1),
        last.map(|e| e.to_string()).unwrap_or_default()
    )))
}

/// Accept one connection under a deadline (poll + sleep; `TcpListener` has
/// no native accept timeout).
fn accept_deadline(listener: &TcpListener, deadline: Instant) -> Result<TcpStream, CommError> {
    listener
        .set_nonblocking(true)
        .map_err(|e| CommError::Io(format!("listener nonblocking: {e}")))?;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream
                    .set_nonblocking(false)
                    .map_err(|e| CommError::Io(format!("stream blocking: {e}")))?;
                return Ok(stream);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(CommError::Io(
                        "mesh establishment timed out waiting for peers to connect".into(),
                    ));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(CommError::Io(format!("accept: {e}"))),
        }
    }
}

impl TcpComm {
    /// Establish rank `rank` of a `addrs.len()`-rank mesh. `listener` must be
    /// bound to `addrs[rank]`; every other entry names a peer's listener.
    /// Connects to all lower ranks (with retry, so start order is free),
    /// accepts from all higher ranks, and exchanges hello frames to bind
    /// sockets to ranks.
    pub fn establish(
        rank: usize,
        addrs: &[SocketAddr],
        listener: TcpListener,
        cfg: TcpConfig,
    ) -> CommResult<TcpComm> {
        let size = addrs.len();
        if rank >= size {
            return Err(CommError::InvalidRank { rank, size });
        }
        let deadline = Instant::now() + cfg.establish_timeout;
        let mut peers: Vec<Option<Peer>> = (0..size).map(|_| None).collect();
        let mut connect_retries = 0u64;

        // Connect side: this rank dials every lower rank and says hello.
        for (dst, addr) in addrs.iter().enumerate().take(rank) {
            let (stream, retries) = connect_with_retry(*addr, &cfg)?;
            connect_retries += retries;
            let _ = stream.set_nodelay(true);
            let mut w = BufWriter::new(
                stream
                    .try_clone()
                    .map_err(|e| CommError::Io(format!("clone stream to peer {dst}: {e}")))?,
            );
            write_frame(&mut w, HELLO_TAG, &(rank as u64).to_le_bytes())
                .map_err(|e| map_write_err(e, dst))?;
            peers[dst] = Some(Peer {
                writer: RefCell::new(w),
                reader: RefCell::new(BufReader::new(stream)),
                pending: RefCell::new(VecDeque::new()),
            });
        }

        // Accept side: every higher rank dials us; the hello frame says who.
        for _ in rank + 1..size {
            let stream = accept_deadline(&listener, deadline)?;
            let _ = stream.set_nodelay(true);
            // Bound the hello read by the remaining establishment budget.
            let remaining = deadline.saturating_duration_since(Instant::now());
            let _ = stream.set_read_timeout(Some(remaining.max(Duration::from_millis(10))));
            let mut reader = BufReader::new(
                stream
                    .try_clone()
                    .map_err(|e| CommError::Io(format!("clone accepted stream: {e}")))?,
            );
            let (tag, payload) = read_frame(&mut reader, size, cfg.max_frame)?;
            if tag != HELLO_TAG || payload.len() != 8 {
                return Err(CommError::Protocol {
                    peer: size,
                    detail: "expected hello frame on new connection".into(),
                });
            }
            let src = u64::from_le_bytes(payload.try_into().expect("8 bytes")) as usize;
            if src <= rank || src >= size {
                return Err(CommError::Protocol {
                    peer: src,
                    detail: format!("hello claims invalid rank {src} for acceptor {rank}"),
                });
            }
            if peers[src].is_some() {
                return Err(CommError::Protocol {
                    peer: src,
                    detail: format!("duplicate connection from rank {src}"),
                });
            }
            peers[src] = Some(Peer {
                writer: RefCell::new(BufWriter::new(stream)),
                reader: RefCell::new(reader),
                pending: RefCell::new(VecDeque::new()),
            });
        }

        // Arm the steady-state read deadline on every link.
        for peer in peers.iter().flatten() {
            let _ = peer
                .reader
                .borrow()
                .get_ref()
                .set_read_timeout(cfg.read_timeout);
        }

        Ok(TcpComm {
            rank,
            size,
            peers,
            frames_sent: Cell::new(0),
            frames_received: Cell::new(0),
            bytes_sent: Cell::new(0),
            bytes_received: Cell::new(0),
            connect_retries,
            collectives: Cell::new(0),
        })
    }

    /// Wire-level traffic counters.
    pub fn stats(&self) -> TcpStats {
        TcpStats {
            frames_sent: self.frames_sent.get(),
            frames_received: self.frames_received.get(),
            bytes_sent: self.bytes_sent.get(),
            bytes_received: self.bytes_received.get(),
            connect_retries: self.connect_retries,
            collectives: self.collectives.get(),
        }
    }

    fn peer(&self, rank: usize) -> CommResult<&Peer> {
        if rank >= self.size {
            return Err(CommError::InvalidRank {
                rank,
                size: self.size,
            });
        }
        self.peers[rank].as_ref().ok_or(CommError::InvalidRank {
            rank,
            size: self.size,
        })
    }
}

impl crate::comm_trait::Comm for TcpComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send_bytes(&self, dst: usize, tag: u64, payload: Vec<u8>) -> CommResult<()> {
        let peer = self.peer(dst)?;
        let mut w = peer.writer.borrow_mut();
        write_frame(&mut *w, tag, &payload).map_err(|e| map_write_err(e, dst))?;
        self.frames_sent.set(self.frames_sent.get() + 1);
        self.bytes_sent
            .set(self.bytes_sent.get() + (HEADER_LEN + payload.len()) as u64);
        Ok(())
    }

    fn recv_bytes(&self, src: usize, tag: u64) -> CommResult<Vec<u8>> {
        let peer = self.peer(src)?;
        // First look through frames that already arrived out of order.
        {
            let mut pend = peer.pending.borrow_mut();
            if let Some(pos) = pend.iter().position(|(t, _)| *t == tag) {
                let (_, payload) = pend.remove(pos).expect("position just found");
                self.frames_received.set(self.frames_received.get() + 1);
                return Ok(payload);
            }
        }
        loop {
            let (got_tag, payload) = {
                let mut r = peer.reader.borrow_mut();
                read_frame(&mut *r, src, u32::MAX)?
            };
            self.bytes_received
                .set(self.bytes_received.get() + (HEADER_LEN + payload.len()) as u64);
            if got_tag == tag {
                self.frames_received.set(self.frames_received.get() + 1);
                return Ok(payload);
            }
            peer.pending.borrow_mut().push_back((got_tag, payload));
        }
    }

    fn next_collective(&self, kind: CollectiveKind) -> u64 {
        let seq = self.collectives.get();
        self.collectives.set(seq + 1);
        collective_tag(seq, kind)
    }

    fn message_stats(&self) -> MessageStats {
        MessageStats {
            sent: self.frames_sent.get(),
            received: self.frames_received.get(),
            collectives: self.collectives.get(),
        }
    }
}

/// A set of pre-bound localhost listeners: bind first, then spawn ranks, so
/// no connect can race a listener that does not exist yet. This is the test
/// and benchmark harness for the TCP backend — the cross-process analogue is
/// jobd's peer roster, where retry/backoff absorbs start-order races.
pub struct TcpFleet {
    addrs: Vec<SocketAddr>,
    listeners: Vec<TcpListener>,
    cfg: TcpConfig,
}

impl TcpFleet {
    /// Bind `size` port-0 listeners on 127.0.0.1 with default tuning.
    pub fn localhost(size: usize) -> io::Result<TcpFleet> {
        Self::localhost_with(size, TcpConfig::default())
    }

    /// Bind `size` port-0 listeners on 127.0.0.1 with explicit tuning.
    pub fn localhost_with(size: usize, cfg: TcpConfig) -> io::Result<TcpFleet> {
        assert!(size > 0, "a fleet needs at least one rank");
        let mut addrs = Vec::with_capacity(size);
        let mut listeners = Vec::with_capacity(size);
        for _ in 0..size {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            addrs.push(listener.local_addr()?);
            listeners.push(listener);
        }
        Ok(TcpFleet {
            addrs,
            listeners,
            cfg,
        })
    }

    /// The bound address of every rank's listener, in rank order.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Run `body` once per rank, each rank on its own OS thread with its own
    /// established [`TcpComm`], and return the results in rank order —
    /// the TCP twin of `Universe::run`.
    pub fn run<T, F>(self, body: F) -> CommResult<Vec<T>>
    where
        T: Send,
        F: Fn(&TcpComm) -> T + Send + Sync,
    {
        let TcpFleet {
            addrs,
            listeners,
            cfg,
        } = self;
        std::thread::scope(|s| {
            let addrs = &addrs;
            let cfg = &cfg;
            let body = &body;
            let handles: Vec<_> = listeners
                .into_iter()
                .enumerate()
                .map(|(rank, listener)| {
                    s.spawn(move || -> CommResult<T> {
                        let comm = TcpComm::establish(rank, addrs, listener, cfg.clone())?;
                        Ok(body(&comm))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(r) => r,
                    Err(p) => std::panic::resume_unwind(p),
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm_trait::Comm;

    #[test]
    fn point_to_point_round_trip_and_stats() {
        let results = TcpFleet::localhost(2)
            .unwrap()
            .run(|comm| {
                if comm.rank() == 0 {
                    comm.send_bytes(1, 7, vec![1, 2, 3]).unwrap();
                    let back = comm.recv_bytes(1, 8).unwrap();
                    (back, comm.stats())
                } else {
                    let got = comm.recv_bytes(0, 7).unwrap();
                    comm.send_bytes(0, 8, got.clone()).unwrap();
                    (got, comm.stats())
                }
            })
            .unwrap();
        assert_eq!(results[0].0, vec![1, 2, 3]);
        assert_eq!(results[1].0, vec![1, 2, 3]);
        for (_, stats) in &results {
            assert_eq!(stats.frames_sent, 1);
            assert_eq!(stats.frames_received, 1);
            // 16-byte header + 3-byte payload per frame, both directions.
            assert_eq!(stats.bytes_sent, 19);
            assert_eq!(stats.bytes_received, 19);
        }
    }

    #[test]
    fn read_deadline_detects_a_silent_peer() {
        let cfg = TcpConfig {
            read_timeout: Some(Duration::from_millis(100)),
            ..TcpConfig::default()
        };
        let results = TcpFleet::localhost_with(2, cfg)
            .unwrap()
            .run(|comm| {
                if comm.rank() == 0 {
                    // Peer 1 never sends on tag 5: the deadline must fire.
                    match comm.recv_bytes(1, 5) {
                        Err(CommError::Timeout { peer }) => format!("timeout:{peer}"),
                        other => format!("unexpected: {other:?}"),
                    }
                } else {
                    // Stay alive past rank 0's deadline without sending.
                    std::thread::sleep(Duration::from_millis(300));
                    "idle".to_string()
                }
            })
            .unwrap();
        assert_eq!(results[0], "timeout:1");
    }

    #[test]
    fn closed_peer_surfaces_as_disconnected() {
        let results = TcpFleet::localhost(2)
            .unwrap()
            .run(|comm| {
                if comm.rank() == 0 {
                    // Returning drops the sockets; rank 1's read sees EOF.
                    "gone".to_string()
                } else {
                    match comm.recv_bytes(0, 5) {
                        Err(CommError::Disconnected { peer }) => format!("disconnected:{peer}"),
                        other => format!("unexpected: {other:?}"),
                    }
                }
            })
            .unwrap();
        assert_eq!(results[1], "disconnected:0");
    }

    #[test]
    fn connect_retries_absorb_a_late_listener() {
        // Rank 1 dials rank 0's address before anything listens there: bind
        // the fleet, drop rank 0's listener... not possible through the fleet
        // API, so exercise connect_with_retry directly against a port that
        // starts listening late.
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe); // port is now (very likely) closed
        let cfg = TcpConfig {
            connect_attempts: 40,
            connect_base: Duration::from_millis(10),
            ..TcpConfig::default()
        };
        let opener = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(120));
            TcpListener::bind(addr)
        });
        let (stream, retries) = connect_with_retry(addr, &cfg).unwrap();
        drop(stream);
        assert!(
            retries > 0,
            "the first attempt should have found no listener"
        );
        opener.join().unwrap().unwrap();
    }
}
