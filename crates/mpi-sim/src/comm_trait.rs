//! Transport-generic communicator trait.
//!
//! [`Comm`] is the one message-passing surface a `pmaxT` rank speaks: rank
//! identity, tagged byte-level point-to-point transfer, and the collectives
//! barrier / broadcast / gather / reduce-sum as default methods over two
//! required primitives (`send_bytes` / `recv_bytes`). Two backends implement
//! the primitives — in-process channels ([`ChannelComm`](crate::ChannelComm),
//! ranks as threads) and a real network ([`TcpComm`](crate::TcpComm)) — so
//! one SPMD rank body runs unmodified over either.
//!
//! The collectives are genuine message exchanges, the classic MPI
//! algorithms: binomial trees for broadcast and reduce cost `p − 1` messages
//! in total, the dissemination barrier `p·⌈log₂ p⌉`, the flat gather funnel
//! `p − 1`. The communication-complexity reasoning of the paper's §4.4
//! therefore holds on every backend, and the message-count tests below run
//! unchanged on both.
//!
//! Collective tags carry bit 62 ([`TRAIT_COLL_BIT`]), so they never match
//! user point-to-point tags, which keep the top two bits clear.

use std::ops::AddAssign;

use crate::error::{CommError, CommResult};

/// Snapshot of a rank's message traffic, for communication-complexity
/// assertions and instrumentation (the paper's §4.4 reasons about how the
/// collective sections grow with the process count; these counters let tests
/// pin the tree message counts down exactly).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MessageStats {
    /// Point-to-point messages sent by this rank (collectives included).
    pub sent: u64,
    /// Point-to-point messages received by this rank (collectives included).
    pub received: u64,
    /// Collective operations started by this rank.
    pub collectives: u64,
}

/// Bit marking a tag as belonging to a collective operation. User
/// point-to-point tags must keep the top two bits clear.
pub const TRAIT_COLL_BIT: u64 = 1 << 62;

/// Kind codes mixed into collective tags so different collectives can never
/// match each other's messages even if a backend reorders delivery across
/// tags.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollectiveKind {
    /// Dissemination barrier.
    Barrier = 0,
    /// Binomial-tree broadcast.
    Bcast = 1,
    /// Flat gather funnel.
    Gather = 2,
    /// Binomial-tree reduction.
    Reduce = 3,
}

/// Tag of a rank's `seq`-th collective (counting from 0) of kind `kind`:
/// identical on every rank by SPMD discipline. Every backend's
/// [`Comm::next_collective`] is this plus a counter.
pub(crate) fn collective_tag(seq: u64, kind: CollectiveKind) -> u64 {
    TRAIT_COLL_BIT | (seq << 3) | kind as u64
}

/// Encode a `u64` slice little-endian for the wire.
pub fn encode_u64s(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decode a little-endian `u64` payload; `src` only labels the error.
pub fn decode_u64s(bytes: &[u8], src: usize) -> CommResult<Vec<u64>> {
    if !bytes.len().is_multiple_of(8) {
        return Err(CommError::Protocol {
            peer: src,
            detail: format!("u64 payload length {} not a multiple of 8", bytes.len()),
        });
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunk is 8 bytes")))
        .collect())
}

/// Encode an `f64` slice via its IEEE-754 bit pattern, little-endian. Using
/// the bit pattern (not a decimal round trip) keeps wire transfer lossless,
/// which the bitwise-reproducibility contract requires.
pub fn encode_f64s(values: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out
}

/// Decode a little-endian IEEE-754 `f64` payload; `src` only labels the error.
pub fn decode_f64s(bytes: &[u8], src: usize) -> CommResult<Vec<f64>> {
    Ok(decode_u64s(bytes, src)?
        .into_iter()
        .map(f64::from_bits)
        .collect())
}

/// The transport-generic communicator: what a `pmaxT` rank needs from its
/// message-passing substrate.
///
/// Backends provide identity, tagged byte transfer with per-(src, tag)
/// ordering and out-of-order buffering, and a collective tag allocator; the
/// collectives themselves are default methods shared by every backend.
///
/// ## Contract for implementors
///
/// - `send_bytes` is non-blocking or buffered: a send must not deadlock
///   against the peer's own send (the collectives rely on this, as MPI
///   implementations rely on eager small-message sends).
/// - `recv_bytes(src, tag)` blocks for a message from exactly `src` with
///   exactly `tag`; messages from `src` with other tags are buffered, and
///   messages with the same tag arrive in send order.
/// - `next_collective` returns a tag in the [`TRAIT_COLL_BIT`] space that is
///   identical across ranks for the n-th collective call (SPMD discipline),
///   and bumps the backend's collective counter.
pub trait Comm {
    /// This rank's id, in `0..size`.
    fn rank(&self) -> usize;

    /// Number of ranks in the universe.
    fn size(&self) -> usize;

    /// Send `payload` to rank `dst` under `tag`.
    fn send_bytes(&self, dst: usize, tag: u64, payload: Vec<u8>) -> CommResult<()>;

    /// Receive the payload sent by `src` under `tag`, blocking until it
    /// arrives.
    fn recv_bytes(&self, src: usize, tag: u64) -> CommResult<Vec<u8>>;

    /// Allocate the tag for the next collective operation (identical across
    /// ranks by SPMD discipline) and count it.
    fn next_collective(&self, kind: CollectiveKind) -> u64;

    /// Snapshot of this rank's traffic counters.
    fn message_stats(&self) -> MessageStats;

    /// True for the SPRINT master (rank 0).
    fn is_master(&self) -> bool {
        self.rank() == crate::MASTER
    }

    /// Validate a peer rank against the communicator size.
    fn check_peer(&self, rank: usize) -> CommResult<()> {
        if rank >= self.size() {
            Err(CommError::InvalidRank {
                rank,
                size: self.size(),
            })
        } else {
            Ok(())
        }
    }

    /// Dissemination barrier: `⌈log₂ p⌉` rounds of shifted token passing.
    /// No rank exits before every rank has entered.
    fn barrier(&self) -> CommResult<()> {
        let tag = self.next_collective(CollectiveKind::Barrier);
        let (rank, size) = (self.rank(), self.size());
        let mut dist = 1usize;
        while dist < size {
            let to = (rank + dist) % size;
            let from = (rank + size - dist % size) % size;
            self.send_bytes(to, tag | (dist as u64) << 32, Vec::new())?;
            self.recv_bytes(from, tag | (dist as u64) << 32)?;
            dist <<= 1;
        }
        Ok(())
    }

    /// Binomial-tree broadcast from `root`. The root passes `Some(payload)`,
    /// everyone else `None`; all ranks return the payload.
    fn bcast_bytes(&self, root: usize, payload: Option<Vec<u8>>) -> CommResult<Vec<u8>> {
        self.check_peer(root)?;
        let tag = self.next_collective(CollectiveKind::Bcast);
        let (rank, size) = (self.rank(), self.size());
        let vr = (rank + size - root) % size; // virtual rank, root at 0
        let payload = if vr == 0 {
            payload.expect("broadcast root must supply a payload")
        } else {
            // Parent: clear the highest set bit of the virtual rank.
            let msb = usize::BITS - 1 - vr.leading_zeros();
            let parent_vr = vr & !(1usize << msb);
            let parent = (parent_vr + root) % size;
            self.recv_bytes(parent, tag)?
        };
        // Children: vr | 2^k for 2^k > vr (any k when vr == 0), child < size.
        let first_k = if vr == 0 {
            0
        } else {
            (usize::BITS - vr.leading_zeros()) as usize
        };
        for k in first_k..usize::BITS as usize {
            let child_vr = vr | (1usize << k);
            if child_vr == vr || child_vr >= size {
                if child_vr >= size {
                    break;
                }
                continue;
            }
            let child = (child_vr + root) % size;
            self.send_bytes(child, tag, payload.clone())?;
        }
        Ok(payload)
    }

    /// Flat gather: every rank sends `payload` to `root`, which returns the
    /// vector ordered by rank; non-roots return `None`.
    fn gather_bytes(&self, root: usize, payload: Vec<u8>) -> CommResult<Option<Vec<Vec<u8>>>> {
        self.check_peer(root)?;
        let tag = self.next_collective(CollectiveKind::Gather);
        let (rank, size) = (self.rank(), self.size());
        if rank == root {
            let mut out: Vec<Option<Vec<u8>>> = (0..size).map(|_| None).collect();
            out[root] = Some(payload);
            for (src, slot) in out.iter_mut().enumerate() {
                if src != root {
                    *slot = Some(self.recv_bytes(src, tag)?);
                }
            }
            Ok(Some(out.into_iter().map(Option::unwrap).collect()))
        } else {
            self.send_bytes(root, tag, payload)?;
            Ok(None)
        }
    }

    /// Element-wise sum-reduce of equal-length `u64` vectors to `root` over a
    /// binomial tree. This is the collective `pmaxT` uses to combine per-rank
    /// permutation counts (paper §3.2 Step 5); partials combine in a fixed
    /// tree order and integer summation is associative, so the result is
    /// exact and bitwise-identical to serial for any rank count.
    fn reduce_sum_u64(&self, root: usize, value: Vec<u64>) -> CommResult<Option<Vec<u64>>> {
        reduce_sum(self, root, value, encode_u64s, decode_u64s)
    }

    /// Element-wise sum-reduce of equal-length `f64` vectors to `root` over
    /// the same binomial tree: deterministic for a given rank count, though
    /// floating-point addition order differs from serial left-to-right.
    fn reduce_sum_f64(&self, root: usize, value: Vec<f64>) -> CommResult<Option<Vec<f64>>> {
        reduce_sum(self, root, value, encode_f64s, decode_f64s)
    }
}

/// The binomial-tree sum-reduce behind [`Comm::reduce_sum_u64`] and
/// [`Comm::reduce_sum_f64`]; `encode`/`decode` are the element wire form.
fn reduce_sum<C: Comm + ?Sized, T: Copy + AddAssign>(
    comm: &C,
    root: usize,
    mut value: Vec<T>,
    encode: fn(&[T]) -> Vec<u8>,
    decode: fn(&[u8], usize) -> CommResult<Vec<T>>,
) -> CommResult<Option<Vec<T>>> {
    comm.check_peer(root)?;
    let tag = comm.next_collective(CollectiveKind::Reduce);
    let (rank, size) = (comm.rank(), comm.size());
    let vr = (rank + size - root) % size;
    let mut mask = 1usize;
    while mask < size {
        if vr & mask != 0 {
            // Send the partial to the subtree parent and drop out.
            let dst = ((vr & !mask) + root) % size;
            comm.send_bytes(dst, tag, encode(&value))?;
            return Ok(None);
        }
        let src_vr = vr | mask;
        if src_vr < size {
            let src = (src_vr + root) % size;
            let other = decode(&comm.recv_bytes(src, tag)?, src)?;
            if other.len() != value.len() {
                return Err(CommError::Protocol {
                    peer: src,
                    detail: format!(
                        "reduce partial has {} elements, expected {}",
                        other.len(),
                        value.len()
                    ),
                });
            }
            for (x, y) in value.iter_mut().zip(&other) {
                *x += *y;
            }
        }
        mask <<= 1;
    }
    Ok(Some(value))
}

#[cfg(test)]
mod tests {
    //! One collective suite for both backends: every body below speaks only
    //! `&dyn Comm` and runs over in-process channels at 1..=9 ranks and over
    //! localhost TCP at 1..=4 ranks, at every root.

    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use super::*;
    use crate::{TcpFleet, Universe};

    #[derive(Clone, Copy, Debug)]
    enum Backend {
        Channel,
        Tcp,
    }

    impl Backend {
        /// Run `body` on `p` ranks of this backend; results in rank order.
        fn run<T, F>(self, p: usize, body: F) -> Vec<T>
        where
            T: Send + 'static,
            F: Fn(&dyn Comm) -> T + Send + Sync + 'static,
        {
            match self {
                Backend::Channel => Universe::run(p, move |c| body(c)).unwrap(),
                Backend::Tcp => TcpFleet::localhost(p).unwrap().run(|c| body(c)).unwrap(),
            }
        }
    }

    /// Every backend at every size the suite covers.
    fn sizes() -> impl Iterator<Item = (Backend, usize)> {
        let channel = (1..=9).map(|p| (Backend::Channel, p));
        channel.chain((1..=4).map(|p| (Backend::Tcp, p)))
    }

    /// Every (backend, size, root) case.
    fn roots() -> impl Iterator<Item = (Backend, usize, usize)> {
        sizes().flat_map(|(b, p)| (0..p).map(move |root| (b, p, root)))
    }

    /// Total messages sent across all ranks while running `op` once.
    fn total_sent<F>(backend: Backend, p: usize, op: F) -> u64
    where
        F: Fn(&dyn Comm) + Send + Sync + 'static,
    {
        backend
            .run(p, move |c| {
                op(c);
                c.message_stats()
            })
            .iter()
            .map(|s| s.sent)
            .sum()
    }

    /// `⌈log₂ p⌉`: the dissemination barrier's round count.
    fn ceil_log2(p: usize) -> u64 {
        (usize::BITS - (p - 1).leading_zeros()) as u64
    }

    #[test]
    fn bcast_from_every_root_reaches_every_rank() {
        for (b, p, root) in roots() {
            let out = b.run(p, move |c| {
                let payload = (c.rank() == root).then(|| vec![root as u8, 99, 7]);
                c.bcast_bytes(root, payload).unwrap()
            });
            assert!(
                out.iter().all(|v| v == &vec![root as u8, 99, 7]),
                "{b:?} p={p} root={root}"
            );
        }
    }

    #[test]
    fn gather_at_every_root_orders_by_rank() {
        for (b, p, root) in roots() {
            let out = b.run(p, move |c| {
                c.gather_bytes(root, vec![c.rank() as u8; c.rank() + 1])
                    .unwrap()
            });
            let expect: Vec<Vec<u8>> = (0..p).map(|r| vec![r as u8; r + 1]).collect();
            for (rank, got) in out.into_iter().enumerate() {
                let want = (rank == root).then(|| expect.clone());
                assert_eq!(got, want, "{b:?} p={p} root={root} rank={rank}");
            }
        }
    }

    #[test]
    fn reduce_sums_at_every_root_are_exact() {
        for (b, p, root) in roots() {
            let out = b.run(p, move |c| {
                let r = c.rank() as u64;
                let u = c
                    .reduce_sum_u64(root, vec![r + 1, 1, u64::MAX / 16])
                    .unwrap();
                // Halves and small integers sum exactly in any order, so the
                // tree result must match serial to the bit.
                let f = c
                    .reduce_sum_f64(root, vec![r as f64 * 0.5, -(r as f64) - 1.0, 0.25])
                    .unwrap();
                (u, f)
            });
            let n = p as u64;
            let f_expect = [
                (0..p).map(|r| r as f64 * 0.5).sum::<f64>(),
                (0..p).map(|r| -(r as f64) - 1.0).sum::<f64>(),
                0.25 * p as f64,
            ];
            for (rank, (u, f)) in out.into_iter().enumerate() {
                if rank != root {
                    assert!(u.is_none() && f.is_none(), "{b:?} p={p} root={root}");
                    continue;
                }
                assert_eq!(
                    u,
                    Some(vec![n * (n + 1) / 2, n, n * (u64::MAX / 16)]),
                    "{b:?} p={p} root={root}"
                );
                let bits: Vec<u64> = f.unwrap().iter().map(|x| x.to_bits()).collect();
                let want: Vec<u64> = f_expect.iter().map(|x| x.to_bits()).collect();
                assert_eq!(bits, want, "{b:?} p={p} root={root}");
            }
        }
    }

    #[test]
    fn barrier_orders_phases() {
        for (b, p) in sizes() {
            let entered = Arc::new(AtomicUsize::new(0));
            let seen = b.run(p, {
                let entered = Arc::clone(&entered);
                move |c| {
                    entered.fetch_add(1, Ordering::SeqCst);
                    c.barrier().unwrap();
                    // After the barrier, every rank must have entered.
                    entered.load(Ordering::SeqCst)
                }
            });
            assert!(seen.iter().all(|&s| s == p), "{b:?} p={p}: {seen:?}");
        }
    }

    #[test]
    fn successive_collectives_do_not_cross_talk() {
        for (b, p) in sizes() {
            let out = b.run(p, move |c| {
                let last = c.size() - 1;
                let x = c.bcast_bytes(0, c.is_master().then(|| vec![1])).unwrap();
                let y = c
                    .bcast_bytes(last, (c.rank() == last).then(|| vec![2]))
                    .unwrap();
                c.barrier().unwrap();
                let s = c.reduce_sum_u64(last, vec![1]).unwrap();
                let g = c.gather_bytes(0, vec![c.rank() as u8]).unwrap();
                (x, y, s, g)
            });
            for (rank, (x, y, s, g)) in out.into_iter().enumerate() {
                assert_eq!((x, y), (vec![1], vec![2]), "{b:?} p={p}");
                assert_eq!(s, (rank == p - 1).then(|| vec![p as u64]), "{b:?} p={p}");
                let all: Vec<Vec<u8>> = (0..p as u8).map(|r| vec![r]).collect();
                assert_eq!(g, (rank == 0).then_some(all), "{b:?} p={p}");
            }
        }
    }

    #[test]
    fn point_to_point_ring() {
        for (b, p) in sizes().filter(|&(_, p)| p > 1) {
            let out = b.run(p, |c| {
                let next = (c.rank() + 1) % c.size();
                let prev = (c.rank() + c.size() - 1) % c.size();
                c.send_bytes(next, 10, vec![c.rank() as u8]).unwrap();
                c.recv_bytes(prev, 10).unwrap()[0] as usize
            });
            let expect: Vec<usize> = (0..p).map(|r| (r + p - 1) % p).collect();
            assert_eq!(out, expect, "{b:?} p={p}");
        }
    }

    #[test]
    fn tags_demultiplex_out_of_order() {
        for b in [Backend::Channel, Backend::Tcp] {
            let out = b.run(2, |c| {
                if c.rank() == 0 {
                    for tag in [10, 20, 30] {
                        c.send_bytes(1, tag, vec![tag as u8]).unwrap();
                    }
                    Vec::new()
                } else {
                    // Ask for the tags in reverse send order; the earlier
                    // ones wait in the pending buffer.
                    [30, 20, 10]
                        .iter()
                        .map(|&tag| c.recv_bytes(0, tag).unwrap()[0])
                        .collect()
                }
            });
            assert_eq!(out[1], vec![30, 20, 10], "{b:?}");
        }
    }

    #[test]
    fn invalid_rank_rejected() {
        for (b, p) in sizes() {
            let out = b.run(p, |c| {
                let bad = c.size() + 3;
                let errs = [
                    c.send_bytes(bad, 1, Vec::new()).unwrap_err(),
                    c.recv_bytes(bad, 1).unwrap_err(),
                    c.bcast_bytes(bad, Some(Vec::new())).unwrap_err(),
                    c.gather_bytes(bad, Vec::new()).unwrap_err(),
                    c.reduce_sum_u64(bad, vec![1]).unwrap_err(),
                ];
                // A rejected collective allocates no tag, so the ranks stay
                // in step for the next one.
                c.barrier().unwrap();
                errs.iter().all(
                    |e| matches!(e, CommError::InvalidRank { rank, size } if *rank == bad && *size == c.size()),
                ) && c.message_stats().collectives == 1
            });
            assert!(out.iter().all(|&ok| ok), "{b:?} p={p}");
        }
    }

    #[test]
    fn rooted_collectives_cost_p_minus_1_messages() {
        for (b, p, root) in roots() {
            let expect = p as u64 - 1;
            let bcast = total_sent(b, p, move |c| {
                c.bcast_bytes(root, (c.rank() == root).then(|| vec![7]))
                    .unwrap();
            });
            let gather = total_sent(b, p, move |c| {
                c.gather_bytes(root, vec![c.rank() as u8]).unwrap();
            });
            let reduce = total_sent(b, p, move |c| {
                c.reduce_sum_u64(root, vec![1, 2, 3]).unwrap();
            });
            assert_eq!(
                (bcast, gather, reduce),
                (expect, expect, expect),
                "{b:?} p={p} root={root}"
            );
        }
    }

    #[test]
    fn barrier_uses_p_times_ceil_log2_p_messages() {
        for (b, p) in sizes() {
            let sent = total_sent(b, p, |c| c.barrier().unwrap());
            assert_eq!(sent, p as u64 * ceil_log2(p), "{b:?} p={p}");
        }
    }

    #[test]
    fn sent_equals_received_after_quiesce() {
        for (b, p) in sizes() {
            let stats = b.run(p, |c| {
                c.reduce_sum_u64(0, vec![c.rank() as u64]).unwrap();
                c.bcast_bytes(0, c.is_master().then(Vec::new)).unwrap();
                c.barrier().unwrap();
                c.message_stats()
            });
            let sent: u64 = stats.iter().map(|s| s.sent).sum();
            let received: u64 = stats.iter().map(|s| s.received).sum();
            assert_eq!(sent, received, "{b:?} p={p}: no message lost or unconsumed");
            assert!(stats.iter().all(|s| s.collectives == 3), "{b:?} p={p}");
        }
    }

    #[test]
    fn counters_start_at_zero() {
        for (b, p) in sizes() {
            let stats = b.run(p, |c| c.message_stats());
            assert!(
                stats.iter().all(|s| *s == MessageStats::default()),
                "{b:?} p={p}"
            );
        }
    }

    #[test]
    fn u64_and_f64_codecs_round_trip() {
        let u = vec![0u64, 1, u64::MAX, 0x0123_4567_89ab_cdef];
        assert_eq!(decode_u64s(&encode_u64s(&u), 0).unwrap(), u);
        let f = vec![0.0f64, -0.0, 1.5, f64::INFINITY, f64::MIN_POSITIVE];
        let back = decode_f64s(&encode_f64s(&f), 0).unwrap();
        assert_eq!(back.len(), f.len());
        for (a, b) in f.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // NaN survives bitwise.
        let nan = decode_f64s(&encode_f64s(&[f64::NAN]), 0).unwrap();
        assert!(nan[0].is_nan());
        // Torn payloads are protocol errors, not panics.
        assert!(decode_u64s(&[1, 2, 3], 7).is_err());
    }
}
