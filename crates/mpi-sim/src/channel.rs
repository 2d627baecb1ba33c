//! In-process backend of the [`Comm`] trait: ranks are threads of one
//! process and messages travel over `std::sync::mpsc` channels.
//!
//! Each rank owns the sending ends of its row of the all-pairs mesh and the
//! receiving ends of its column (see [`crate::mesh`]). A payload is moved
//! into the channel, never copied or re-encoded, so a broadcast costs one
//! buffer per child of the binomial tree and nothing per hop. Messages that
//! arrive for a tag the rank is not waiting on are parked in a per-peer
//! pending buffer, exactly as the TCP backend parks early frames, so the two
//! backends present identical semantics.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, Sender};

use crate::comm_trait::{collective_tag, CollectiveKind, Comm, MessageStats};
use crate::error::{CommError, CommResult};
use crate::mesh::{Endpoints, Message};

/// A rank's handle to an in-process universe: its identity plus its mesh
/// endpoints.
///
/// `ChannelComm` is deliberately `!Sync`: each rank owns exactly one and uses
/// it from its own thread, as with `MPI_COMM_WORLD` in a rank process.
pub struct ChannelComm {
    rank: usize,
    size: usize,
    /// `senders[d]` delivers to rank `d` (including a self-loop).
    senders: Vec<Sender<Message>>,
    /// `receivers[s]` yields what rank `s` sent to this rank.
    receivers: Vec<Receiver<Message>>,
    /// Out-of-order buffer: messages that arrived from `src` while this rank
    /// was waiting for a different tag.
    pending: Vec<RefCell<VecDeque<Message>>>,
    sent: Cell<u64>,
    received: Cell<u64>,
    collectives: Cell<u64>,
}

impl ChannelComm {
    pub(crate) fn new(rank: usize, endpoints: Endpoints) -> Self {
        let size = endpoints.senders.len();
        ChannelComm {
            rank,
            size,
            senders: endpoints.senders,
            receivers: endpoints.receivers,
            pending: (0..size).map(|_| RefCell::new(VecDeque::new())).collect(),
            sent: Cell::new(0),
            received: Cell::new(0),
            collectives: Cell::new(0),
        }
    }
}

impl Comm for ChannelComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send_bytes(&self, dst: usize, tag: u64, payload: Vec<u8>) -> CommResult<()> {
        self.check_peer(dst)?;
        self.senders[dst]
            .send((tag, payload))
            .map_err(|_| CommError::Disconnected { peer: dst })?;
        self.sent.set(self.sent.get() + 1);
        Ok(())
    }

    fn recv_bytes(&self, src: usize, tag: u64) -> CommResult<Vec<u8>> {
        self.check_peer(src)?;
        let mut pending = self.pending[src].borrow_mut();
        let payload = match pending.iter().position(|(t, _)| *t == tag) {
            Some(pos) => pending.remove(pos).expect("position just found").1,
            None => loop {
                let (got, payload) = self.receivers[src]
                    .recv()
                    .map_err(|_| CommError::Disconnected { peer: src })?;
                if got == tag {
                    break payload;
                }
                pending.push_back((got, payload));
            },
        };
        self.received.set(self.received.get() + 1);
        Ok(payload)
    }

    fn next_collective(&self, kind: CollectiveKind) -> u64 {
        let seq = self.collectives.get();
        self.collectives.set(seq + 1);
        collective_tag(seq, kind)
    }

    fn message_stats(&self) -> MessageStats {
        MessageStats {
            sent: self.sent.get(),
            received: self.received.get(),
            collectives: self.collectives.get(),
        }
    }
}
