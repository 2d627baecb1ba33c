//! Construction of the all-pairs channel mesh.
//!
//! For a universe of `p` ranks we build `p * p` unbounded channels; rank `r`
//! owns the receiving ends of column `r` and the sending ends of row `r`
//! (including a self-loop, which lets collectives treat the root uniformly).

use std::sync::mpsc::{channel, Receiver, Sender};

/// One in-flight message: its tag and its payload bytes.
pub(crate) type Message = (u64, Vec<u8>);

/// The per-rank view of the mesh: senders to every rank, receivers from every
/// rank.
pub(crate) struct Endpoints {
    /// `senders[d]` delivers to rank `d`.
    pub senders: Vec<Sender<Message>>,
    /// `receivers[s]` receives what rank `s` sent to us.
    pub receivers: Vec<Receiver<Message>>,
}

/// Build endpoints for all `size` ranks.
pub(crate) fn build_mesh(size: usize) -> Vec<Endpoints> {
    assert!(size > 0, "universe must have at least one rank");
    // columns[d] collects the receiving ends at rank d, one per source rank
    // in source order; each pass of the map builds source rank s's row.
    let mut columns: Vec<Vec<Receiver<Message>>> =
        (0..size).map(|_| Vec::with_capacity(size)).collect();
    let rows: Vec<Vec<Sender<Message>>> = (0..size)
        .map(|_| {
            columns
                .iter_mut()
                .map(|column| {
                    let (tx, rx) = channel();
                    column.push(rx);
                    tx
                })
                .collect()
        })
        .collect();
    rows.into_iter()
        .zip(columns)
        .map(|(senders, receivers)| Endpoints { senders, receivers })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_has_full_connectivity() {
        let size = 4;
        let eps = build_mesh(size);
        assert_eq!(eps.len(), size);
        for ep in &eps {
            assert_eq!(ep.senders.len(), size);
            assert_eq!(ep.receivers.len(), size);
        }
    }

    #[test]
    fn message_travels_along_correct_edge() {
        let mut eps = build_mesh(3);
        let ep2 = eps.pop().unwrap();
        let ep1 = eps.pop().unwrap();
        let ep0 = eps.pop().unwrap();
        // 0 -> 2
        ep0.senders[2].send((5, vec![1, 2, 3])).unwrap();
        let (tag, payload) = ep2.receivers[0].recv().unwrap();
        assert_eq!(tag, 5);
        assert_eq!(payload, vec![1, 2, 3]);
        // 1's channels saw nothing.
        assert!(ep1.receivers[0].try_recv().is_err());
    }

    #[test]
    fn self_loop_works() {
        let eps = build_mesh(1);
        eps[0].senders[0].send((1, vec![9])).unwrap();
        assert_eq!(eps[0].receivers[0].recv().unwrap(), (1, vec![9]));
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        let _ = build_mesh(0);
    }
}
