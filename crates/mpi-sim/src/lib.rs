//! # mpi-sim — an in-process SPMD message-passing substrate
//!
//! The SPRINT paper parallelizes `mt.maxT` with MPI. This crate provides the
//! subset of MPI semantics that `pmaxT` actually uses — ranks, point-to-point
//! send/receive with tags, and the collectives broadcast, barrier, gather and
//! reduce — behind one communicator trait, [`Comm`], with two backends:
//! [`ChannelComm`] runs ranks as OS threads inside one process with messages
//! travelling over channels, and [`TcpComm`] runs them over real sockets.
//!
//! The substitution is documented in `DESIGN.md`: the algorithmic structure of
//! the parallel permutation test (who talks to whom, in which order, with
//! which data) is identical whether ranks are MPI processes on a Cray XT or
//! threads here. Collectives are implemented as real message exchanges
//! (binomial trees, dissemination barrier), not shortcuts through shared
//! memory, so message counts and orderings match a classic MPI implementation.
//!
//! ## Quick example
//!
//! ```
//! use mpi_sim::{Comm, Universe};
//!
//! // Four ranks each contribute rank*2; the root learns the sum.
//! let results = Universe::run(4, |comm| {
//!     let local = (comm.rank() * 2) as u64;
//!     comm.reduce_sum_u64(0, vec![local]).unwrap()
//! })
//! .unwrap();
//! assert_eq!(results[0], Some(vec![0 + 2 + 4 + 6]));
//! assert!(results[1..].iter().all(|r| r.is_none()));
//! ```

mod channel;
mod comm_trait;
mod error;
mod mesh;
mod tcp;
mod timer;
mod universe;

pub use channel::ChannelComm;
pub use comm_trait::{
    decode_f64s, decode_u64s, encode_f64s, encode_u64s, CollectiveKind, Comm, MessageStats,
    TRAIT_COLL_BIT,
};
pub use error::{CommError, CommResult};
pub use tcp::{TcpComm, TcpConfig, TcpFleet, TcpStats};
pub use timer::{SectionProfile, SectionTimer};
pub use universe::{Universe, UniverseError};

/// The rank of the master process. SPRINT fixes the master at rank 0.
pub const MASTER: usize = 0;
