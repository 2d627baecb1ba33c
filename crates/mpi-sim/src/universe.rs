//! SPMD launch: run one closure on every rank and join the results.

use std::fmt;
use std::thread;

use crate::channel::ChannelComm;
use crate::mesh::build_mesh;

/// Error returned when one or more ranks panicked.
#[derive(Debug)]
pub struct UniverseError {
    /// Ranks whose body panicked, with the panic message when it was a string.
    pub panicked: Vec<(usize, String)>,
}

impl fmt::Display for UniverseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ranks panicked:")?;
        for (rank, msg) in &self.panicked {
            write!(f, " [{rank}: {msg}]")?;
        }
        Ok(())
    }
}

impl std::error::Error for UniverseError {}

/// Entry point of the SPMD model: [`Universe::run`] plays the role of
/// `mpiexec -n SIZE`.
pub struct Universe;

impl Universe {
    /// Run `body` on `size` ranks (threads), each with its own
    /// [`ChannelComm`], and return the per-rank results in rank order.
    ///
    /// If any rank panics the remaining ranks may observe
    /// [`crate::CommError::Disconnected`]; all threads are joined before the
    /// error is returned, so no thread leaks.
    pub fn run<T, F>(size: usize, body: F) -> Result<Vec<T>, UniverseError>
    where
        T: Send + 'static,
        F: Fn(&ChannelComm) -> T + Send + Sync + 'static,
    {
        assert!(size > 0, "universe must have at least one rank");
        let endpoints = build_mesh(size);
        let body = std::sync::Arc::new(body);
        let mut handles = Vec::with_capacity(size);
        for (rank, ep) in endpoints.into_iter().enumerate() {
            let body = std::sync::Arc::clone(&body);
            handles.push(
                thread::Builder::new()
                    .name(format!("mpi-sim-rank-{rank}"))
                    .spawn(move || {
                        let comm = ChannelComm::new(rank, ep);
                        body(&comm)
                    })
                    .expect("failed to spawn rank thread"),
            );
        }
        let mut results = Vec::with_capacity(size);
        let mut panicked = Vec::new();
        for (rank, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(v) => results.push(v),
                Err(e) => {
                    let msg = e
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| e.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "<non-string panic>".to_string());
                    panicked.push((rank, msg));
                }
            }
        }
        if panicked.is_empty() {
            Ok(results)
        } else {
            Err(UniverseError { panicked })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode_u64s, encode_u64s, Comm};

    #[test]
    fn results_are_in_rank_order() {
        let out = Universe::run(6, |c| c.rank() * 10).unwrap();
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn single_rank_universe() {
        let out = Universe::run(1, |c| (c.rank(), c.size())).unwrap();
        assert_eq!(out, vec![(0, 1)]);
    }

    #[test]
    fn panicking_rank_is_reported() {
        let err = Universe::run(3, |c| {
            if c.rank() == 1 {
                panic!("boom at rank one");
            }
            c.rank()
        })
        .unwrap_err();
        assert_eq!(err.panicked.len(), 1);
        assert_eq!(err.panicked[0].0, 1);
        assert!(err.panicked[0].1.contains("boom"));
        assert!(err.to_string().contains("boom"));
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_size_rejected() {
        let _ = Universe::run(0, |_| ());
    }

    #[test]
    fn many_ranks_oversubscribe_cores() {
        // More ranks than cores must still complete (threads block on recv):
        // reduce to the master, then broadcast the sum back to every rank.
        let out = Universe::run(32, |c| {
            let sum = c.reduce_sum_u64(0, vec![c.rank() as u64]).unwrap();
            let bytes = c.bcast_bytes(0, sum.map(|s| encode_u64s(&s))).unwrap();
            decode_u64s(&bytes, 0).unwrap()
        })
        .unwrap();
        assert!(out.iter().all(|v| v == &vec![(0..32).sum::<u64>()]));
    }
}
