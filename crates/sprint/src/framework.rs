//! The SPRINT execution model (paper Figure 1): all ranks start, load the
//! function library, and initialize the message-passing layer; workers enter
//! a waiting loop; the master evaluates the user's script, and each call to a
//! parallel function broadcasts a function code that wakes the workers to
//! evaluate it collectively.

use std::any::Any;
use std::sync::{Arc, Mutex, PoisonError};

use mpi_sim::{ChannelComm, Comm, Universe, MASTER};

use crate::args::Args;
use crate::marshal::{self, Codec};
use crate::registry::{MasterPayload, Registry, TaskContext};

/// The command the master broadcasts to the waiting workers.
#[derive(Debug, PartialEq)]
enum Command<'a> {
    /// Evaluate function `code` with the encoded arguments.
    Call { code: u32, wire_args: &'a [u8] },
    /// Leave the waiting loop (the script finished).
    Shutdown,
}

/// Wire tag byte of [`Command::Call`].
const CALL: u8 = 1;
/// Wire tag byte of [`Command::Shutdown`].
const SHUTDOWN: u8 = 0;

impl<'a> Command<'a> {
    /// Wire form: a tag byte; a call adds its function code (`u32`,
    /// little-endian) and the marshalled arguments.
    fn encode(&self) -> Vec<u8> {
        match self {
            Command::Call { code, wire_args } => {
                let mut buf = Vec::with_capacity(5 + wire_args.len());
                buf.push(CALL);
                buf.extend_from_slice(&code.to_le_bytes());
                buf.extend_from_slice(wire_args);
                buf
            }
            Command::Shutdown => vec![SHUTDOWN],
        }
    }

    /// Parse [`Command::encode`]'s output; `None` for a malformed payload.
    fn decode(bytes: &'a [u8]) -> Option<Command<'a>> {
        match bytes.split_first()? {
            (&CALL, rest) if rest.len() >= 4 => {
                let (code, wire_args) = rest.split_at(4);
                let code = u32::from_le_bytes(code.try_into().expect("4 bytes"));
                Some(Command::Call { code, wire_args })
            }
            (&SHUTDOWN, []) => Some(Command::Shutdown),
            _ => None,
        }
    }
}

/// The master's handle inside a script: call parallel functions by name.
pub struct Master<'a> {
    comm: &'a ChannelComm,
    registry: &'a Registry,
    payload: &'a MasterPayload,
    codec: Codec,
}

impl<'a> Master<'a> {
    /// Number of ranks in the universe.
    pub fn ranks(&self) -> usize {
        self.comm.size()
    }

    /// Stage a large out-of-band input for the next call (see
    /// [`MasterPayload`]).
    pub fn stage<T: Any + Send>(&self, key: &str, value: T) {
        self.payload.put(key, value);
    }

    /// Invoke the parallel function `name` on all ranks and return its
    /// master-side output.
    ///
    /// # Panics
    /// Panics if `name` is not registered — a script bug, surfaced loudly.
    pub fn call(&self, name: &str, args: Args) -> Box<dyn Any + Send> {
        let code = self
            .registry
            .code_of(name)
            .unwrap_or_else(|| panic!("parallel function {name:?} is not registered"));
        let wire_args = marshal::encode(&args, self.codec);
        let command = Command::Call {
            code,
            wire_args: &wire_args,
        };
        self.comm
            .bcast_bytes(MASTER, Some(command.encode()))
            .expect("command broadcast");
        let f = self.registry.by_code(code).expect("validated code");
        let ctx = TaskContext {
            comm: self.comm,
            payload: self.payload,
        };
        f(&ctx, &args).expect("master output")
    }
}

/// The SPRINT framework: a registry plus the SPMD launcher.
pub struct Sprint {
    registry: Registry,
    codec: Codec,
}

impl Sprint {
    /// Build with the given function registry, using integer-coded parameter
    /// marshalling (future-work item 3; see [`crate::marshal`]).
    pub fn new(registry: Registry) -> Self {
        Sprint {
            registry,
            codec: Codec::IntCoded,
        }
    }

    /// Select the parameter codec (the published implementation used
    /// string-coded parameters).
    pub fn with_codec(mut self, codec: Codec) -> Self {
        self.codec = codec;
        self
    }

    /// Launch `n_ranks` ranks; the master evaluates `script`, the workers
    /// serve [`Master::call`]s until the script returns. Equivalent to
    /// `mpiexec -n n_ranks R -f script.R` in the paper's usage.
    pub fn run<T, F>(self, n_ranks: usize, script: F) -> Result<T, mpi_sim::UniverseError>
    where
        T: Send + 'static,
        F: FnOnce(&Master<'_>) -> T + Send + 'static,
    {
        let registry = Arc::new(self.registry);
        let codec = self.codec;
        let script = Arc::new(Mutex::new(Some(script)));
        let mut outputs = Universe::run(n_ranks, move |comm| {
            let payload = MasterPayload::new();
            if comm.is_master() {
                let script = script
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .take()
                    .expect("script runs exactly once, on the master");
                let master = Master {
                    comm,
                    registry: &registry,
                    payload: &payload,
                    codec,
                };
                let out = script(&master);
                comm.bcast_bytes(MASTER, Some(Command::Shutdown.encode()))
                    .expect("shutdown broadcast");
                Some(out)
            } else {
                // The worker waiting loop of Figure 1.
                loop {
                    let bytes = comm.bcast_bytes(MASTER, None).expect("await command");
                    match Command::decode(&bytes).expect("malformed command broadcast") {
                        Command::Call { code, wire_args } => {
                            let args = marshal::decode(wire_args);
                            let f = registry.by_code(code).expect("unknown function code");
                            let ctx = TaskContext {
                                comm,
                                payload: &payload,
                            };
                            let _ = f(&ctx, &args);
                        }
                        Command::Shutdown => break,
                    }
                }
                None
            }
        })?;
        Ok(outputs
            .swap_remove(0)
            .expect("master produces the script output"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Value;

    fn echo_registry() -> Registry {
        let mut reg = Registry::new();
        reg.register("sum-ranks", |ctx, _args| {
            let total = ctx
                .comm
                .reduce_sum_u64(MASTER, vec![ctx.comm.rank() as u64])
                .expect("reduce");
            total.map(|t| Box::new(t[0]) as Box<dyn Any + Send>)
        });
        reg.register("scale", |ctx, args| {
            let factor = args.get("factor").and_then(Value::as_int).unwrap_or(1);
            let local = (ctx.comm.rank() as u64 + 1) * factor as u64;
            let total = ctx
                .comm
                .reduce_sum_u64(MASTER, vec![local])
                .expect("reduce");
            total.map(|t| Box::new(t[0]) as Box<dyn Any + Send>)
        });
        reg
    }

    #[test]
    fn script_calls_parallel_functions() {
        let out = Sprint::new(echo_registry())
            .run(4, |master| {
                assert_eq!(master.ranks(), 4);
                let sum = *master
                    .call("sum-ranks", Args::new())
                    .downcast::<u64>()
                    .unwrap();
                let scaled = *master
                    .call("scale", Args::new().with("factor", Value::Int(10)))
                    .downcast::<u64>()
                    .unwrap();
                (sum, scaled)
            })
            .unwrap();
        assert_eq!(out, (6, 100));
    }

    #[test]
    fn multiple_sequential_calls_work() {
        let out = Sprint::new(echo_registry())
            .run(3, |master| {
                (0..5)
                    .map(|_| {
                        *master
                            .call("sum-ranks", Args::new())
                            .downcast::<u64>()
                            .unwrap()
                    })
                    .collect::<Vec<_>>()
            })
            .unwrap();
        assert_eq!(out, vec![3; 5]);
    }

    #[test]
    fn single_rank_master_only() {
        let out = Sprint::new(echo_registry())
            .run(1, |master| {
                *master
                    .call("sum-ranks", Args::new())
                    .downcast::<u64>()
                    .unwrap()
            })
            .unwrap();
        assert_eq!(out, 0);
    }

    #[test]
    fn both_codecs_deliver_args() {
        for codec in [Codec::StringCoded, Codec::IntCoded] {
            let out = Sprint::new(echo_registry())
                .with_codec(codec)
                .run(2, |master| {
                    *master
                        .call("scale", Args::new().with("factor", Value::Int(7)))
                        .downcast::<u64>()
                        .unwrap()
                })
                .unwrap();
            assert_eq!(out, (1 + 2) * 7, "{codec:?}");
        }
    }

    #[test]
    fn commands_round_trip_and_reject_garbage() {
        let args = [1u8, 2, 3];
        for cmd in [
            Command::Call {
                code: 0x0102_0304,
                wire_args: &args,
            },
            Command::Call {
                code: 7,
                wire_args: &[],
            },
            Command::Shutdown,
        ] {
            assert_eq!(Command::decode(&cmd.encode()), Some(cmd));
        }
        for garbage in [&[][..], &[CALL, 1, 2], &[SHUTDOWN, 0], &[9]] {
            assert_eq!(Command::decode(garbage), None, "{garbage:?}");
        }
    }

    #[test]
    fn unknown_function_panics_the_master() {
        let err = Sprint::new(echo_registry())
            .run(2, |master| {
                master.call("nonexistent", Args::new());
            })
            .unwrap_err();
        assert!(err.to_string().contains("not registered"));
    }
}
