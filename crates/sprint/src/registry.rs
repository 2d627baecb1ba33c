//! The function registry: named parallel functions the master's script can
//! invoke, executed SPMD on every rank (Figure 1 of the paper — "SPRINT
//! provides an interface to HPC and a library of parallel functions").

use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use mpi_sim::ChannelComm;

use crate::args::Args;

/// Master-side out-of-band payloads, keyed by name: big inputs the script
/// stages for the next call without shipping them through the (small)
/// command broadcast. The parallel function itself distributes them, exactly
/// like `pmaxT` broadcasts its dataset in its "create data" step.
#[derive(Default)]
pub struct MasterPayload {
    items: Mutex<HashMap<String, Box<dyn Any + Send>>>,
}

impl MasterPayload {
    /// Create an empty stash.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lock the stash. A panic elsewhere cannot leave it torn (each access
    /// is one map operation), so a poisoned lock is recovered.
    fn stash(&self) -> MutexGuard<'_, HashMap<String, Box<dyn Any + Send>>> {
        self.items.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Stage a payload under `key`.
    pub fn put<T: Any + Send>(&self, key: &str, value: T) {
        self.stash().insert(key.to_string(), Box::new(value));
    }

    /// Take a payload out (the call consumes it).
    pub fn take<T: Any + Send>(&self, key: &str) -> Option<T> {
        let boxed = self.stash().remove(key)?;
        boxed.downcast::<T>().ok().map(|b| *b)
    }

    /// True if a payload is staged under `key`.
    pub fn contains(&self, key: &str) -> bool {
        self.stash().contains_key(key)
    }
}

/// Execution context handed to a parallel function on each rank.
pub struct TaskContext<'a> {
    /// The rank's communicator.
    pub comm: &'a ChannelComm,
    /// The master's payload stash (empty on workers).
    pub payload: &'a MasterPayload,
}

/// A parallel function: runs on every rank; returns `Some` on the master.
pub type ParallelFn =
    Arc<dyn Fn(&TaskContext<'_>, &Args) -> Option<Box<dyn Any + Send>> + Send + Sync>;

/// Named function table. Function codes (indices) are what the master
/// broadcasts to wake the workers, mirroring SPRINT's command codes.
#[derive(Clone, Default)]
pub struct Registry {
    entries: Vec<(String, ParallelFn)>,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `f` under `name`; returns its function code.
    pub fn register<F>(&mut self, name: &str, f: F) -> u32
    where
        F: Fn(&TaskContext<'_>, &Args) -> Option<Box<dyn Any + Send>> + Send + Sync + 'static,
    {
        assert!(
            self.code_of(name).is_none(),
            "function {name:?} already registered"
        );
        self.entries.push((name.to_string(), Arc::new(f)));
        (self.entries.len() - 1) as u32
    }

    /// Look up a function code by name.
    pub fn code_of(&self, name: &str) -> Option<u32> {
        self.entries
            .iter()
            .position(|(n, _)| n == name)
            .map(|i| i as u32)
    }

    /// Fetch a function by code.
    pub fn by_code(&self, code: u32) -> Option<&ParallelFn> {
        self.entries.get(code as usize).map(|(_, f)| f)
    }

    /// Registered names in code order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|(n, _)| n.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut reg = Registry::new();
        let code = reg.register("echo", |_ctx, args| {
            Some(Box::new(args.len()) as Box<dyn Any + Send>)
        });
        assert_eq!(code, 0);
        assert_eq!(reg.code_of("echo"), Some(0));
        assert!(reg.by_code(0).is_some());
        assert!(reg.by_code(1).is_none());
        assert_eq!(reg.names(), vec!["echo"]);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_names_rejected() {
        let mut reg = Registry::new();
        reg.register("f", |_, _| None);
        reg.register("f", |_, _| None);
    }

    #[test]
    fn payload_stash_round_trips() {
        let stash = MasterPayload::new();
        stash.put("vec", vec![1u32, 2, 3]);
        assert!(stash.contains("vec"));
        let v: Vec<u32> = stash.take("vec").unwrap();
        assert_eq!(v, vec![1, 2, 3]);
        assert!(!stash.contains("vec"), "take consumes");
        assert!(stash.take::<Vec<u32>>("vec").is_none());
    }

    #[test]
    fn payload_type_mismatch_returns_none() {
        let stash = MasterPayload::new();
        stash.put("x", 42u64);
        assert!(stash.take::<String>("x").is_none());
        // Downcast failure consumed the entry — documented behaviour of the
        // consuming API; assert it so a change is noticed.
        assert!(!stash.contains("x"));
    }
}
