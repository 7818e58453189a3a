//! The [`Spawn`] abstraction: anything that can start processes.
//!
//! Infrastructure layers (network stacks, servers) need to spawn their
//! internal processes both from test setup code (which holds a
//! [`Simulation`](crate::Simulation)) and from inside running processes
//! (which hold a [`Ctx`]). `Spawn` is the common interface.

use crate::ctx::Ctx;
use crate::handle::SimHandle;
use crate::ids::NodeId;
use crate::process::ProcOutput;

/// A capability to spawn simulated processes and mint [`SimHandle`]s.
pub trait Spawn {
    /// Spawns a process, optionally pinned to a node (killed on its crash).
    ///
    /// # Panics
    ///
    /// Panics if `node` refers to a crashed node.
    fn spawn_boxed(&self, node: Option<NodeId>, name: &str, f: Box<dyn FnOnce(&Ctx) + 'static>);

    /// A handle for creating mailboxes and reading the clock.
    fn sim_handle(&self) -> SimHandle;
}

impl Spawn for crate::Simulation {
    fn spawn_boxed(&self, node: Option<NodeId>, name: &str, f: Box<dyn FnOnce(&Ctx) + 'static>) {
        let _: ProcOutput<()> = match node {
            Some(n) => self.spawn_on(n, name, f),
            None => self.spawn(name, f),
        };
    }

    fn sim_handle(&self) -> SimHandle {
        self.handle()
    }
}

impl Spawn for Ctx {
    fn spawn_boxed(&self, node: Option<NodeId>, name: &str, f: Box<dyn FnOnce(&Ctx) + 'static>) {
        let _: ProcOutput<()> = match node {
            Some(n) => self.spawn_on(n, name, f),
            None => {
                // Deliberately detach from the caller's node: infrastructure
                // spawned without an explicit node placement should not
                // silently inherit the spawner's failure domain.
                crate::process::spawn_impl(self.shared(), name, None, f)
            }
        };
    }

    fn sim_handle(&self) -> SimHandle {
        self.handle()
    }
}
