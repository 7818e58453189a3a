//! FIFO-fair exclusive resources: the CPU/device occupancy model.
//!
//! A [`Resource`] models something only one process can use at a time — a
//! machine's CPU, a SCSI bus — with FIFO queueing. This is what makes
//! servers *saturate* in the throughput experiments instead of overlapping
//! an unbounded number of "processing" sleeps.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Duration;

use crate::ctx::Ctx;
use crate::handle::SimHandle;
use crate::mailbox::MailboxTx;

struct ResourceState {
    busy: bool,
    waiters: VecDeque<MailboxTx<()>>,
}

/// An exclusive, FIFO-fair resource (e.g. one machine's CPU).
///
/// # Examples
///
/// ```
/// use amoeba_sim::{Resource, Simulation};
/// use std::time::Duration;
///
/// let mut sim = Simulation::new(1);
/// let cpu = Resource::new(sim.handle(), "cpu");
/// for i in 0..3 {
///     let cpu = cpu.clone();
///     sim.spawn(&format!("job{i}"), move |ctx| {
///         cpu.use_for(ctx, Duration::from_millis(10));
///     });
/// }
/// let stats = sim.run();
/// // Three 10 ms jobs on one CPU serialize: 30 ms total.
/// assert_eq!(stats.end_time.as_millis_f64(), 30.0);
/// ```
#[derive(Clone)]
pub struct Resource {
    name: String,
    handle: SimHandle,
    state: Rc<RefCell<ResourceState>>,
}

impl std::fmt::Debug for Resource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.borrow();
        f.debug_struct("Resource")
            .field("name", &self.name)
            .field("busy", &s.busy)
            .field("queue", &s.waiters.len())
            .finish()
    }
}

impl Resource {
    /// Creates an idle resource.
    pub fn new(handle: SimHandle, name: &str) -> Self {
        Resource {
            name: name.to_owned(),
            handle,
            state: Rc::new(RefCell::new(ResourceState {
                busy: false,
                waiters: VecDeque::new(),
            })),
        }
    }

    /// Acquires the resource, blocking FIFO behind current users.
    ///
    /// Prefer [`use_for`](Resource::use_for); if you call `acquire`
    /// directly you must guarantee a matching [`release`](Resource::release)
    /// even on early return (but crashes are fine **only** if the resource
    /// is recreated on restart, which is how machine reboots are modelled).
    pub fn acquire(&self, ctx: &Ctx) {
        let rx = {
            let mut s = self.state.borrow_mut();
            if !s.busy {
                s.busy = true;
                return;
            }
            let (tx, rx) = self.handle.channel::<()>();
            s.waiters.push_back(tx);
            rx
        };
        rx.recv(ctx); // hand-off: the releaser leaves `busy` set for us
    }

    /// Releases the resource, waking the next waiter if any.
    pub fn release(&self) {
        let mut s = self.state.borrow_mut();
        debug_assert!(s.busy, "release of idle resource {}", self.name);
        if let Some(w) = s.waiters.pop_front() {
            w.send(()); // stays busy; ownership transfers
        } else {
            s.busy = false;
        }
    }

    /// Occupies the resource for `d` of virtual time (acquire, hold,
    /// release). This is the CPU-charging primitive used by servers.
    pub fn use_for(&self, ctx: &Ctx, d: Duration) {
        self.acquire(ctx);
        ctx.sleep(d);
        self.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulation;
    use crate::time::SimTime;

    #[test]
    fn serializes_users_fifo() {
        let mut sim = Simulation::new(1);
        let r = Resource::new(sim.handle(), "cpu");
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..4 {
            let r = r.clone();
            let order = Rc::clone(&order);
            sim.spawn(&format!("u{i}"), move |ctx| {
                // Stagger arrival so the queue order is well defined.
                ctx.sleep(Duration::from_micros(i));
                r.use_for(ctx, Duration::from_millis(5));
                order.borrow_mut().push((i, ctx.now()));
            });
        }
        sim.run();
        let order = order.borrow();
        assert_eq!(
            order.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        // Back-to-back occupancy: finishes at 5, 10, 15, 20 ms.
        assert_eq!(order[3].1, SimTime::from_millis(20));
    }

    #[test]
    fn idle_resource_is_immediate() {
        let mut sim = Simulation::new(1);
        let r = Resource::new(sim.handle(), "cpu");
        let out = sim.spawn("u", move |ctx| {
            r.use_for(ctx, Duration::from_millis(1));
            ctx.now()
        });
        sim.run();
        assert_eq!(out.take(), Some(SimTime::from_millis(1)));
    }

    #[test]
    fn manual_acquire_release() {
        let mut sim = Simulation::new(1);
        let r = Resource::new(sim.handle(), "dev");
        let r1 = r.clone();
        let r2 = r.clone();
        sim.spawn("holder", move |ctx| {
            r1.acquire(ctx);
            ctx.sleep(Duration::from_millis(10));
            r1.release();
        });
        let out = sim.spawn("waiter", move |ctx| {
            ctx.sleep(Duration::from_millis(1));
            r2.acquire(ctx);
            let t = ctx.now();
            r2.release();
            t
        });
        sim.run();
        assert_eq!(out.take(), Some(SimTime::from_millis(10)));
    }
}
