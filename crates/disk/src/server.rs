//! The disk-server process: serializes access to one spindle and charges
//! the timing model.

use amoeba_flip::Payload;
use amoeba_sim::{Ctx, MailboxRx, MailboxTx, NodeId, ReplyRx, Spawn};

use crate::model::DiskParams;
use crate::vdisk::VDisk;

enum DiskReq {
    Read {
        block: u64,
        reply: MailboxTx<Vec<u8>>,
    },
    Write {
        block: u64,
        data: Payload,
        reply: MailboxTx<()>,
    },
    /// Consecutive blocks, one seek (used by Bullet for whole files).
    /// The block contents are shared `Payload` slices, and the platters
    /// keep them: a Bullet create reaches the disk without a byte copy.
    WriteRun {
        start: u64,
        data: Vec<Payload>,
        reply: MailboxTx<()>,
    },
    ReadRun {
        start: u64,
        count: u64,
        reply: MailboxTx<Vec<Vec<u8>>>,
    },
}

impl std::fmt::Debug for DiskReq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskReq::Read { block, .. } => write!(f, "Read({block})"),
            DiskReq::Write { block, .. } => write!(f, "Write({block})"),
            DiskReq::WriteRun { start, data, .. } => {
                write!(f, "WriteRun({start}+{})", data.len())
            }
            DiskReq::ReadRun { start, count, .. } => write!(f, "ReadRun({start}+{count})"),
        }
    }
}

/// A client handle to one machine's disk server. FIFO-fair: requests are
/// served strictly in arrival order, one at a time — queueing delay under
/// write load is what saturates the paper's Fig. 9 at ~5 pairs/s.
#[derive(Clone, Debug)]
pub struct DiskServer {
    tx: MailboxTx<DiskReq>,
    disk: VDisk,
}

impl DiskServer {
    /// Starts the server process on `sim_node` in front of `disk`.
    ///
    /// After a machine crash, call this again with the same [`VDisk`] to
    /// model the machine rebooting with its platters intact.
    pub fn start(
        spawner: &impl Spawn,
        sim_node: NodeId,
        disk: VDisk,
        params: DiskParams,
    ) -> DiskServer {
        let handle = spawner.sim_handle();
        let (tx, rx) = handle.channel::<DiskReq>();
        let served_disk = disk.clone();
        spawner.spawn_boxed(
            Some(sim_node),
            "disk-server",
            Box::new(move |ctx| serve(ctx, rx, served_disk, params)),
        );
        DiskServer { tx, disk }
    }

    /// The raw platters behind this server.
    pub fn vdisk(&self) -> &VDisk {
        &self.disk
    }

    /// Reads one block, paying queueing plus access time.
    pub fn read(&self, ctx: &Ctx, block: u64) -> Vec<u8> {
        let (reply, rx) = ctx.reply_channel();
        self.tx.send(DiskReq::Read { block, reply });
        rx.recv(ctx)
    }

    /// Writes one block synchronously. The platters keep `data` itself:
    /// a `Payload` is shared, not copied, and a `Vec` is moved (only a
    /// borrowed slice is copied, by its conversion).
    pub fn write(&self, ctx: &Ctx, block: u64, data: impl Into<Payload>) {
        let rx = self.write_begin(ctx, block, data);
        rx.recv(ctx)
    }

    /// Enqueues a block write *without blocking* and returns the waiter.
    /// The request takes its place in the FIFO immediately, so callers may
    /// enqueue under a lock and wait after releasing it (waiting while
    /// holding a lock would freeze other simulated threads). The
    /// contents reach the platters as [`write`](Self::write)'s do. The
    /// waiter is `ctx`'s reply mailbox ([`Ctx::reply_channel`]).
    pub fn write_begin<'c>(
        &self,
        ctx: &'c Ctx,
        block: u64,
        data: impl Into<Payload>,
    ) -> ReplyRx<'c, ()> {
        let (reply, rx) = ctx.reply_channel();
        self.tx.send(DiskReq::Write {
            block,
            data: data.into(),
            reply,
        });
        rx
    }

    /// Writes consecutive blocks with a single seek. Each block reaches
    /// the platters as [`write`](Self::write)'s does: slices of one
    /// `Payload` (a Bullet file's) stay slices of it, with no byte copied
    /// and no block padded.
    pub fn write_run(&self, ctx: &Ctx, start: u64, data: Vec<impl Into<Payload>>) {
        let (reply, rx) = ctx.reply_channel();
        self.tx.send(DiskReq::WriteRun {
            start,
            data: data.into_iter().map(Into::into).collect(),
            reply,
        });
        rx.recv(ctx)
    }

    /// Reads consecutive blocks with a single seek.
    pub fn read_run(&self, ctx: &Ctx, start: u64, count: u64) -> Vec<Vec<u8>> {
        let (reply, rx) = ctx.reply_channel();
        self.tx.send(DiskReq::ReadRun {
            start,
            count,
            reply,
        });
        rx.recv(ctx)
    }
}

fn serve(ctx: &Ctx, rx: MailboxRx<DiskReq>, disk: VDisk, params: DiskParams) {
    // Where the head finished its previous access (head-aware mode): a
    // request landing on that block again, or the next one over,
    // skips the seek. Journal appends that continue where the last one
    // ended, and the checkpointer's writes to adjacent table blocks, are
    // the beneficiaries.
    let mut head: Option<u64> = None;
    let charge = |ctx: &Ctx, head: &mut Option<u64>, start: u64, n: usize| {
        let settled = params.head_aware && head.map(|h| h.abs_diff(start) <= 1).unwrap_or(false);
        if settled {
            ctx.sleep(params.settled_access_time(n));
        } else {
            disk.note_seek();
            ctx.sleep(params.access_time(n));
        }
        *head = Some(start + (n.max(1) as u64) - 1);
    };
    loop {
        match rx.recv(ctx) {
            DiskReq::Read { block, reply } => {
                charge(ctx, &mut head, block, 1);
                reply.send(disk.read_block(block));
            }
            DiskReq::Write { block, data, reply } => {
                charge(ctx, &mut head, block, 1);
                disk.write_block(block, data);
                reply.send(());
            }
            DiskReq::WriteRun { start, data, reply } => {
                charge(ctx, &mut head, start, data.len());
                for (i, d) in data.into_iter().enumerate() {
                    disk.write_block(start + i as u64, d);
                }
                reply.send(());
            }
            DiskReq::ReadRun {
                start,
                count,
                reply,
            } => {
                charge(ctx, &mut head, start, count as usize);
                let blocks = (0..count).map(|i| disk.read_block(start + i)).collect();
                reply.send(blocks);
            }
        }
    }
}

/// A contiguous view of part of a disk (Amoeba's "raw partition").
///
/// Block 0 of the partition is the directory service's commit block
/// (paper Fig. 4); the rest holds the object table.
#[derive(Clone, Debug)]
pub struct RawPartition {
    server: DiskServer,
    base: u64,
    len: u64,
}

impl RawPartition {
    /// Creates a view of `len` blocks starting at absolute block `base`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the disk.
    pub fn new(server: DiskServer, base: u64, len: u64) -> Self {
        assert!(
            base + len <= server.vdisk().nblocks(),
            "partition exceeds disk"
        );
        RawPartition { server, base, len }
    }

    /// Number of blocks in the partition.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Block size of the underlying disk, in bytes.
    pub fn block_size(&self) -> usize {
        self.server.vdisk().block_size()
    }

    /// Whether the partition has zero blocks.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads partition-relative block `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of the partition.
    pub fn read(&self, ctx: &Ctx, block: u64) -> Vec<u8> {
        assert!(block < self.len, "partition read out of range");
        self.server.read(ctx, self.base + block)
    }

    /// Writes partition-relative block `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of the partition.
    pub fn write(&self, ctx: &Ctx, block: u64, data: impl Into<Payload>) {
        assert!(block < self.len, "partition write out of range");
        self.server.write(ctx, self.base + block, data);
    }

    /// Enqueues a partition write without blocking; see
    /// [`DiskServer::write_begin`].
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of the partition.
    pub fn write_begin<'c>(
        &self,
        ctx: &'c Ctx,
        block: u64,
        data: impl Into<Payload>,
    ) -> ReplyRx<'c, ()> {
        assert!(block < self.len, "partition write out of range");
        self.server.write_begin(ctx, self.base + block, data)
    }

    /// Writes consecutive partition-relative blocks with a single seek
    /// (the journal's sequential record append).
    ///
    /// # Panics
    ///
    /// Panics if the run exceeds the partition.
    pub fn write_run(&self, ctx: &Ctx, start: u64, data: Vec<impl Into<Payload>>) {
        assert!(
            start + data.len() as u64 <= self.len,
            "partition write out of range"
        );
        self.server.write_run(ctx, self.base + start, data);
    }

    /// Frees partition-relative blocks `start..start + count`: they read
    /// as zeroes again and hold no memory ([`VDisk::discard`]). Takes no
    /// simulated time.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the partition.
    pub fn discard(&self, start: u64, count: u64) {
        assert!(start + count <= self.len, "partition discard out of range");
        self.server.vdisk().discard(self.base + start, count);
    }

    /// Reads the whole partition with one seek (used at boot to load the
    /// object table).
    pub fn read_all(&self, ctx: &Ctx) -> Vec<Vec<u8>> {
        self.server.read_run(ctx, self.base, self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_sim::Simulation;
    use std::time::Duration;

    #[test]
    fn read_write_round_trip_with_latency() {
        let mut sim = Simulation::new(1);
        let node = sim.add_node("m");
        let disk = VDisk::new(128, 512);
        let srv = DiskServer::start(&sim, node, disk, DiskParams::wren_iv());
        let out = sim.spawn("app", move |ctx| {
            let t0 = ctx.now();
            srv.write(ctx, 5, vec![7; 10]);
            let t_write = ctx.now() - t0;
            let data = srv.read(ctx, 5);
            (data[0], t_write)
        });
        sim.run();
        let (v, t_write) = out.take().unwrap();
        assert_eq!(v, 7);
        assert!(t_write >= Duration::from_millis(35), "{t_write:?}");
    }

    #[test]
    fn requests_serialize_fifo() {
        let mut sim = Simulation::new(1);
        let node = sim.add_node("m");
        let disk = VDisk::new(128, 512);
        let srv = DiskServer::start(&sim, node, disk, DiskParams::wren_iv());
        let mut outs = Vec::new();
        for i in 0..3u64 {
            let srv = srv.clone();
            outs.push(sim.spawn(&format!("w{i}"), move |ctx| {
                ctx.sleep(Duration::from_micros(i));
                srv.write(ctx, i, vec![i as u8]);
                ctx.now()
            }));
        }
        sim.run();
        let times: Vec<_> = outs.iter().map(|o| o.take().unwrap()).collect();
        assert!(times[0] < times[1] && times[1] < times[2]);
        // Third completes after ~3 access times: queueing is real.
        let one = DiskParams::wren_iv().access_time(1);
        assert!((times[2] - amoeba_sim::SimTime::ZERO) >= one * 3 - Duration::from_millis(1));
    }

    #[test]
    fn write_run_is_cheaper_than_separate_writes() {
        let mut sim = Simulation::new(1);
        let node = sim.add_node("m");
        let disk = VDisk::new(128, 512);
        let srv = DiskServer::start(&sim, node, disk, DiskParams::wren_iv());
        let out = sim.spawn("app", move |ctx| {
            let t0 = ctx.now();
            srv.write_run(ctx, 0, vec![vec![1; 512]; 4]);
            let run = ctx.now() - t0;
            let t1 = ctx.now();
            for i in 0..4 {
                srv.write(ctx, 10 + i, vec![1; 512]);
            }
            let separate = ctx.now() - t1;
            (run, separate)
        });
        sim.run();
        let (run, separate) = out.take().unwrap();
        assert!(run < separate / 2, "run {run:?} vs separate {separate:?}");
    }

    #[test]
    fn head_aware_coalesces_same_block_rewrites() {
        let run = |head_aware: bool| {
            let mut sim = Simulation::new(1);
            let node = sim.add_node("m");
            let disk = VDisk::new(128, 512);
            let params = DiskParams {
                head_aware,
                ..DiskParams::wren_iv()
            };
            let srv = DiskServer::start(&sim, node, disk, params);
            let out = sim.spawn("app", move |ctx| {
                let t0 = ctx.now();
                // A table block, then the commit block twice over (a
                // guard/final bracket).
                srv.write(ctx, 1, vec![1; 512]);
                srv.write(ctx, 0, vec![2; 512]);
                srv.write(ctx, 0, vec![3; 512]);
                ctx.now() - t0
            });
            sim.run();
            out.take().unwrap()
        };
        let classic = run(false);
        let aware = run(true);
        // Only the first write seeks: the rewrite of block 0 and the
        // back-to-back repeat both ride the settled head.
        let p = DiskParams::wren_iv();
        assert_eq!(classic, p.access_time(1) * 3);
        assert_eq!(aware, p.access_time(1) + p.settled_access_time(1) * 2);
    }

    #[test]
    fn partition_is_relative_and_bounded() {
        let mut sim = Simulation::new(1);
        let node = sim.add_node("m");
        let disk = VDisk::new(128, 512);
        let srv = DiskServer::start(&sim, node, disk.clone(), DiskParams::instant());
        let part = RawPartition::new(srv, 100, 28);
        let out = sim.spawn("app", move |ctx| {
            part.write(ctx, 0, vec![42]);
            part.read(ctx, 0)[0]
        });
        sim.run();
        assert_eq!(out.take(), Some(42));
        // The write landed at absolute block 100.
        assert_eq!(disk.read_block(100)[0], 42);
    }

    #[test]
    fn disk_survives_crash_and_new_server_reads_it() {
        let mut sim = Simulation::new(1);
        let node = sim.add_node("m");
        let disk = VDisk::new(16, 64);
        let srv = DiskServer::start(&sim, node, disk.clone(), DiskParams::instant());
        sim.spawn("writer", move |ctx| {
            srv.write(ctx, 3, vec![9]);
        });
        sim.run_for(Duration::from_millis(50));
        sim.crash_node(node);
        sim.run_for(Duration::from_millis(10));
        sim.revive_node(node);
        let srv2 = DiskServer::start(&sim, node, disk, DiskParams::instant());
        let out = sim.spawn("reader", move |ctx| srv2.read(ctx, 3)[0]);
        sim.run();
        assert_eq!(out.take(), Some(9));
    }
}
