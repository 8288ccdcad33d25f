//! Quickstart: checkpoint a two-process computation mid-stream, kill it,
//! and restart it — the `dmtcp_checkpoint` / `dmtcp_command --checkpoint` /
//! restart-script workflow of §3, in ~80 lines.
//!
//! Run with: `cargo run --release --example quickstart`

use dmtcp::session::run_for;
use dmtcp::{ExpectCkpt, Options, RestartPlan, Session};
use oskit::program::{Program, Registry, Step};
use oskit::world::{NodeId, World};
use oskit::{Errno, Fd, HwSpec, Kernel};
use simkit::{Nanos, Sim, Snap};

/// A counter that streams its progress to a logger process over TCP.
struct Counter {
    pc: u8,
    fd: Fd,
    n: u64,
    target: u64,
}
simkit::impl_snap!(struct Counter { pc, fd, n, target });

impl Program for Counter {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        match self.pc {
            0 => match k.connect("node01", 7000) {
                Ok(fd) => {
                    self.fd = fd;
                    self.pc = 1;
                    Step::Yield
                }
                Err(Errno::ConnRefused) => Step::Sleep(Nanos::from_millis(2)),
                Err(e) => panic!("connect: {e:?}"),
            },
            1 => {
                if self.n == self.target {
                    k.close(self.fd).expect("close");
                    return Step::Exit(0);
                }
                self.n += 1;
                k.write(self.fd, &self.n.to_le_bytes()).expect("send");
                Step::Compute(500_000) // half a millisecond of "work"
            }
            _ => unreachable!(),
        }
    }
    fn tag(&self) -> &'static str {
        "counter"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

/// Receives the stream and records the last value it saw.
struct Logger {
    pc: u8,
    lfd: Fd,
    cfd: Fd,
    last: u64,
    buf: Vec<u8>,
}
simkit::impl_snap!(struct Logger { pc, lfd, cfd, last, buf });

impl Program for Logger {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        loop {
            match self.pc {
                0 => {
                    let (fd, _) = k.listen_on(7000).expect("listen");
                    self.lfd = fd;
                    self.pc = 1;
                }
                1 => match k.accept(self.lfd) {
                    Ok(fd) => {
                        self.cfd = fd;
                        self.pc = 2;
                    }
                    Err(Errno::WouldBlock) => return Step::Block,
                    Err(e) => panic!("accept: {e:?}"),
                },
                2 => match k.read(self.cfd, 8 - self.buf.len()) {
                    Ok(b) if b.is_empty() => {
                        let fd = k.open("/shared/final_count", true).expect("result");
                        k.write(fd, self.last.to_string().as_bytes())
                            .expect("write");
                        return Step::Exit(0);
                    }
                    Ok(b) => {
                        self.buf.extend_from_slice(&b);
                        if self.buf.len() == 8 {
                            let v = u64::from_le_bytes(self.buf[..].try_into().expect("8"));
                            assert_eq!(v, self.last + 1, "stream gap — checkpoint corrupted it");
                            self.last = v;
                            self.buf.clear();
                        }
                    }
                    Err(Errno::WouldBlock) => return Step::Block,
                    Err(e) => panic!("read: {e:?}"),
                },
                _ => unreachable!(),
            }
        }
    }
    fn tag(&self) -> &'static str {
        "logger"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

fn main() {
    // A 2-node simulated cluster with both programs' "executables".
    let mut reg = Registry::new();
    reg.register_snap::<Counter>("counter");
    reg.register_snap::<Logger>("logger");
    let mut w = World::new(HwSpec::cluster(), 2, reg);
    let mut sim = Sim::new();

    // dmtcp_coordinator + dmtcp_checkpoint <program>
    let session = Session::start(
        &mut w,
        &mut sim,
        Options::builder().ckpt_dir("/shared/ckpt").build(),
    );
    session.launch(
        &mut w,
        &mut sim,
        NodeId(1),
        "logger",
        Box::new(Logger {
            pc: 0,
            lfd: -1,
            cfd: -1,
            last: 0,
            buf: Vec::new(),
        }),
    );
    session.launch(
        &mut w,
        &mut sim,
        NodeId(0),
        "counter",
        Box::new(Counter {
            pc: 0,
            fd: -1,
            n: 0,
            target: 500,
        }),
    );

    // Let it run a while, then checkpoint (dmtcp_command --checkpoint).
    run_for(&mut w, &mut sim, Nanos::from_millis(100));
    let stat = session
        .checkpoint_and_wait(&mut w, &mut sim, 10_000_000)
        .expect_ckpt();
    println!(
        "checkpointed {} processes in {:.3}s (gen {})",
        stat.participants,
        stat.checkpoint_time().expect("complete").as_secs_f64(),
        stat.gen,
    );

    // Disaster strikes.
    run_for(&mut w, &mut sim, Nanos::from_millis(30));
    session.kill_computation(&mut w, &mut sim);
    println!(
        "killed the computation; {} process(es) left",
        w.live_procs()
    );

    // The paper's restart script, as a typed plan read from the
    // coordinator's generation record: the checkpointed generation back
    // onto the hosts that wrote it.
    RestartPlan::from_generation(&w, session.opts.coord_port, stat.gen)
        .expect("generation record written")
        .execute(&session, &mut w, &mut sim)
        .expect("identity restart");
    session.wait_restart_done(&mut w, &mut sim, stat.gen, 10_000_000);
    println!("restarted; computation resumes from the checkpoint");

    // Run to completion and verify.
    assert!(
        sim.run_bounded(&mut w, 10_000_000),
        "deadlock after restart"
    );
    let result = String::from_utf8(w.shared_fs.read_all("/shared/final_count").expect("result"))
        .expect("utf8");
    println!("final count: {result} (expected 500)");
    assert_eq!(result, "500");
    println!("OK — no gap, no duplication, across a kill and restart.");
}
